"""The end-to-end benchmark: four workloads, one command.

    python3 benchmarks/e2e/run.py                 # all workloads, full report
    python3 benchmarks/e2e/run.py --smoke         # tiny sizes, validates wiring
    python3 benchmarks/e2e/run.py --workload mixed --seed 3 --seconds 15 --trace 0

One *run* applies every stream of the workload's pool, in the order
``--seed`` fixes, each in a fresh ``worker.py`` process (one client
thread, closed loop).  The work is fixed: pools are sized so that the
timed loops of a run add up to about ``run_seconds`` (BENCHMARK.json),
and a shorter ``--seconds`` applies proportionally fewer streams.
End-to-end metrics come from untraced workers.  A traced run applies
half of the streams twice - untraced, then with ``trace.py``'s spans -
so it also yields the tracing overhead and proves that tracing changes
no outcome.

With ``--trace 0|1`` (the ``BENCHMARK.json`` contract) the last line of
standard output is one JSON object ``{correct, attempted, failed,
metrics}``.  Without it every selected workload is run ``--runs`` times
untraced plus once traced, every metric is printed by name with its
unit, and ``perf_<workload>.json`` / ``trace_<workload>.jsonl`` are
written under ``--out``.  Either way a failed correctness check makes
the exit code non-zero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

import metrics
import workloads
from trace import merge_aggregates

HERE = workloads.HERE
ROOT = HERE.parent.parent
WORKER_TIMEOUT_S = 170


def run_worker(path, stream: int, durable: bool, trace_path=None) -> dict:
    """Apply one stream in a fresh process; its result object."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--stream", str(path), "--stream-index", str(stream),
    ]
    if durable:
        command.append("--durable")
    if trace_path is not None:
        command += ["--trace", str(trace_path)]
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"worker failed on {path} (exit {done.returncode}):\n"
            + done.stderr[-2000:]
        )
    return json.loads(done.stdout.splitlines()[-1])


def _digests(stream: int, result: dict) -> dict:
    return {
        "stream": stream,
        "state_digest": result["state_digest"],
        "delta_r_digest": result["delta_r_digest"],
        "reads_digest": result["reads_digest"],
    }


def digest_conflicts(*digest_lists: list[dict]) -> list[str]:
    """Streams whose recorded outcomes differ between the given runs."""
    seen: dict[int, dict] = {}
    conflicts = []
    for entry in (e for digests in digest_lists for e in digests):
        first = seen.setdefault(entry["stream"], entry)
        if first != entry:
            conflicts.append(
                f"stream {entry['stream']}: outcome digests differ between "
                "applications of the same stream"
            )
    return conflicts


def measure(workload, seed: int, seconds: float, trace_path=None) -> dict:
    """One run of ``workload``; traced when ``trace_path`` is given."""
    plain: list[dict] = []
    traced: list[dict] = []
    used: list[int] = []
    generate_s = measured_s = 0.0
    streams = workloads.streams_of_run(workload, seed, seconds)
    if trace_path is not None:
        # Each stream is applied twice, so half of them fill the time.
        streams = streams[: (len(streams) + 1) // 2]
    for stream in streams:
        path, spent = workloads.ensure_stream(workload, stream)
        generate_s += spent
        used.append(stream)
        plain.append(run_worker(path, stream, workload.durable))
        measured_s += plain[-1]["raw_s"]
        if trace_path is not None:
            traced.append(
                run_worker(path, stream, workload.durable, trace_path)
            )
            measured_s += traced[-1]["raw_s"]
    every = plain + traced
    problems = [p for result in every for p in result["problems"]]
    digests = [_digests(s, r) for s, r in zip(used, plain)]
    problems += digest_conflicts(
        digests, [_digests(s, r) for s, r in zip(used, traced)]
    )
    attempted = sum(len(r["write_s"]) + len(r["read_s"]) for r in every)
    failed = sum(r["failed"] for r in every)
    if traced:
        values = metrics.per_layer(
            plain, traced, merge_aggregates([r["trace"] for r in traced])
        )
        units = metrics.PER_LAYER
    else:
        values = metrics.end_to_end(plain)
        units = metrics.END_TO_END
    writes = metrics.latency_ms(plain, "write_s")
    reads = metrics.latency_ms(plain, "read_s")
    info = {
        "streams": len(used),
        "samples": len(writes) + len(reads),
        "measured_s": measured_s,
        "generate_s": generate_s,
        "machine_slowdown": statistics.median(r["slowdown"] for r in every),
        "raw_ops_per_s": len(writes + reads) / sum(r["raw_s"] for r in plain),
        "failed_share": failed / attempted,
        "op_p90_p99_ms": metrics.slow_mean(writes + reads),
        "op_p99_ms": metrics.percentile(writes + reads, 0.99),
        "write_p50_ms": metrics.percentile(writes, 0.50),
        "write_p99_ms": metrics.percentile(writes, 0.99),
    }
    if reads:
        info["read_p50_ms"] = metrics.percentile(reads, 0.50)
        info["read_p99_ms"] = metrics.percentile(reads, 0.99)
    return {
        "seed": seed,
        "traced": bool(traced),
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
        "info": info,
        "index_backend": plain[0]["index_backend"],
        "digests": digests,
    }


def report(workload, run: dict) -> None:
    info = run["info"]
    print(
        f"== {workload.name}  seed={run['seed']}  "
        f"{'traced' if run['traced'] else 'untraced'}  "
        f"{info['streams']} streams, {info['samples']} timed calls, "
        f"{info['measured_s']:.1f} s measured, "
        f"{info['generate_s']:.1f} s generating =="
    )
    for name, metric in run["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.4f} {metric['unit']}")
    for name, value in info.items():
        if not name.endswith("_s") and name not in ("streams", "samples"):
            print(f"  ({name:38s} {value:14.4f})")
    for problem in run["problems"]:
        print(f"  PROBLEM: {problem}")


def provenance(seed: int, seconds: float, backend: str) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    try:
        from importlib.metadata import version

        numpy = version("numpy")
    except ImportError:
        numpy = "absent"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "machine": platform.machine(),
        "index_backend": backend,
        "git_commit": commit,
        "seed": seed,
        "seconds": seconds,
    }


#: Tail latencies that are summarised and compared but carry no bound:
#: above p90 this sandbox's jitter decides them whenever the host is
#: contended (25% spread on ``dense_dag`` over ten runs of one input).
UNGATED = ("op_p90_p99_ms", "op_p99_ms")


def _summarize(values: list[float], unit: str) -> dict:
    return {
        "unit": unit,
        "median": statistics.median(values),
        "spread": metrics.spread(values),
        "values": values,
    }


def full(selected, args, out: pathlib.Path) -> list[dict]:
    """Every selected workload: untraced runs, one traced run, files.

    Returns what was written, one ``perf_<workload>.json`` payload each.
    """
    out.mkdir(parents=True, exist_ok=True)
    payloads = []
    for workload in selected:
        runs = []
        for index in range(args.runs):
            runs.append(measure(workload, args.seed + index, args.seconds))
            report(workload, runs[-1])
        trace_path = out / f"trace_{workload.name}.jsonl"
        trace_path.write_text("")
        traced = measure(workload, args.seed, args.seconds, trace_path)
        report(workload, traced)
        conflicts = digest_conflicts(
            *(run["digests"] for run in runs), traced["digests"]
        )
        correct = (
            all(run["correct"] for run in runs)
            and traced["correct"] and not conflicts
        )
        summary = {}
        for name, unit in metrics.END_TO_END.items():
            values = [run["metrics"][name]["value"] for run in runs]
            summary[name] = _summarize(values, unit)
        for name in UNGATED:
            values = [run["info"][name] for run in runs]
            summary[name] = _summarize(values, "ms")
        payload = {
            "workload": workload.name,
            "why": workload.why,
            "spec": dataclasses.asdict(workload),
            "provenance": provenance(
                args.seed, args.seconds, runs[0]["index_backend"]
            ),
            "correct": correct,
            "problems": conflicts,
            "summary": summary,
            "runs": runs,
            "traced": traced,
        }
        path = out / f"perf_{workload.name}.json"
        path.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"-> {path}  ({'correct' if correct else 'INCORRECT'})")
        payloads.append(payload)
    return payloads


def check_declared(emitted: dict[str, dict]) -> list[str]:
    """Where ``BENCHMARK.json`` and the emitted metrics disagree."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if declared["run_seconds"] != workloads.POOL_SECONDS:
        problems.append(
            f"run_seconds is {declared['run_seconds']} but the pools are "
            f"sized for {workloads.POOL_SECONDS} s"
        )
    names = [w["name"] for w in declared["workloads"]]
    if names != [w.name for w in workloads.WORKLOADS]:
        problems.append(f"workloads differ: BENCHMARK.json lists {names}")
    for key, run in emitted.items():
        want = {m["name"]: m["unit"] for m in declared[key]}
        have = {n: m["unit"] for n, m in run["metrics"].items()}
        for name in sorted(set(want) | set(have)):
            if want.get(name) != have.get(name):
                problems.append(
                    f"{key} metric {name}: BENCHMARK.json says "
                    f"{want.get(name)!r}, the benchmark emits "
                    f"{have.get(name)!r}"
                )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--workload", choices=[w.name for w in workloads.WORKLOADS],
        help="run only this workload (default: all four)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--seconds", type=float,
        help="share of the pool to apply, as timed-loop seconds (default "
        "and whole pool: BENCHMARK.json's run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="contract mode: one run of --workload, untraced (0) or "
        "traced (1); the last output line is the result object",
    )
    parser.add_argument(
        "--runs", type=int, default=1,
        help="untraced runs per workload in the full report, on seeds "
        "--seed, --seed+1, ... (default: 1)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes (synthetic:60, 20 ops, one stream); also checks "
        "the emitted metrics against BENCHMARK.json",
    )
    parser.add_argument(
        "--out", type=pathlib.Path,
        help="directory for perf_*.json and trace_*.jsonl (default: "
        "benchmarks/e2e/results, or results/smoke with --smoke)",
    )
    args = parser.parse_args(argv)
    if not (workloads.SRC / "repro").is_dir():
        print(
            f"error: no program to measure: {workloads.SRC / 'repro'} is "
            "missing (run from a full checkout)", file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(workloads.SRC))
    if args.seconds is None:
        args.seconds = float(workloads.POOL_SECONDS)
    selected = [
        w for w in workloads.WORKLOADS
        if args.workload in (None, w.name)
    ]
    if args.smoke:
        selected = [w.smoke() for w in selected]
    out = args.out or HERE / "results" / ("smoke" if args.smoke else "")

    if args.trace is None:
        payloads = full(selected, args, out)
        mismatches = []
        if args.smoke:
            mismatches = check_declared({
                "end_to_end": payloads[0]["runs"][0],
                "per_layer": payloads[0]["traced"],
            })
            for line in mismatches:
                print(f"PROBLEM: {line}")
        correct = all(p["correct"] for p in payloads) and not mismatches
        return 0 if correct else 1

    if args.workload is None:
        parser.error("--trace needs --workload")
    workload = selected[0]
    trace_path = None
    if args.trace:
        out.mkdir(parents=True, exist_ok=True)
        trace_path = out / f"trace_{workload.name}.jsonl"
        trace_path.write_text("")
    run = measure(workload, args.seed, args.seconds, trace_path)
    report(workload, run)
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": run["metrics"],
    }))
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
