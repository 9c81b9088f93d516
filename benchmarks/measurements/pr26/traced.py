"""Traced runs per workload and checkout: the per-layer table.

    python3 traced.py PARENT CHANGE OUTDIR > traced_seed42.txt

Runs `benchmarks/e2e/run.py --workload W --seed S --trace 1 --out
OUTDIR/<side>-<S>` in each checkout (parent first, then change), keeps
each result object as `OUTDIR/<side>-<S>/result_<W>.json` and prints,
per workload, the per-layer metrics of the seed-42 run plus the slowest
single `sat` solve span of the timed loops.  A traced run applies only
half of the pool (`run.measure`), so seeds 43, 44, ... are added until
the traced runs have covered every stream; the slowest span is over all
of them.  Span files stay in OUTDIR; they are large and not kept.
"""
import json, math, pathlib, random, subprocess, sys

WORKLOADS = ("mixed", "dense_dag", "read_mostly", "subscribed_durable")
KEYS = (
    "relview.insert.ms_per_call", "relview.insert.self_share",
    "sat.solves_per_op", "sat.ms_per_solve", "sat.self_share",
    "relational.self_share", "core.dag_eval.self_share",
    "core.maintenance.self_share", "trace.overhead_ratio",
    "trace.attributed_share",
)


def slowest_sat_ms(path: pathlib.Path) -> float:
    worst = 0.0
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            span = json.loads(line)
            if span["layer"] == "sat" and span["phase"] == "loop" \
                    and span["name"] != "encode_formula":
                worst = max(worst, 1e3 * (span["end"] - span["start"]))
    return worst


POOLS = {"mixed": 5, "dense_dag": 6, "read_mostly": 3, "subscribed_durable": 5}


def traced_streams(pool: int, seed: int) -> set:
    """The streams `run.measure(..., trace_path)` applies at `seed`."""
    order = list(range(pool))
    random.Random(seed).shuffle(order)
    return set(order[: math.ceil(pool / 2)])


def seeds_covering(pool: int) -> list:
    seeds, covered = [42], traced_streams(pool, 42)
    while len(covered) < pool:
        seeds.append(seeds[-1] + 1)
        covered |= traced_streams(pool, seeds[-1])
    return seeds


def traced_run(checkout, side, workload, seed, outdir):
    out = outdir / f"{side}-{seed}"
    done = subprocess.run(
        ["python3", "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "1", "--out", str(out)],
        cwd=checkout, capture_output=True, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    (out / f"result_{workload}.json").write_text(json.dumps(result, indent=1))
    return result, slowest_sat_ms(out / f"trace_{workload}.jsonl")


def main():
    parent, change, outdir = sys.argv[1], sys.argv[2], pathlib.Path(sys.argv[3])
    for workload in WORKLOADS:
        seeds = seeds_covering(POOLS[workload])
        results, slowest, correct = {}, {}, {}
        for seed in seeds:
            for side, checkout in (("parent", parent), ("change", change)):
                result, worst = traced_run(checkout, side, workload, seed, outdir)
                if seed == 42:
                    results[side] = result
                slowest[side] = max(slowest.get(side, 0.0), worst)
                correct.setdefault(side, []).append(
                    result["correct"] and result["failed"] == 0)
        a, b = results["parent"], results["change"]
        print(f"{workload}: seeds {seeds}, every run correct with 0 failed: "
              f"{all(correct['parent'])} -> {all(correct['change'])}")
        for key in KEYS:
            print("   %-32s %10.4f -> %10.4f" % (
                key, a["metrics"][key]["value"], b["metrics"][key]["value"]))
        print("   %-32s %10.2f -> %10.2f" % (
            "slowest sat solve, pool (ms)", slowest["parent"], slowest["change"]))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
