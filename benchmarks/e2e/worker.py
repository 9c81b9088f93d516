"""The program under test: one fresh process applies one stream.

``run.py`` starts this file once per stream.  It sets the service up
(timed as ``setup_s``), drives it from one client thread in a closed
loop — the next call is sent when the previous one returns — checks the
outcome, and prints one JSON object.  With ``--trace`` the entry points
in ``trace.py`` are wrapped first and the spans are appended to the
given JSONL file on the way out.

The sandbox's speed moves by tens of percent on the scale of seconds to
minutes, so a fixed probe is timed before every call and each latency
(``write_s``, ``read_s``, ``setup_s``) is reported divided by the
machine's slowdown around it - see README.md, "What the sandbox does to
timings".  ``raw_s`` is the uncompensated sum.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

import workloads
from trace import Tracer

sys.path.insert(0, str(workloads.SRC))

from repro import ViewConfig, open_view  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.replica import ReplicaView  # noqa: E402
from repro.workloads import named_workload  # noqa: E402


def _counters(service) -> dict:
    """Monotonic counters of the public ``stats()`` surface."""
    stats = service.stats()
    subs, pipeline, wal = (
        stats["subscriptions"], stats["pipeline"], stats["wal"] or {},
    )
    return {
        "commits": pipeline["commits"],
        "lock_hold_s": pipeline["lock_hold_seconds"],
        "maintenance_runs": stats["maintenance_runs"],
        "sub_skips": subs["skips"],
        "sub_suffix": subs["suffix_refreshes"],
        "sub_full": subs["full_refreshes"] + subs["fallback_refreshes"],
        "events_published": stats["changefeed"]["events_published"],
        "wal_fsyncs": wal.get("fsyncs", 0),
    }


#: Seconds the probe takes on the reference machine (about what it takes
#: on the 2-core sandbox this benchmark was sized on).
PROBE_REFERENCE_S = 250e-6


def _probe() -> float:
    """Seconds a fixed pure-Python loop takes right now."""
    start = perf_counter()
    total = 0
    for i in range(3000):
        total += i ^ (total >> 3)
    return perf_counter() - start


def _slowdown(probes: list[float], around: int, reach: int = 4) -> float:
    """How much slower than the reference machine this one ran around
    probe ``around``: the median of the neighbouring probes, as a
    multiple of :data:`PROBE_REFERENCE_S`."""
    near = probes[max(0, around - reach): around + reach + 1]
    return statistics.median(near) / PROBE_REFERENCE_S


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, names in os.walk(path)
        for name in names
    )


def run_stream(stream_path: str, durable: bool, tracer: Tracer | None) -> dict:
    with open(stream_path, encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        calls = [json.loads(line) for line in handle]
    dataset = header["params"]["workload"]
    wal_dir = None
    if durable:
        workloads.CACHE_DIR.mkdir(parents=True, exist_ok=True)
        wal_dir = tempfile.mkdtemp(prefix="wal-", dir=workloads.CACHE_DIR)
    try:
        return _run(header, calls, dataset, wal_dir, tracer)
    finally:
        if wal_dir is not None:
            shutil.rmtree(wal_dir, ignore_errors=True)


def _run(header, calls, dataset, wal_dir, tracer) -> dict:
    config = ViewConfig(strict=False)
    if wal_dir is not None:
        config = ViewConfig(strict=False, wal_dir=wal_dir, wal_fsync="batch")

    # -- set-up: dataset, publish σ(I), L, M, subscriptions, feed, checkpoint
    setup_probes = [_probe() for _ in range(5)]
    start = perf_counter()
    atg, db = named_workload(dataset)
    service = open_view(atg, db, config=config)
    subs = [service.subscribe(path) for path in header["subscriptions"]]
    events: list = []
    if wal_dir is not None:
        service.changefeed(on_event=events.append)
    setup_s = perf_counter() - start
    setup_probes += [_probe() for _ in range(5)]
    setup_s /= _slowdown(setup_probes, 5, reach=5)

    # -- the timed closed loop
    gc.collect()
    before = _counters(service)
    if tracer is not None:
        tracer.begin("loop")
    probes: list[float] = []
    elapsed: list[float] = []
    deltas: list = []
    read_targets: list = []
    failed = 0
    for op_id, call in enumerate(calls):
        if tracer is not None:
            tracer.op_id = op_id
        probes.append(_probe())
        t0 = perf_counter()
        try:
            if call["op"] == "read":
                result = service.xpath(call["path"])
                elapsed.append(perf_counter() - t0)
                read_targets.append(result.targets)
            else:
                outcome = service.apply(call)
                elapsed.append(perf_counter() - t0)
                deltas.append((outcome.delta_v, outcome.delta_r))
                if not outcome.accepted:
                    failed += 1
        except ReproError:
            elapsed.append(perf_counter() - t0)
            failed += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.begin("post")
    after = _counters(service)
    stats = service.stats()

    # -- correctness
    problems = list(service.check_consistency())
    state_digest = service.store.digest()
    delta_r = hashlib.sha256()
    delta_r_rows = delta_v_edges = 0
    for delta_v, delta in deltas:
        delta_v_edges += len(delta_v) if delta_v is not None else 0
        for row in delta or ():
            delta_r.update(repr((row.kind, row.relation, row.row)).encode())
            delta_r_rows += 1
    reads = hashlib.sha256()
    for targets in read_targets:
        reads.update(repr(sorted(targets)).encode())
    for sub in subs:
        if sub.result() != tuple(sorted(service.xpath(sub.path).targets)):
            problems.append(f"subscription {sub.path} diverged from xpath")
    wal_bytes = wal_replayed = 0
    if wal_dir is not None:
        commits = after["commits"] - before["commits"]
        if len(events) != commits:
            problems.append(
                f"callback saw {len(events)} events for {commits} commits"
            )
        wal_bytes = _dir_bytes(wal_dir)
        service.close()
        atg2, db2 = named_workload(dataset)
        recovered = open_view(atg2, db2, config=config)
        if recovered.store.digest() != state_digest:
            problems.append("recovered service differs from pre-close state")
        replica = ReplicaView.from_snapshot(atg2, recovered.snapshot())
        if replica.digest() != state_digest:
            problems.append("replica differs from pre-close state")
        wal_replayed = (
            recovered.stats()["generation"]
            - recovered.stats()["wal"]["checkpoints"][-1]["generation"]
        )
        recovered.close()

    slowdown = [_slowdown(probes, index) for index in range(len(calls))]
    compensated = {"read": [], "write": []}
    for call, seconds, factor in zip(calls, elapsed, slowdown):
        kind = "read" if call["op"] == "read" else "write"
        compensated[kind].append(seconds / factor)
    return {
        "setup_s": setup_s,
        "raw_s": sum(elapsed),
        "slowdown": statistics.median(slowdown),
        "write_s": compensated["write"],
        "read_s": compensated["read"],
        "failed": failed,
        "problems": problems,
        "state_digest": state_digest,
        "delta_r_digest": delta_r.hexdigest(),
        "reads_digest": reads.hexdigest(),
        "peak_rss_mb": peak_rss_mb,
        "index_backend": stats["index_backend"],
        "counters": {key: after[key] - before[key] for key in after},
        "sizes": {
            "nodes": stats["nodes"],
            "edges": stats["edges"],
            "reach_pairs": stats["reach_pairs"],
            "delta_r_rows": delta_r_rows,
            "delta_v_edges": delta_v_edges,
            "wal_bytes": wal_bytes,
            "wal_records_replayed": wal_replayed,
        },
        "trace": tracer.aggregate() if tracer is not None else None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stream", required=True, help="stream JSONL file")
    parser.add_argument("--stream-index", type=int, default=0)
    parser.add_argument("--durable", action="store_true")
    parser.add_argument(
        "--trace", metavar="JSONL",
        help="wrap the layer entry points and append the spans here",
    )
    args = parser.parse_args(argv)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    result = run_stream(args.stream, args.durable, tracer)
    if tracer is not None:
        with open(args.trace, "a", encoding="utf-8") as handle:
            tracer.write_jsonl(handle, args.stream_index)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
