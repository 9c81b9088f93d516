"""Where a write's wall time goes, in process, over an e2e pool.

Usage: ``python loop_cost.py CHECKOUT WORKLOAD [REPEATS]``

Replays every cached stream of ``WORKLOAD``'s pool against
``CHECKOUT/src`` (one fresh service per stream, ``gc.collect()`` before
each timed loop, as ``benchmarks/e2e/worker.py`` does) and prints, per
write, the mean wall time of ``ViewService.apply``, the part inside
``UpdateOutcome.timings`` and the rest (the wrapper: decode, scope,
lock, parse, counters), plus the mean read and the share of writes and
reads whose path text the stream had not sent before ("fresh").
``REPEATS`` (default 3) replays the pool that many times and reports
the best mean of each column.
"""
from __future__ import annotations

import gc
import json
import os
import statistics
import sys
from time import perf_counter

checkout = os.path.abspath(sys.argv[1])
workload_name = sys.argv[2]
repeats = int(sys.argv[3]) if len(sys.argv) > 3 else 3
sys.path.insert(0, os.path.join(checkout, "benchmarks", "e2e"))
sys.path.insert(0, os.path.join(checkout, "src"))
import workloads  # noqa: E402
from repro import ViewConfig, open_view  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.workloads import named_workload  # noqa: E402
import repro.core.dag_eval  # noqa: E402
import repro.xpath.parser  # noqa: E402


def clear_process_caches():
    """Each e2e stream runs in a fresh process: start every stream with
    the module-level parse and compile caches empty."""
    for module in (repro.xpath.parser, repro.core.dag_eval):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()

workload = workloads.by_name(workload_name)
streams = []
for index in range(workload.pool):
    path, _ = workloads.ensure_stream(workload, index)
    with open(path, encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        streams.append((header, [json.loads(line) for line in handle]))

fresh_writes = fresh_reads = n_writes = n_reads = 0
for header, calls in streams:
    seen = set()
    for call in calls:
        text = call.get("path")
        fresh = text is not None and text not in seen
        seen.add(text)
        if call["op"] == "read":
            n_reads += 1
            fresh_reads += fresh
        else:
            n_writes += 1
            fresh_writes += fresh


def replay():
    write_s = inside_s = read_s = 0.0
    for header, calls in streams:
        clear_process_caches()
        config = ViewConfig(strict=False)
        atg, db = named_workload(header["params"]["workload"])
        service = open_view(atg, db, config=config)
        for sub_path in header["subscriptions"]:
            service.subscribe(sub_path)
        if workload.durable:  # no WAL here: the loop, not the disk
            service.changefeed(on_event=lambda event: None)
        gc.collect()
        for call in calls:
            t0 = perf_counter()
            try:
                if call["op"] == "read":
                    service.xpath(call["path"])
                    read_s += perf_counter() - t0
                    continue
                outcome = service.apply(call)
            except ReproError:
                continue
            write_s += perf_counter() - t0
            inside_s += sum(outcome.timings.values())
    return write_s, inside_s, read_s


best = [float("inf")] * 3
for _ in range(repeats):
    for i, value in enumerate(replay()):
        best[i] = min(best[i], value)
write_s, inside_s, read_s = best
us = 1e6
print(f"{workload_name} @ {checkout}")
print(f"  writes {n_writes}  fresh-text share {fresh_writes / n_writes:.2f}")
print(f"  write mean {write_s / n_writes * us:.1f} us: inside timings "
      f"{inside_s / n_writes * us:.1f}, outside {(write_s - inside_s) / n_writes * us:.1f}")
if n_reads:
    print(f"  reads {n_reads}  fresh-text share {fresh_reads / n_reads:.3f}  "
          f"read mean {read_s / n_reads * us:.1f} us")
