"""One write, taken apart, in process, on a repeatable no-op.

Usage: ``python write_split.py CHECKOUT``

Replays ``dense_dag`` stream 0 on ``CHECKOUT/src`` and keeps its first
accepted sharing insert whose ΔV is empty: the edge exists, so applying
it again changes nothing and it can be timed thousands of times.  Prints
the median of 3,000 calls each of

- ``service.apply(call)``, and its ``UpdateOutcome.timings`` by phase;
- ``op_from_dict(call)``, the decode;
- the service's scope + ``plan`` phase timer + op counter, empty;
- ``updater.plan(op).abort()`` and ``updater.plan(op).commit()``, the
  same op without the service around it;
- ``evaluate(path, "insert")`` against ``evaluate_from(path)``: the
  §3.2 ``Ep`` + side-effect walk's share of the xpath phase;

and the Python-level calls (``sys.setprofile``: ``call`` + ``c_call``)
of one ``service.apply``, and the in-degree of the selected ``cnode``.
"""
from __future__ import annotations

import gc
import json
import os
import statistics
import sys
from time import perf_counter

checkout = os.path.abspath(sys.argv[1])
sys.path.insert(0, os.path.join(checkout, "benchmarks", "e2e"))
sys.path.insert(0, os.path.join(checkout, "src"))
import workloads  # noqa: E402
from repro import ViewConfig, open_view  # noqa: E402
from repro.ops import op_from_dict  # noqa: E402
from repro.workloads import named_workload  # noqa: E402
from repro.xpath.parser import parse_xpath  # noqa: E402

path, _ = workloads.ensure_stream(workloads.by_name("dense_dag"), 0)
with open(path, encoding="utf-8") as handle:
    header = json.loads(handle.readline())
    calls = [json.loads(line) for line in handle]
atg, db = named_workload(header["params"]["workload"])
service = open_view(atg, db, config=ViewConfig(strict=False))
noop = None
for call in calls:
    outcome = service.apply(call)
    if noop is None and outcome.accepted and len(outcome.delta_v) == 0:
        noop = call
updater, op = service.updater, op_from_dict(noop)
parsed = parse_xpath(noop["path"])
gc.collect()


def median_us(fn, n=3000):
    times = []
    for _ in range(n):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e6


def wrapper():
    with service.pipeline.scope() as record:
        with record.phase("plan"):
            pass
        service._count_op(outcome)


outcome = service.apply(noop)
phases: dict[str, list[float]] = {}


def timed_apply():
    for phase, seconds in service.apply(noop).timings.items():
        phases.setdefault(phase, []).append(seconds)


rows = {
    "service.apply": median_us(timed_apply),
    "op_from_dict": median_us(lambda: op_from_dict(noop)),
    "scope + plan timer + op counter": median_us(wrapper),
    "updater.plan(op).abort()": median_us(lambda: updater.plan(op).abort()),
    "updater.plan(op).commit()": median_us(lambda: updater.plan(op).commit()),
    'evaluate(path, "insert")': median_us(
        lambda: updater.evaluator().evaluate(parsed, "insert")),
    "evaluate_from(path)": median_us(
        lambda: updater.evaluator().evaluate_from(parsed)),
}
count = [0]


def profile(frame, event, arg):
    if event in ("call", "c_call"):
        count[0] += 1


sys.setprofile(profile)
service.apply(noop)
sys.setprofile(None)
target_cnode = next(iter(service.store.parents_of(
    updater.evaluator().evaluate_from(parsed).targets[0])))
print(f"{checkout}: {noop}, its cnode has "
      f"{len(service.store.parents_of(target_cnode))} parents")
for name, value in rows.items():
    print(f"  {name:34s} {value:7.1f} us")
print("  its timings (medians): " + ", ".join(
    f"{k} {statistics.median(v) * 1e6:.1f}" for k, v in phases.items()) + " us")
print(f"  Python-level calls in one service.apply: {count[0]}")
