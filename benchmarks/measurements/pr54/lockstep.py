"""Lockstep A/B of two checkouts in one process, op by op.

    python3 lockstep.py PARENT CHANGE WORKLOAD [SEED] [SECONDS] [--split]

One process imports ``repro`` from each checkout's ``src/`` (each copy
keeps its own modules; ``sys.modules`` is switched to a copy's set
before every call into it), opens one service per copy for every
stream of an e2e run of WORKLOAD (the streams ``run.py`` would apply
for SEED and SECONDS, generated by CHANGE's ``benchmarks/e2e``), and
applies every op to both, alternating which copy goes first within
each op kind: ``read_mostly`` writes every tenth op, so alternating by
op index would run every write on the same copy first.  Both
services have the stream's subscriptions; a durable workload writes a
WAL per copy.  So the two copies see the same machine at the same
moments, and the ratio of their loop times is free of the drift that
separates two runs.

After each stream it checks that the store digests, ``L``, every
outcome (accepted, ΔV edges, ΔR rows, read targets) and ``M`` agree,
and that each copy's ``M`` equals a fresh Algorithm Reach on its store
(``SetReachabilityIndex``, every row stored).  It prints, per stream
and in total, the loop seconds of each copy, change / parent, and the
change / parent ratio of the op medians.

``--split`` also times, per copy, the Δ(M,L) entry points and the
index and ``L`` steps under them (each copy's own functions, wrapped),
and the loop per op kind; the collector is off during the loop then, so
a collection's pause is not charged to whichever call it lands in.
"""

from __future__ import annotations

import gc
import importlib
import json
import pkgutil
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter


def _ours(name: str) -> bool:
    return name == "repro" or name.startswith("repro.")


def load(checkout: str) -> dict:
    """Every module of ``checkout``'s ``repro``, imported, as a
    ``sys.modules`` slice (removed from ``sys.modules`` again)."""
    for name in [n for n in sys.modules if _ours(n)]:
        del sys.modules[name]
    src = str(Path(checkout) / "src")
    sys.path.insert(0, src)
    try:
        package = importlib.import_module("repro")
        for info in pkgutil.walk_packages(package.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        modules = {n: m for n, m in sys.modules.items() if _ours(n)}
    finally:
        sys.path.remove(src)
        for name in [n for n in sys.modules if _ours(n)]:
            del sys.modules[name]
    return modules


def activate(modules: dict) -> None:
    for name in [n for n in sys.modules if _ours(n)]:
        del sys.modules[name]
    sys.modules.update(modules)


SPLIT = (
    ("repro.core.maintenance", None, "maintain_delete"),
    ("repro.core.maintenance", None, "maintain_insert"),
    ("repro.index.bitset", "BitsetReachabilityIndex", "retain_below"),
    ("repro.index.bitset", "BitsetReachabilityIndex", "add_closure_below"),
    ("repro.core.topo", "TopoOrder", "remove_many"),
    ("repro.core.topo", "TopoOrder", "swap"),
)


def time_split(name: str, modules: dict, spent: dict) -> None:
    """Wrap ``SPLIT`` in ``modules`` (the updater calls the maintenance
    functions by the names it imported, so those are rebound too)."""
    for module, cls, function in SPLIT:
        owner = modules[module]
        if cls is not None:
            owner = getattr(owner, cls)
        real = getattr(owner, function)

        def timed(*args, real=real, key=function, **kwargs):
            start = perf_counter()
            try:
                return real(*args, **kwargs)
            finally:
                spent.setdefault(key, {"parent": 0.0, "change": 0.0})[name] += (
                    perf_counter() - start
                )

        setattr(owner, function, timed)
        if cls is None:
            setattr(modules["repro.core.updater"], function, timed)


class Side:
    """One copy's service for one stream."""

    def __init__(self, modules, dataset, header, wal_dir):
        self.modules = modules
        activate(modules)
        repro = modules["repro"]
        workloads = modules["repro.workloads"]
        config = repro.ViewConfig(strict=False)
        if wal_dir is not None:
            config = repro.ViewConfig(strict=False, wal_dir=wal_dir, wal_fsync="batch")
        self.error = modules["repro.errors"].ReproError
        self.service = repro.open_view(*workloads.named_workload(dataset), config=config)
        self.subs = [self.service.subscribe(p) for p in header["subscriptions"]]
        if wal_dir is not None:
            self.service.changefeed(on_event=lambda event: None)
        self.elapsed: list[float] = []
        self.outcomes: list = []

    def call(self, call) -> None:
        activate(self.modules)
        service = self.service
        start = perf_counter()
        try:
            if call["op"] == "read":
                result = service.xpath(call["path"])
                self.elapsed.append(perf_counter() - start)
                self.outcomes.append(("read", sorted(result.targets)))
            else:
                outcome = service.apply(call)
                self.elapsed.append(perf_counter() - start)
                self.outcomes.append((
                    outcome.accepted,
                    [(op.kind, op.parent, op.child) for op in outcome.delta_v or ()],
                    [(r.kind, r.relation, r.row) for r in outcome.delta_r or ()],
                ))
        except self.error as exc:
            self.elapsed.append(perf_counter() - start)
            self.outcomes.append(("error", str(exc)))

    def check(self) -> list[str]:
        activate(self.modules)
        updater = self.service.updater
        paper = self.modules["repro.baselines"].SetReachabilityIndex()
        paper.recompute(updater.store, updater.topo)
        problems = list(self.service.check_consistency())
        if set(updater.reach.pairs()) != set(paper.pairs()):
            problems.append("M differs from a fresh Algorithm Reach")
        if len(updater.reach) != len(paper):
            problems.append("|M| differs from a fresh Algorithm Reach")
        return problems

    def close(self) -> None:
        activate(self.modules)
        self.service.close()


def main() -> None:
    split = "--split" in sys.argv
    args = [a for a in sys.argv[1:] if a != "--split"]
    parent, change, workload_name = args[:3]
    seed = int(args[3]) if len(args) > 3 else 42
    seconds = float(args[4]) if len(args) > 4 else 15.0
    sys.path.insert(0, str(Path(change) / "benchmarks" / "e2e"))
    import workloads  # the harness's stream cache, not repro.workloads

    sides = {"parent": load(parent), "change": load(change)}
    spent: dict = {}
    kinds: dict = {}
    workload = workloads.by_name(workload_name)
    # The generator runs on the change's copy, before anything is timed.
    activate(sides["change"])
    paths = {
        stream: workloads.ensure_stream(workload, stream)[0]
        for stream in workloads.streams_of_run(workload, seed, seconds)
    }
    if split:
        for name, modules in sides.items():
            time_split(name, modules, spent)
    totals = {"parent": [], "change": []}
    problems: list[str] = []
    for stream, path in paths.items():
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        calls = [json.loads(line) for line in lines[1:]]
        dataset = header["params"]["workload"]
        scratch = {}
        runs = {}
        for name, modules in sides.items():
            wal = None
            if workload.durable:
                wal = scratch[name] = tempfile.mkdtemp(prefix=f"lockstep-{name}-")
            runs[name] = Side(modules, dataset, header, wal)
        gc.collect()
        if split:
            gc.disable()
        order = [runs["parent"], runs["change"]]
        turns: dict = {}
        for call in calls:
            turn = turns[call["op"]] = turns.get(call["op"], -1) + 1
            for side in order if turn % 2 == 0 else order[::-1]:
                side.call(call)
        gc.enable()
        a, b = runs["parent"], runs["change"]
        for call, ta, tb in zip(calls, a.elapsed, b.elapsed):
            kind = kinds.setdefault(call["op"], [0.0, 0.0])
            kind[0] += ta
            kind[1] += tb
        for name, side in runs.items():
            problems += [f"stream {stream} {name}: {p}" for p in side.check()]
        activate(a.modules)
        digest_a = a.service.store.digest()
        topo_a = a.service.updater.topo.as_list()
        activate(b.modules)
        if digest_a != b.service.store.digest():
            problems.append(f"stream {stream}: store digests differ")
        if topo_a != b.service.updater.topo.as_list():
            problems.append(f"stream {stream}: L differs")
        if a.outcomes != b.outcomes:
            problems.append(f"stream {stream}: outcomes differ")
        for name, side in runs.items():
            side.close()
            totals[name].extend(side.elapsed)
        for wal in scratch.values():
            shutil.rmtree(wal, ignore_errors=True)
        loop_a, loop_b = sum(a.elapsed), sum(b.elapsed)
        print(
            f"{workload_name} stream {stream}: {len(calls)} ops, loop parent "
            f"{loop_a * 1e3:.1f} ms, change {loop_b * 1e3:.1f} ms, "
            f"change/parent {loop_b / loop_a:.3f}",
            flush=True,
        )
    loop_a, loop_b = sum(totals["parent"]), sum(totals["change"])
    p50_a = statistics.median(totals["parent"])
    p50_b = statistics.median(totals["change"])
    print(
        f"{workload_name} seed {seed}: loop parent {loop_a:.3f} s, change "
        f"{loop_b:.3f} s, change/parent {loop_b / loop_a:.3f}; op p50 "
        f"{p50_a * 1e3:.4f} -> {p50_b * 1e3:.4f} ms "
        f"({p50_b / p50_a:.3f}); {'OK' if not problems else 'PROBLEMS'}"
    )
    for problem in problems:
        print("  " + problem)
    if split:
        for kind, (ta, tb) in sorted(kinds.items()):
            print(f"  {kind + ' ops':20s} parent {ta * 1e3:8.1f} ms  change "
                  f"{tb * 1e3:8.1f} ms  {tb / ta:.3f}")
        for key, times in spent.items():
            ta, tb = times["parent"], times["change"]
            print(f"  {key:20s} parent {ta * 1e3:8.1f} ms  change "
                  f"{tb * 1e3:8.1f} ms  {tb / ta if ta else float('nan'):.3f}")


if __name__ == "__main__":
    main()
