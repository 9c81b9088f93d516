"""Per-commit subscription time and decisions over ``subscribed_durable``,
split by query shape.

    python3 sub_shapes.py CHECKOUT [--subscriptions N] [--repeat R]

``../pr31/sub_shapes.py`` split three ways: W1 (``//cnode[key=a]//cnode
[key=b]``, every leading ``//``), W3 (the ``and`` chain
``cnode[key=a and sub/cnode]/sub/cnode[key=b]``) and W2 (the other
anchored paths).  It also counts the refreshes that changed a result.

Replays every stream of the e2e ``subscribed_durable`` pool (generated
into CHECKOUT's ``benchmarks/e2e/.cache`` on first use) in this process
against CHECKOUT's ``src/``, with the header's standing subscriptions
and no WAL or changefeed.  Each subscription's maintenance action per
commit (``SubscriptionRegistry._apply_event``: the decision plus any
refresh) is timed, and the totals are printed per query shape as ms
per commit, with the action counts of the subscriptions of that shape
and how many of its refreshes changed the result (``changed``).  ``--subscriptions 256`` stands up 256
header subscriptions instead of the workload's 32 (the streams are then
generated under that header).  ``--repeat`` replays the pool R times
(default 3) and keeps, per shape, the fastest pass; the counts are the
same on every pass.  Run it once per checkout to compare two of them.
"""
import argparse
import dataclasses
import gc
import json
import pathlib
import subprocess
import sys
from time import perf_counter

ACTIONS = ("skips", "suffix_refreshes", "full_refreshes", "fallback_refreshes")


def shape_of(path):
    if path.startswith("//"):
        return "W1 //a//b"
    return "W3 and-chain" if " and " in path else "W2"


def replay(workloads, workload, open_view, ViewConfig, named_workload):
    """One pass over the pool: seconds and action counts per shape."""
    seconds, counts, subs_of, changed, commits = {}, {}, {}, {}, 0
    for stream in range(workload.pool):
        path, _ = workloads.ensure_stream(workload, stream)
        with open(path, encoding="utf-8") as handle:
            header = json.loads(handle.readline())
            calls = [json.loads(line) for line in handle]
        atg, db = named_workload(header["params"]["workload"])
        service = open_view(atg, db, config=ViewConfig(strict=False))
        subs = [service.subscribe(q) for q in header["subscriptions"]]
        registry = service.subscriptions
        apply_event = registry._apply_event

        def timed(sub, event, *rest, _apply=apply_event):
            old = sub._nodes
            start = perf_counter()
            _apply(sub, event, *rest)
            shape = shape_of(sub.path)
            seconds[shape] = seconds.get(shape, 0.0) + perf_counter() - start
            changed[shape] = changed.get(shape, 0) + (sub._nodes != old)

        registry._apply_event = timed
        gc.collect()
        before = service.stats()["pipeline"]["commits"]
        for call in calls:
            if call["op"] != "read":
                service.apply(call)
        commits += service.stats()["pipeline"]["commits"] - before
        for sub in subs:
            shape = shape_of(sub.path)
            subs_of[shape] = subs_of.get(shape, 0) + 1
            tally = counts.setdefault(shape, dict.fromkeys(ACTIONS, 0))
            for key in ACTIONS:
                tally[key] += sub.stats.get(key, 0)
            if sub.result() != tuple(sorted(service.xpath(sub.path).targets)):
                raise SystemExit(f"subscription {sub.path} diverged")
    return seconds, counts, subs_of, changed, commits


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout")
    parser.add_argument("--subscriptions", type=int, default=None)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    checkout = pathlib.Path(args.checkout).resolve()
    sys.path.insert(0, str(checkout / "benchmarks" / "e2e"))
    sys.path.insert(0, str(checkout / "src"))
    import workloads
    from repro import ViewConfig, open_view
    from repro.workloads import named_workload

    workload = workloads.by_name("subscribed_durable")
    if args.subscriptions is not None:
        workload = dataclasses.replace(workload, subscriptions=args.subscriptions)
    best = {}
    for _ in range(args.repeat):
        seconds, counts, subs_of, changed, commits = replay(
            workloads, workload, open_view, ViewConfig, named_workload
        )
        for shape, value in seconds.items():
            best[shape] = min(best.get(shape, value), value)
    commit = subprocess.run(
        ["git", "-C", str(checkout), "describe", "--always", "--dirty"],
        capture_output=True, text=True,
    ).stdout.strip()
    print(f"commit {commit or '?'}: subscribed_durable pool, {workload.pool} "
          f"streams, {workload.subscriptions} subscriptions, {commits} "
          f"commits, best of {args.repeat}")
    print("%-13s %5s %10s %8s %8s %9s %8s %10s" % (
        "shape", "subs", "ms/commit", "skips", "full", "fallback", "changed",
        "skip_ratio"))
    for shape in sorted(best):
        tally = counts[shape]
        decided = sum(tally.values())
        print("%-13s %5d %10.3f %8d %8d %9d %8d %10.3f" % (
            shape, subs_of[shape], 1e3 * best[shape] / commits,
            tally["skips"], tally["full_refreshes"],
            tally["fallback_refreshes"], changed.get(shape, 0),
            tally["skips"] / max(decided, 1)))
    total = sum(best.values())
    tally = {k: sum(t[k] for t in counts.values()) for k in ACTIONS}
    decided = sum(tally.values())
    print("%-13s %5d %10.3f %8d %8d %9d %8d %10.3f" % (
        "all", sum(subs_of.values()), 1e3 * total / commits, tally["skips"],
        tally["full_refreshes"], tally["fallback_refreshes"],
        sum(changed.values()), tally["skips"] / max(decided, 1)))


if __name__ == "__main__":
    main()
