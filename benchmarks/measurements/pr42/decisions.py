"""Count the decision work of the ``subscribed_durable`` pool per query
shape: ``first_affected_step`` calls, ``seed_members`` calls, skips and
full refreshes.

    python3 decisions.py CHECKOUT [--assert-summary]

Replays every stream of the e2e ``subscribed_durable`` pool (generated
into CHECKOUT's ``benchmarks/e2e/.cache`` on first use) in this process
against CHECKOUT's ``src/``, with the header's standing subscriptions
and no WAL or changefeed, as ``../pr37/sub_shapes.py`` does.  Both
functions are counted by wrapping the names the engine and the decision
call, so the script runs unchanged on a checkout without trigger
summaries.  Every subscription is checked against a fresh read at the
end of its stream.

``--assert-summary`` also checks the summary against the scan: every
decision the summary answers is re-made by ``first_affected_step``
(uncounted), and must be a skip.
"""
import argparse
import json
import pathlib
import subprocess
import sys

SHAPES = ("W1 //a//b", "W2", "W3 and-chain")


def shape_of(path):
    if path.startswith("//"):
        return SHAPES[0]
    return SHAPES[2] if " and " in path else SHAPES[1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout")
    parser.add_argument("--assert-summary", action="store_true")
    args = parser.parse_args()
    checkout = pathlib.Path(args.checkout).resolve()
    sys.path.insert(0, str(checkout / "benchmarks" / "e2e"))
    sys.path.insert(0, str(checkout / "src"))
    import workloads
    from repro import ViewConfig, open_view
    from repro.core.dag_eval import DagXPathEvaluator
    from repro.subscribe import engine
    from repro.workloads import named_workload

    shape_by_profile = {}
    calls = dict.fromkeys(SHAPES, 0)
    seeds = {"calls": 0}
    counting = {"on": True}
    scan = engine.first_affected_step

    def first_affected_step(profile, *rest):
        if counting["on"]:
            calls[shape_by_profile[id(profile)]] += 1
        return scan(profile, *rest)

    engine.first_affected_step = first_affected_step
    seed_members = DagXPathEvaluator.seed_members

    def counted_seed_members(self, *rest):
        if counting["on"]:
            seeds["calls"] += 1
        return seed_members(self, *rest)

    DagXPathEvaluator.seed_members = counted_seed_members
    checked = 0
    if args.assert_summary:
        apply_event = engine.SubscriptionRegistry._apply_event

        def checked_apply(self, sub, event, evaluator, digest=None):
            nonlocal checked
            triggers = sub._triggers
            if (
                digest is not None
                and triggers is not None
                and not triggers.meets(digest)
            ):
                counting["on"] = False
                assert scan(
                    sub.profile, event, sub._contexts, evaluator
                ) is None, sub.path
                counting["on"] = True
                checked += 1
            apply_event(self, sub, event, evaluator, digest)

        engine.SubscriptionRegistry._apply_event = checked_apply

    workload = workloads.by_name("subscribed_durable")
    tally = {shape: [0, 0, 0] for shape in SHAPES}
    commits = 0
    for stream in range(workload.pool):
        path, _ = workloads.ensure_stream(workload, stream)
        with open(path, encoding="utf-8") as handle:
            header = json.loads(handle.readline())
            ops = [json.loads(line) for line in handle]
        atg, db = named_workload(header["params"]["workload"])
        service = open_view(atg, db, config=ViewConfig(strict=False))
        subs = [service.subscribe(q) for q in header["subscriptions"]]
        for sub in subs:
            shape_by_profile[id(sub.profile)] = shape_of(sub.path)
        before = service.stats()["pipeline"]["commits"]
        for op in ops:
            if op["op"] != "read":
                service.apply(op)
        commits += service.stats()["pipeline"]["commits"] - before
        counting["on"] = False
        for sub in subs:
            counts = tally[shape_of(sub.path)]
            counts[0] += 1
            counts[1] += sub.stats["skips"]
            counts[2] += sub.stats["full_refreshes"]
            if sub.result() != tuple(sorted(service.xpath(sub.path).targets)):
                raise SystemExit(f"subscription {sub.path} diverged")
        counting["on"] = True
    commit = subprocess.run(
        ["git", "-C", str(checkout), "describe", "--always", "--dirty"],
        capture_output=True, text=True,
    ).stdout.strip()
    print(f"commit {commit or '?'}: subscribed_durable pool, {workload.pool} "
          f"streams, {workload.subscriptions} subscriptions, {commits} commits")
    print("%-13s %5s %9s %8s %8s %8s" % (
        "shape", "subs", "decisions", "scans", "skips", "full"))
    for shape, (subs, skips, full) in tally.items():
        print("%-13s %5d %9d %8d %8d %8d" % (
            shape, subs, skips + full, calls[shape], skips, full))
    total = [sum(t[i] for t in tally.values()) for i in range(3)]
    print("%-13s %5d %9d %8d %8d %8d" % (
        "all", total[0], total[1] + total[2], sum(calls.values()),
        total[1], total[2]))
    print(f"seed_members calls: {seeds['calls']}")
    if args.assert_summary:
        print(f"summary skips re-checked by first_affected_step: {checked}, "
              "all None")


if __name__ == "__main__":
    main()
