"""Count the decision work of the ``subscribed_durable`` pool: decisions,
walks of the decision, the walks that answered yes, ``seed_members``
calls, skips and full refreshes, per query shape.

    python3 decisions.py CHECKOUT [--assert-summary]

Replays every stream of the e2e ``subscribed_durable`` pool (generated
into CHECKOUT's ``benchmarks/e2e/.cache`` on first use) in this process
against CHECKOUT's ``src/``, with the header's standing subscriptions
and no WAL or changefeed, as ``../pr42/decisions.py`` does.  The
decision is counted by wrapping the name the engine calls:
``engine.affects`` (a bool), or ``engine.first_affected_step`` (a step
index, ``None`` to skip) on a checkout that predates it.  Every
subscription is checked against a fresh read at the end of its stream.

``--assert-summary`` also re-makes, uncounted, every decision a trigger
summary answered and checks that it is a skip.
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

    name = "affects" if hasattr(engine, "affects") else "first_affected_step"
    decide = getattr(engine, name)

    def said_yes(answer):
        return answer if name == "affects" else answer is not None

    shape_by_profile = {}
    walks = {shape: [0, 0] for shape in SHAPES}
    seeds = {"calls": 0}
    counting = {"on": True}

    def counted(profile, *rest):
        answer = decide(profile, *rest)
        if counting["on"]:
            tally = walks[shape_by_profile[id(profile)]]
            tally[0] += 1
            tally[1] += said_yes(answer)
        return answer

    setattr(engine, name, counted)
    seed_members = DagXPathEvaluator.seed_members

    def counted_seed_members(self, *rest):
        if counting["on"]:
            seeds["calls"] += 1
        return seed_members(self, *rest)

    DagXPathEvaluator.seed_members = counted_seed_members
    checked = 0
    if args.assert_summary:
        apply_event = engine.SubscriptionRegistry._apply_event

        def checked_apply(self, sub, event, evaluator, digest, *rest):
            nonlocal checked
            if (
                digest is not None
                and sub._triggers is not None
                and not sub._triggers.meets(digest)
            ):
                counting["on"] = False
                assert not said_yes(decide(
                    sub.profile, event, sub._contexts, evaluator
                )), sub.path
                counting["on"] = True
                checked += 1
            apply_event(self, sub, event, evaluator, digest, *rest)

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
    print(f"commit {commit or '?'} ({name}): subscribed_durable pool, "
          f"{workload.pool} streams, {workload.subscriptions} subscriptions, "
          f"{commits} commits")
    print("%-13s %5s %9s %7s %5s %8s %6s" % (
        "shape", "subs", "decisions", "walks", "yes", "skips", "full"))
    for shape, (subs, skips, full) in tally.items():
        print("%-13s %5d %9d %7d %5d %8d %6d" % (
            shape, subs, skips + full, *walks[shape], skips, full))
    total = [sum(t[i] for t in tally.values()) for i in range(3)]
    print("%-13s %5d %9d %7d %5d %8d %6d" % (
        "all", total[0], total[1] + total[2],
        sum(w[0] for w in walks.values()), sum(w[1] for w in walks.values()),
        total[1], total[2]))
    print(f"skip ratio {total[1] / (total[1] + total[2]):.4f}, "
          f"full refreshes per commit {total[2] / commits:.4f}")
    print(f"seed_members calls: {seeds['calls']}")
    if args.assert_summary:
        print(f"summary skips re-made by {name}: {checked}, all skips")


if __name__ == "__main__":
    main()
