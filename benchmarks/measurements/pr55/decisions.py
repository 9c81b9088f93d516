"""A decision census of the ``subscribed_durable`` pool, per query shape:
decisions, the ones a trigger summary answered, ``affects`` calls and
the ones that answered yes, full refreshes, and the pattern matches
(``EdgePattern.matches`` calls) the decisions made.

    python3 decisions.py CHECKOUT [--assert-summary] [--per-sub FILE]

Replays every stream of the e2e ``subscribed_durable`` pool (generated
into CHECKOUT's ``benchmarks/e2e/.cache`` on first use) in this process
against CHECKOUT's ``src/``, with the header's standing subscriptions
and no WAL or changefeed, as ``../pr52/decisions.py`` does.  The walk is
counted by wrapping ``engine.affects``; a decision ``affects`` did not
make was answered by the subscription's summary (no event of the pool
is coarse and every subscription holds a cache at rest).  Every
subscription is checked against a fresh read at the end of its stream.

``--assert-summary`` wraps ``SubscriptionRegistry.apply_batched``
instead of ``_apply_event`` (a summary miss no longer reaches that
method): before each event it re-makes, uncounted, the decision of
every subscription whose summary the event misses with ``affects``, and
checks that it is a skip.  ``--per-sub FILE`` writes every
subscription's ``skips`` and ``full_refreshes`` per stream as JSON, for
a ``diff`` of two checkouts.
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
    parser.add_argument("--per-sub")
    args = parser.parse_args()
    checkout = pathlib.Path(args.checkout).resolve()
    sys.path.insert(0, str(checkout / "benchmarks" / "e2e"))
    sys.path.insert(0, str(checkout / "src"))
    import workloads
    from repro import ViewConfig, open_view
    from repro.subscribe import deps, engine
    from repro.workloads import named_workload

    decide = engine.affects
    shape_by_profile = {}
    walks = {shape: [0, 0] for shape in SHAPES}
    counting = {"on": True}
    matched = {"calls": 0}

    def counted(profile, *rest):
        answer = decide(profile, *rest)
        if counting["on"]:
            tally = walks[shape_by_profile[id(profile)]]
            tally[0] += 1
            tally[1] += bool(answer)
        return answer

    engine.affects = counted
    matches = deps.EdgePattern.matches

    def counted_matches(pattern, rec):
        if counting["on"]:
            matched["calls"] += 1
        return matches(pattern, rec)

    deps.EdgePattern.matches = counted_matches
    checked = 0
    if args.assert_summary:
        apply_batched = engine.SubscriptionRegistry.apply_batched

        def checked_apply(self, event):
            nonlocal checked
            counting["on"] = False
            evaluator = self.updater.evaluator()
            digest = deps.EventDigest(event.edges, evaluator.reach)
            for sub in list(self._subs):
                if (
                    sub._triggers is not None
                    and not sub._triggers.meets(digest)
                ):
                    assert not decide(
                        sub.profile, event, sub._contexts, evaluator
                    ), sub.path
                    checked += 1
            counting["on"] = True
            return apply_batched(self, event)

        engine.SubscriptionRegistry.apply_batched = checked_apply

    workload = workloads.by_name("subscribed_durable")
    tally = {shape: [0, 0, 0] for shape in SHAPES}
    per_sub = []
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
            stats = sub.stats
            counts = tally[shape_of(sub.path)]
            counts[0] += 1
            counts[1] += stats["skips"]
            counts[2] += stats["full_refreshes"]
            per_sub.append([stream, sub.path, stats["skips"],
                            stats["full_refreshes"], stats["coarse_fallbacks"]])
            if sub.result() != tuple(sorted(service.xpath(sub.path).targets)):
                raise SystemExit(f"subscription {sub.path} diverged")
        counting["on"] = True
    commit = subprocess.run(
        ["git", "-C", str(checkout), "describe", "--always", "--dirty"],
        capture_output=True, text=True,
    ).stdout.strip()
    print(f"commit {commit or '?'}: subscribed_durable pool, "
          f"{workload.pool} streams, {workload.subscriptions} subscriptions, "
          f"{commits} commits")
    print("%-13s %5s %9s %8s %7s %5s %8s %6s" % (
        "shape", "subs", "decisions", "summary", "affects", "yes", "skips",
        "full"))
    row = "%-13s %5d %9d %8d %7d %5d %8d %6d"
    total = [0] * 7
    for shape, (subs, skips, full) in tally.items():
        decisions = skips + full
        cells = (subs, decisions, decisions - walks[shape][0],
                 *walks[shape], skips, full)
        total = [t + c for t, c in zip(total, cells)]
        print(row % (shape, *cells))
    print(row % ("all", *total))
    print(f"skip ratio {total[5] / total[1]:.4f}, "
          f"full refreshes per commit {total[6] / commits:.4f}")
    print(f"EdgePattern.matches calls: {matched['calls']}")
    if args.assert_summary:
        print(f"summary skips re-made by affects: {checked}, all skips")
    if args.per_sub:
        pathlib.Path(args.per_sub).write_text(
            json.dumps(per_sub, indent=0) + "\n"
        )


if __name__ == "__main__":
    main()
