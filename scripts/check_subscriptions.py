#!/usr/bin/env python3
"""Replay a generated stream with its standing subscriptions and check
every one against a fresh read after every commit.

Usage::

    repro-bench generate --workload synthetic:120 --pattern churn \
        --ops 60 --subscriptions 32 | python scripts/check_subscriptions.py -
    python scripts/check_subscriptions.py stream.jsonl

Reads a ``repro-bench generate`` stream (a file path, or ``-`` for
stdin): the provenance header names the workload and carries the
``subscriptions`` to stand up.  Every write is applied through the
service; after each one, every subscription's ``result()`` must equal
``service.xpath(path)``.  Every 10th commit, and after the last one,
every fresh read is also checked against an oracle outside the DAG
evaluator: ``repro.xpath.tree_eval.evaluate_on_tree`` over the unfolded
view (``service.xml_tree()``), compared by node identity (type, ``$A``).
The skip and refresh counts are printed per query shape — W1
(``//cnode[key=a]//cnode[key=b]``), W3 (the ``and`` chain
``cnode[key=a and sub/cnode]/sub/cnode[key=b]``) and W2 (the other
anchored paths).  The exit status is 1 when a subscription drifted, when
a read disagreed with the tree oracle, or when the W1 or the W3 shape
skipped no event (or has no subscription in the header): their
decisions read the seeded level after a leading ``//`` and a filter
chain's second edge by membership, and a stream that never skips them
means that sharpening is gone.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

# Runnable straight from a checkout (CI does `python scripts/...` before
# an editable install is guaranteed): put src/ on the path if the
# package is not importable yet.
try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - checkout-only convenience
    sys.path.insert(
        0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
    )

from repro import ViewConfig, open_view
from repro.bench.workload_gen import parse_header_line
from repro.workloads import named_workload
from repro.xpath.parser import parse_xpath
from repro.xpath.tree_eval import evaluate_on_tree

SHAPES = ("W1 //a//b", "W2", "W3 and-chain")

#: Commits between two checks of the reads against the tree oracle.
ORACLE_EVERY = 10


def shape_of(path: str) -> str:
    if path.startswith("//"):
        return SHAPES[0]
    return SHAPES[2] if " and " in path else SHAPES[1]


def tree_mismatch(service, paths: list[str]) -> str | None:
    """The first path whose fresh read selects other nodes than
    ``evaluate_on_tree`` does on the unfolded view, described; ``None``
    when every read agrees."""
    store = service.store
    tree = service.xml_tree()
    for path in paths:
        read = {
            (store.type_of(node), store.sem_of(node))
            for node in service.xpath(path).targets
        }
        oracle = {
            node.identity for node in evaluate_on_tree(parse_xpath(path), tree)
        }
        if read != oracle:
            return (
                f"{path}: read selects {sorted(read - oracle, key=repr)} "
                f"beyond the tree oracle and misses "
                f"{sorted(oracle - read, key=repr)}"
            )
    return None


def _lines(source: str) -> list[str]:
    if source == "-":
        return sys.stdin.read().splitlines()
    return pathlib.Path(source).read_text(encoding="utf-8").splitlines()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="check_subscriptions.py",
        description="Check standing subscriptions against fresh reads "
        "over a generated stream.",
    )
    parser.add_argument(
        "stream", help="a repro-bench generate stream, or '-' for stdin"
    )
    args = parser.parse_args(argv)
    lines = [line for line in _lines(args.stream) if line.strip()]
    header = parse_header_line(lines[0]) if lines else None
    if header is None or not header.get("subscriptions"):
        print("no provenance header with subscriptions", file=sys.stderr)
        return 2
    atg, db = named_workload(header["params"]["workload"])
    service = open_view(atg, db, config=ViewConfig(strict=False))
    paths = list(header["subscriptions"])
    subs = [service.subscribe(path) for path in paths]
    writes = [
        (number, call)
        for number, call in enumerate(map(json.loads, lines[1:]), start=2)
        if call.get("op") != "read"
    ]
    oracle_checks = 0
    for commits, (number, call) in enumerate(writes, start=1):
        service.apply(call)
        for sub in subs:
            fresh = tuple(sorted(service.xpath(sub.path).targets))
            if sub.result() != fresh:
                print(
                    f"line {number}: {sub.path} drifted: "
                    f"{sub.result()} != fresh {fresh}",
                    file=sys.stderr,
                )
                return 1
        if commits % ORACLE_EVERY == 0 or commits == len(writes):
            oracle_checks += 1
            mismatch = tree_mismatch(service, paths)
            if mismatch is not None:
                print(f"line {number}: {mismatch}", file=sys.stderr)
                return 1
    tally = {shape: [0, 0, 0] for shape in SHAPES}
    for sub in subs:
        counts = tally[shape_of(sub.path)]
        counts[0] += 1
        counts[1] += sub.stats["skips"]
        counts[2] += sub.stats["full_refreshes"]
    print(f"{len(writes)} commits, {len(subs)} subscriptions, every result "
          "equal to a fresh read after every commit")
    print(f"{oracle_checks} checks of every read against the tree oracle, "
          "all equal")
    print("%-13s %5s %8s %8s" % ("shape", "subs", "skips", "full"))
    for shape, (count, skips, full) in tally.items():
        print("%-13s %5d %8d %8d" % (shape, count, skips, full))
    silent = [shape for shape in (SHAPES[0], SHAPES[2]) if not tally[shape][1]]
    if silent:
        print(f"no skip recorded for: {', '.join(silent)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
