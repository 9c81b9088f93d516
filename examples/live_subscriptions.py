"""Live XPath subscriptions: standing queries maintained from ΔV deltas.

Demonstrates the subscription engine on the registrar example:

1. ``service.subscribe(path)`` registers standing queries and evaluates
   them once, eagerly;
2. every committed operation emits a structured ΔV event; per query the
   engine either *skips* it (dependency-disjoint change) or re-evaluates
   the query from the root, seeded like every read;
3. ``sub.result()`` — a sorted tuple of view node ids — always equals a
   fresh ``service.xpath()`` evaluation, without re-running the query.

Run:  python examples/live_subscriptions.py
(exits 1 if any subscription differs from a fresh ``xpath()``)
"""

import sys

from repro import BaseUpdateOp, DeleteOp, InsertOp, open_view
from repro.workloads.registrar import build_registrar

QUERIES = (
    "course[cno=CS650]/prereq/course",   # anchored: refreshed when hit
    "course[cno=CS240]/takenBy/student", # anchored: mostly skipped
    "//course",                          # descendant: re-evaluated
)


def show(service, subs, title) -> int:
    """Print every subscription; return how many differ from xpath()."""
    print(f"\n=== {title} " + "=" * max(0, 56 - len(title)))
    drifted = 0
    for sub in subs:
        nodes = sub.result()
        labels = [
            f"{service.store.type_of(n)}{service.store.sem_of(n)}"
            for n in nodes
        ]
        fresh = tuple(sorted(service.xpath(sub.path).targets))
        marker = "==" if nodes == fresh else "!="
        drifted += nodes != fresh
        print(f"  {sub.path:<38} -> {len(nodes)} node(s) "
              f"[{marker} fresh xpath()]")
        for label in labels[:4]:
            print(f"      {label}")
    return drifted


def main() -> int:
    atg, db = build_registrar()
    service = open_view(atg, db)
    subs = [service.subscribe(q) for q in QUERIES]
    drifted = show(service, subs, "Eager initial evaluation")

    service.apply(DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"))
    drifted += show(service, subs, "After deleting CS320 from CS650's prereq")

    service.apply([
        InsertOp("course[cno=CS650]/prereq", "course",
                 ("CS500", "Operating Systems")),
        InsertOp(".", "course", ("CS700", "Theory")),
    ])
    drifted += show(service, subs, "After one batched insert session")

    # A base-table update propagates into the view as a fine-grained
    # event: the prereq subscription skips it; the takenBy one and the
    # ``//`` one (whose region every edge reaches) are re-evaluated.
    service.apply(BaseUpdateOp(ops=(
        ("insert", "enroll", ("S02", "CS240")),
    )))
    drifted += show(service, subs, "After a base-table enroll insert")

    print("\nEngine statistics (skip, or re-evaluate from the root):")
    for key, value in sorted(service.subscriptions.stats().items()):
        if key != "publish_seconds":
            print(f"  {key:>20}: {value}")
    if drifted:
        print(f"\n{drifted} subscription result(s) differ from xpath()")
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main())
