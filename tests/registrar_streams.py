"""Generated op streams over the registrar view, and how to apply them.

One generator serves the replica, changefeed and subscription
properties; each picks the op kinds its property covers.  A stream item
is an op, a list of ops (one batch) or ``("abort", op)`` (plan ``op``,
then abort the plan).
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.ops import BaseUpdateOp, DeleteOp, InsertOp, ReplaceOp

OP_KINDS = ("insert", "delete", "replace", "base")
"""One op per item."""
ALL_KINDS = (*OP_KINDS, "batch", "abort")
COURSES = ("CS650", "CS320", "CS240", "CS700", "CS800")


@st.composite
def registrar_streams(draw, kinds=ALL_KINDS):
    """1–6 items, each of a kind drawn from ``kinds``."""
    items = []
    for position in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(kinds))
        cno = draw(st.sampled_from(COURSES))
        other = draw(st.sampled_from(COURSES))
        insert = InsertOp(
            f"//course[cno={cno}]/prereq", "course", (other, f"Title {other}")
        )
        delete = DeleteOp(f"//course[cno={cno}]/prereq/course")
        if kind == "insert":
            items.append(insert)
        elif kind == "delete":
            items.append(delete)
        elif kind == "replace":
            items.append(ReplaceOp(
                f"//course[cno={cno}]/prereq/course", "course",
                (other, f"Title {other}"),
            ))
        elif kind == "base":
            items.append(BaseUpdateOp(ops=(
                ("insert", "course", (f"X{cno}{position}", "Fresh", "CS")),
            )))
        elif kind == "batch":
            items.append([insert, delete])
        else:
            items.append(("abort", insert))
    return items


def apply_item(service, item) -> None:
    """Apply one stream item to ``service``."""
    if isinstance(item, tuple) and item[0] == "abort":
        plan = service.plan(item[1])
        if plan.accepted:
            plan.abort()
    else:
        service.apply(item)
