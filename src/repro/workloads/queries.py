"""Update workloads W1/W2/W3 over the synthetic dataset (Section 5).

The paper's three classes, ten operations each:

- **W1** — XPath with ``//`` and value-based filters
  (``//cnode[key=A]//cnode[key=B]``);
- **W2** — XPath with ``/`` and value-based filters
  (``cnode[key=A]/sub/cnode[key=B]``);
- **W3** — XPath with ``/`` plus structural *and* value filters
  (``cnode[key=A and sub/cnode]/sub/cnode[key=B]``).

Deletion workloads use the paths directly; insertion workloads append
``/sub`` and insert a ``cnode`` subtree — by default an *existing* C key
(a sharing insert: only an ``H`` tuple is new), with a configurable
fraction of brand-new keys that exercise the SAT translation (and may be
rejected, as 22% of the paper's runs were).  Replacement workloads swap
the selected ``cnode`` for another one in a single composite operation.

Workloads are emitted as the typed operations of :mod:`repro.ops`
(``InsertOp`` / ``DeleteOp`` / ``ReplaceOp``), so a driver feeds them
straight into ``service.apply(op)`` — no per-kind dispatch.

:func:`make_query_set` / :data:`REGISTRAR_QUERIES` provide the *read*
side: diverse XPath sets over the same datasets, used as standing
queries by the subscription engine
(:meth:`repro.service.ViewService.subscribe`) and its benchmarks —
value-anchored paths whose per-step dependencies let the engine skip
unrelated ops: ``/``-paths, and a few ``//`` paths whose seeded levels
and regions the engine re-reads after each commit.
"""

from __future__ import annotations

import random

from repro.ops import DeleteOp, InsertOp, ReplaceOp, UpdateOperation
from repro.workloads.synthetic import SyntheticDataset


def _children(dataset: SyntheticDataset, key: int) -> list[int]:
    """Passing child keys of ``key`` in the published hierarchy."""
    rows = dataset.db.table("H").lookup(("h1",), (key,))
    return sorted(h2 for _, h2 in rows if h2 in dataset.passing)


def _descendant_pairs(
    dataset: SyntheticDataset, rng: random.Random, want: int
) -> list[tuple[int, int]]:
    """(ancestor, strict descendant ≥2 levels down) pairs in the view."""
    pairs: list[tuple[int, int]] = []
    tops = sorted(dataset.top_level)
    rng.shuffle(tops)
    for top in tops:
        frontier = _children(dataset, top)
        depth = 0
        while frontier and depth < 4:
            depth += 1
            nxt: list[int] = []
            for node in frontier:
                nxt.extend(_children(dataset, node))
            frontier = sorted(set(nxt))
            if depth >= 2 and frontier:
                pairs.append((top, rng.choice(frontier)))
                break
        if len(pairs) >= want:
            break
    return pairs


def _parent_child_pairs(
    dataset: SyntheticDataset, rng: random.Random, want: int
) -> list[tuple[int, int]]:
    pairs: list[tuple[int, int]] = []
    tops = sorted(dataset.top_level)
    rng.shuffle(tops)
    for top in tops:
        children = _children(dataset, top)
        if children:
            pairs.append((top, rng.choice(children)))
        if len(pairs) >= want:
            break
    return pairs


def _payload_of(dataset: SyntheticDataset, key: int) -> str:
    row = dataset.db.table("C").get((key,))
    assert row is not None
    return row[4]


def make_workload(
    dataset: SyntheticDataset,
    kind: str,
    cls: str,
    count: int = 10,
    seed: int = 1,
    new_key_fraction: float = 0.3,
) -> list[UpdateOperation]:
    """Generate ``count`` typed operations of class ``cls``.

    ``kind`` is ``'insert'``, ``'delete'`` or ``'replace'``; the result
    is a list of :class:`~repro.ops.InsertOp` /
    :class:`~repro.ops.DeleteOp` / :class:`~repro.ops.ReplaceOp`.
    """
    # Deterministic per (seed, class): str hashes are randomized per
    # process, so derive the class salt from code points instead.
    cls_salt = sum(ord(ch) * (i + 1) for i, ch in enumerate(cls))
    rng = random.Random(seed * 1000 + cls_salt)
    if cls == "W1":
        pairs = _descendant_pairs(dataset, rng, count)
        paths = [f"//cnode[key={a}]//cnode[key={b}]" for a, b in pairs]
    elif cls == "W2":
        pairs = _parent_child_pairs(dataset, rng, count)
        paths = [f"cnode[key={a}]/sub/cnode[key={b}]" for a, b in pairs]
    elif cls == "W3":
        pairs = _parent_child_pairs(dataset, rng, count)
        paths = [
            f"cnode[key={a} and sub/cnode]/sub/cnode[key={b}]"
            for a, b in pairs
        ]
    else:
        raise ValueError(f"unknown workload class {cls!r}")

    if kind == "delete":
        return [DeleteOp(path) for path in paths[:count]]
    if kind not in ("insert", "replace"):
        raise ValueError(f"unknown workload kind {kind!r}")

    ops: list[UpdateOperation] = []
    next_new_key = dataset.config.n_c + 1000
    for index, path in enumerate(paths[:count]):
        if rng.random() < new_key_fraction:
            key = next_new_key + index
            sem = (key, f"new{index}")
        else:
            key = rng.choice(sorted(dataset.passing))
            sem = (key, _payload_of(dataset, key))
        if kind == "insert":
            ops.append(InsertOp(f"{path}/sub", element="cnode", sem=sem))
        else:
            ops.append(ReplaceOp(path, element="cnode", sem=sem))
    return ops


#: Standing queries over the registrar view (Example 1): value-anchored
#: child paths plus two ``//`` paths, the shapes the subscription
#: engine's skip / suffix / full decisions distinguish.
REGISTRAR_QUERIES = (
    "course[cno=CS650]/prereq/course",
    "course[cno=CS650]/prereq/course[cno=CS320]",
    "course[cno=CS320]/prereq/course",
    "course[cno=CS240]",
    "course[cno=CS650]/takenBy/student",
    "course[cno=CS240]/takenBy/student[ssn=S02]",
    "course[prereq/course]/takenBy",
    "//course",
    "//student[ssn=S02]",
)


def registrar_op_stream() -> list[UpdateOperation]:
    """A short all-accepted op stream over the registrar seed data.

    One op of every kind, in an order that keeps each accepted against
    :func:`~repro.workloads.registrar.build_registrar`'s instance —
    the canonical demo stream for subscriptions and the changefeed
    (examples, smoke tests, docs).  ``BaseUpdateOp`` rides at the end
    so the rest can be applied as one batch when a caller wants to.
    """
    from repro.ops import BaseUpdateOp

    return [
        DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"),
        InsertOp("course[cno=CS650]/prereq", "course",
                 ("CS500", "Operating Systems")),
        ReplaceOp("course[cno=CS650]/prereq/course[cno=CS500]",
                  "course", ("CS320", "Databases")),
        BaseUpdateOp(ops=(
            ("insert", "course", ("CS901", "Seminar", "CS")),
        )),
    ]


def make_query_set(
    dataset: SyntheticDataset,
    count: int = 12,
    seed: int = 1,
    descendant_fraction: float = 0.25,
) -> list[str]:
    """``count`` standing XPath queries over the synthetic dataset.

    Mirrors the W1/W2/W3 path shapes: roughly ``descendant_fraction``
    of the queries are W1-style ``//`` paths over sampled (ancestor,
    descendant) key pairs, the rest are W2/W3-style anchored ``/`` paths
    over sampled (parent, child) key pairs.  Their value anchors make
    most unrelated updates skippable: a W1 path refreshes only when the
    nodes holding its first key, or the region below them, move.
    """
    rng = random.Random(seed * 7919 + 11)
    pc_pairs = _parent_child_pairs(dataset, rng, count * 2)
    desc_pairs = _descendant_pairs(dataset, rng, count)
    queries: list[str] = []
    want_desc = max(1, int(count * descendant_fraction)) if count else 0
    for a, b in desc_pairs[:want_desc]:
        queries.append(f"//cnode[key={a}]//cnode[key={b}]")
    index = 0
    while len(queries) < count and index < len(pc_pairs):
        a, b = pc_pairs[index]
        index += 1
        shape = index % 3
        if shape == 0:
            queries.append(f"cnode[key={a}]/sub/cnode[key={b}]")
        elif shape == 1:
            queries.append(f"cnode[key={a}]/sub/cnode")
        else:
            queries.append(
                f"cnode[key={a} and sub/cnode]/sub/cnode[key={b}]"
            )
    while len(queries) < count:  # tiny datasets: pad with anchored paths
        key = rng.choice(sorted(dataset.passing))
        queries.append(f"cnode[key={key}]/sub/cnode")
    return queries
