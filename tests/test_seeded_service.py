"""A seeded service and a never-seeding one agree on everything.

Seeding a value-filtered ``label[path = value]`` step changes what the
evaluator walks, never what an op does.  Each generated stream runs
through a service, then again with ``DagXPathEvaluator._seeds`` patched
to return ``{}`` (no level seeds): accept/reject and reason, targets,
side effects, ΔV, ΔR, the store digest, subscription results, read
targets, and the ``Ep`` and side effects an update at each read path
would see must be identical after every op.

The generator writes only ``//cnode[key=N]`` and ``//cnode[key=N]/sub``,
so the streams are rewritten into other shapes, each listed with the
levels it seeds.  Leading ``//`` ones — ``//sub[cnode/key=N]`` (one
value, several targets once N is shared), ``//cnode[key=N]/sub/cnode/sub``
(which meets shared nodes, so side effects) — and anchored ones, seeded
below the root: ``cnode[key=A]/sub/cnode[key=B]`` with A a top-level
cnode on N's path and B in its sub, its ``/sub`` insert (rejected under
``abort`` when B is shared: the anchored path misses B's other
occurrences), every child of A (multi-target), B after ``*`` and after a
``//`` below the root.
``//sub/cnode[key=N]`` keeps the negative: its leading ``sub`` step is
not seeded, only the ``cnode`` one.  The last ops go in as one batch,
whose ops are planned on a repaired ``M`` and so seeded too.
"""

from __future__ import annotations

import re

import pytest

from repro import ViewConfig, open_view
from repro.bench.workload_gen import WorkloadSpec, generate_ops, make_header
from repro.core.dag_eval import DagXPathEvaluator, _compile
from repro.workloads.synthetic import SyntheticConfig, build_synthetic
from repro.xpath.parser import parse_xpath

_WRITE = re.compile(r"//cnode\[key=(\d+)\](/sub)?")
_OPS = 30
_BATCH = 8

# (template, seeded levels): {n} is the op's key; {a} / {b} are a
# top-level cnode and the cnode in its sub that n lies under in the
# initial view (``_anchors``).
_INSERT_SHAPES = [  # an insert under a cnode's sub
    ("//cnode[key={n}]/sub", {2}),
    ("//cnode[key={n} and sub]/sub", {2}),
    ("//sub[cnode/key={n}]", {2}),
    ("//cnode[key={n}]/sub/cnode/sub", {2}),
    ("cnode[key={a}]/sub", {1}),
    ("cnode[key={a}]/sub/cnode[key={b}]/sub", {1, 4}),
    ("cnode[key={a}]/sub/cnode/sub", {1}),
    ("*/sub/cnode[key={b}]/sub", {3}),
]
_DELETE_SHAPES = [  # a delete or replace of a cnode
    ("//cnode[key={n}]", {2}),
    ("//cnode[key={n} and val]", {2}),
    ("//sub/cnode[key={n}]", {3}),
    ("//cnode[sub/cnode/key={n}]", {2}),
    ("cnode[key={a}]/sub/cnode[key={b}]", {1, 4}),
    ("cnode[key={a}]/sub/cnode", {1}),
    ("cnode/sub/cnode[key={b}]", {3}),
    ("cnode[key={a}]//cnode[key={b}]", {1, 4}),
]


def _rewrite(op: dict, index: int, anchors: dict) -> tuple[dict, set]:
    """The op in its ``index``-th shape, and the levels that shape seeds."""
    n, sub = _WRITE.fullmatch(op["path"]).groups()
    shapes = _INSERT_SHAPES if sub else _DELETE_SHAPES
    template, levels = shapes[index % len(shapes)]
    a, b = anchors.get(n, (n, n))  # a key new to the view: a miss
    return {**op, "path": template.format(n=n, a=a, b=b)}, levels


def _anchors(store) -> dict[str, tuple[str, str]]:
    """Key of a cnode → ``(a, b)``: a top-level cnode and the cnode in its
    sub on the way down to it (its first one, for ``a`` itself)."""
    def children(node, element):
        return [c for c in store.children_of(node) if store.type_of(c) == element]

    def key_of(cnode):
        return store.value_of(children(cnode, "key")[0])

    anchors: dict[str, tuple[str, str]] = {}
    for top in children(store.root_id, "cnode"):
        a = key_of(top)
        below = [c for s in children(top, "sub") for c in children(s, "cnode")]
        anchors[a] = (a, key_of(below[0]) if below else a)
        for child in below:
            b = key_of(child)
            for node in sorted({child} | store.descendants_of([child])):
                if store.type_of(node) == "cnode":
                    anchors.setdefault(key_of(node), (a, b))
    return anchors


def _reads(ops: list[dict], header: dict) -> list[str]:
    keys = sorted({_key(op) for op in ops})[:4]
    return header["queries"] + [
        shape.format(k=k)
        for k in keys
        for shape in ("//cnode[key={k}]/sub/cnode", "//sub[cnode/key={k}]")
    ]


def _key(op: dict) -> int:
    return int(re.findall(r"key=(\d+)", op["path"])[-1])


def _outcome(op: dict, outcome) -> dict:
    record = {"path": op["path"], **outcome.to_dict(include_deltas=True)}
    for timing in ("timings", "total_time", "foreground_time"):
        del record[timing]
    return record


def _run(pattern: str, policy: str, stream: int) -> list:
    """Everything the stream shows, op by op."""
    spec = WorkloadSpec(
        workload=f"synthetic:120:{stream}", ops=_OPS, seed=stream,
        pattern=pattern, key_skew=0.8, subscriptions=6,
    )
    header = make_header(spec)
    dataset = build_synthetic(SyntheticConfig(n_c=120, seed=stream))
    service = open_view(
        dataset.atg, dataset.db,
        config=ViewConfig(side_effects=policy, strict=False),
    )
    anchors = _anchors(service.store)
    ops = [_rewrite(op, i, anchors)[0] for i, op in enumerate(generate_ops(spec))]
    subs = [service.subscribe(query) for query in header["subscriptions"]]
    reads = _reads(ops, header)
    shown: list = []

    def observe() -> None:
        # A read carries targets only; Ep and S are an update's, so they
        # come from the evaluation an update's selection runs.
        evaluator = service.updater.evaluator()
        updates = [evaluator.evaluate(parse_xpath(query)) for query in reads]
        shown.append((
            service.store.digest(),
            [sub.result() for sub in subs],
            [
                (service.xpath(query).targets, r.ep, sorted(r.side_effects))
                for query, r in zip(reads, updates)
            ],
        ))

    for op in ops[:-_BATCH]:
        shown.append(_outcome(op, service.apply(op)))
        observe()
    batch = ops[-_BATCH:]
    shown.append([_outcome(*pair) for pair in zip(batch, service.apply(batch))])
    observe()
    assert service.check_consistency() == []
    return shown


CASES = [
    (pattern, policy, stream)
    for stream, pattern in enumerate(("mixed", "dense_dag", "churn"), 1)
    for policy in ("abort", "propagate")
]


def test_seeded_and_unseeded_services_agree(monkeypatch):
    seeded_levels = []
    seeds = DagXPathEvaluator._seeds

    def counting(self, program):
        levels = seeds(self, program)
        seeded_levels.extend(levels)
        return levels

    monkeypatch.setattr(DagXPathEvaluator, "_seeds", counting)
    with_seed = {case: _run(*case) for case in CASES}
    assert len(seeded_levels) > 1000  # the check is not vacuous
    assert {1, 2, 3, 4} <= set(seeded_levels)  # below the root too
    monkeypatch.setattr(DagXPathEvaluator, "_seeds", lambda self, program: {})
    for case in CASES:
        assert _run(*case) == with_seed[case], case

    # The reads' Ep was compared, not only empty lists.
    observed = [
        read
        for shown in with_seed.values()
        for entry in shown
        if isinstance(entry, tuple)
        for read in entry[2]
    ]
    assert any(ep for _, ep, _ in observed)

    # The streams held what the generator never emits.
    outcomes = [
        record
        for shown in with_seed.values()
        for entry in shown
        if not isinstance(entry, tuple)
        for record in (entry if isinstance(entry, list) else [entry])
    ]
    accepted = [r for r in outcomes if r["accepted"]]
    anchored = [r for r in accepted if not r["path"].startswith("//")]
    assert any(len(r["targets"]) > 1 for r in anchored)
    assert any(
        len(r["targets"]) > 1 for r in accepted if r["path"].startswith("//")
    )
    rejected = [r for r in outcomes if "side effects" in (r["reason"] or "")]
    assert rejected  # ABORT rejections ...
    assert any(not r["path"].startswith("//") for r in rejected)  # ... anchored
    assert any(r["side_effects"] for r in accepted)  # PROPAGATE carried on
    assert len(accepted) > len(outcomes) // 2


@pytest.mark.parametrize("pattern", ["mixed", "dense_dag", "churn"])
def test_rewritten_shapes_are_seeded_where_expected(pattern):
    spec = WorkloadSpec(
        workload="synthetic:60:1", ops=16, seed=1, pattern=pattern, key_skew=0.8,
    )
    for i, op in enumerate(generate_ops(spec)):
        rewritten, levels = _rewrite(op, i, {})
        path = rewritten["path"]
        assert set(_compile(parse_xpath(path)).seeds) == levels, path
        if path.startswith("//sub/"):  # the leading label step is not seeded
            assert 2 not in levels
