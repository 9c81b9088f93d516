"""A seeded service and a never-seeding one agree on everything.

Seeding the label step of a leading ``//label[path = value]`` changes
what the evaluator walks, never what an op does.  Each generated stream
runs through a service, then again with ``DagXPathEvaluator._seeded``
patched to return ``None``: accept/reject and reason, targets, side
effects, ΔV, ΔR, the store digest, subscription results and read results
must be identical after every op.

The generator writes only ``//cnode[key=N]`` and ``//cnode[key=N]/sub``,
so the streams are rewritten into other shapes: seeded ones —
``//cnode[key=N and sub]/sub``, ``//sub[cnode/key=N]`` (one value, several
targets once N is shared), ``//cnode[sub/cnode/key=N]`` and
``//cnode[key=N]/sub/cnode/sub`` (which meets shared nodes, so side
effects) — and an unseeded one, ``//sub/cnode[key=N]``.  Under the
``abort`` policy side effects reject the op.  The last ops go in as one
batch, whose mid-session evaluations take the ``reach=None`` path.
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


def _rewrite(op: dict, index: int) -> dict:
    key, sub = _WRITE.fullmatch(op["path"]).groups()
    if sub:  # an insert under a cnode's sub
        shapes = [
            op["path"],
            f"//cnode[key={key} and sub]/sub",
            f"//sub[cnode/key={key}]",
            f"//cnode[key={key}]/sub/cnode/sub",
        ]
    else:  # a delete or replace of a cnode
        shapes = [
            op["path"],
            f"//cnode[key={key} and val]",
            f"//sub/cnode[key={key}]",
            f"//cnode[sub/cnode/key={key}]",
        ]
    return {**op, "path": shapes[index % len(shapes)]}


def _reads(ops: list[dict], header: dict) -> list[str]:
    keys = sorted({_key(op) for op in ops})[:4]
    return header["queries"] + [
        shape.format(k=k)
        for k in keys
        for shape in ("//cnode[key={k}]/sub/cnode", "//sub[cnode/key={k}]")
    ]


def _key(op: dict) -> int:
    return int(re.search(r"key=(\d+)", op["path"]).group(1))


def _outcome(outcome) -> dict:
    record = outcome.to_dict(include_deltas=True)
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
    ops = [_rewrite(op, i) for i, op in enumerate(generate_ops(spec))]
    dataset = build_synthetic(SyntheticConfig(n_c=120, seed=stream))
    service = open_view(
        dataset.atg, dataset.db,
        config=ViewConfig(side_effects=policy, strict=False),
    )
    subs = [service.subscribe(query) for query in header["subscriptions"]]
    reads = _reads(ops, header)
    shown: list = []

    def observe() -> None:
        results = [service.xpath(query) for query in reads]
        shown.append((
            service.store.digest(),
            [sub.result() for sub in subs],
            [(r.targets, r.ep, sorted(r.side_effects)) for r in results],
        ))

    for op in ops[:-_BATCH]:
        shown.append(_outcome(service.apply(op)))
        observe()
    shown.append([_outcome(o) for o in service.apply(ops[-_BATCH:])])
    observe()
    assert service.check_consistency() == []
    return shown


CASES = [
    (pattern, policy, stream)
    for stream, pattern in enumerate(("mixed", "dense_dag", "churn"), 1)
    for policy in ("abort", "propagate")
]


def test_seeded_and_unseeded_services_agree(monkeypatch):
    seeded_calls = []
    seeded = DagXPathEvaluator._seeded

    def counting(self, program):
        context = seeded(self, program)
        seeded_calls.append(context is not None)
        return context

    monkeypatch.setattr(DagXPathEvaluator, "_seeded", counting)
    with_seed = {case: _run(*case) for case in CASES}
    assert sum(seeded_calls) > 1000  # the check is not vacuous
    monkeypatch.setattr(DagXPathEvaluator, "_seeded", lambda self, program: None)
    for case in CASES:
        assert _run(*case) == with_seed[case], case

    # The streams held what the generator never emits.
    outcomes = [
        record
        for shown in with_seed.values()
        for entry in shown
        if not isinstance(entry, tuple)
        for record in (entry if isinstance(entry, list) else [entry])
    ]
    accepted = [r for r in outcomes if r["accepted"]]
    assert any(len(r["targets"]) > 1 for r in accepted)
    assert any(
        "side effects" in (r["reason"] or "") for r in outcomes
    )  # ABORT rejections
    assert any(r["side_effects"] for r in accepted)  # PROPAGATE carried on
    assert len(accepted) > len(outcomes) // 2


@pytest.mark.parametrize("pattern", ["mixed", "dense_dag", "churn"])
def test_rewritten_shapes_are_seeded_where_expected(pattern):
    spec = WorkloadSpec(
        workload="synthetic:60:1", ops=8, seed=1, pattern=pattern, key_skew=0.8,
    )
    for i, op in enumerate(generate_ops(spec)):
        path = _rewrite(op, i)["path"]
        unseeded = path.startswith("//sub/")
        assert (_compile(parse_xpath(path)).seed is None) == unseeded, path
