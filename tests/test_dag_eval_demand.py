"""The demand-driven evaluation order of ``DagXPathEvaluator``.

``evaluate`` answers no-``//`` filters on demand at the nodes the
top-down pass consults; the paper's all-of-``L`` bottom-up sweep stays
as the route for filters with a ``//`` inside them — and, here, as the
reference every result is compared against.
"""

from __future__ import annotations

import functools
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import ViewConfig, op_from_dict, open_view
from repro.atg.publisher import publish_store, unfold_to_tree
from repro.bench.workload_gen import WorkloadSpec, generate_ops, make_header
from repro.core import dag_eval
from repro.core.dag_eval import DagXPathEvaluator
from repro.index import build_index
from repro.core.topo import TopoOrder
from repro.workloads.synthetic import SyntheticConfig, build_synthetic
from repro.xpath.ast import (
    DescendantStep,
    ExistsPath,
    FAnd,
    FNot,
    FOr,
    FilterStep,
    LabelStep,
    LabelTest,
    ValueEq,
    WildcardStep,
    XPath,
    normalize_steps,
)
from repro.xpath.parser import parse_xpath
from repro.xpath.tree_eval import evaluate_on_tree


class SweepingEvaluator(DagXPathEvaluator):
    """The reference: every filter through the whole-``L`` bottom-up pass."""

    def _filter_values(self, program, start=None):
        return self._bottom_up(program)


@functools.cache
def _view(n_c: int, seed: int):
    dataset = build_synthetic(SyntheticConfig(n_c=n_c, seed=seed))
    store = publish_store(dataset.atg, dataset.db)
    topo = TopoOrder.from_store(store)
    return store, topo, build_index(store, topo), unfold_to_tree(store)


# -- generated paths over the synthetic DTD ----------------------------------------

LABELS = st.sampled_from(["cnode", "sub", "key", "val", "nosuch"])
VALUES = st.sampled_from(["", "1", "2", "5", "9", "17", "v3", "v9", "nosuch"])


def _paths(filters, max_steps: int):
    step = st.one_of(
        LABELS.map(LabelStep),
        st.just(WildcardStep()),
        st.just(DescendantStep()),
        filters.map(FilterStep),
    )
    return st.lists(step, max_size=max_steps).map(
        lambda steps: XPath(normalize_steps(steps))
    )


def _filters(inner):
    paths = _paths(inner, 3)
    return st.one_of(
        LABELS.map(LabelTest),
        paths.map(ExistsPath),
        st.builds(ValueEq, paths, VALUES),
        inner.map(FNot),
        st.tuples(inner, inner).map(FAnd),
        st.tuples(inner, inner).map(FOr),
    )


FILTERS = st.recursive(
    st.one_of(
        LABELS.map(LabelTest),
        st.builds(ValueEq, st.just(XPath(())), VALUES),
        st.builds(ValueEq, LABELS.map(lambda a: XPath((LabelStep(a),))), VALUES),
    ),
    _filters,
    max_leaves=5,
)
PATHS = _paths(FILTERS, 5)
VIEWS = st.sampled_from([(24, 1), (24, 2), (40, 3)])


def _outcome(result):
    return result.targets, result.ep, result.side_effects, result.contexts


@given(VIEWS, PATHS)
@settings(max_examples=300, deadline=None)
def test_demand_driven_equals_sweep_and_tree_oracle(view, path):
    store, topo, reach, tree = _view(*view)
    tree_ids = sorted({n.identity for n in evaluate_on_tree(path, tree)})
    for mode in ("insert", "delete"):
        expected = SweepingEvaluator(store, topo, reach).evaluate(path, mode)
        assert sorted(
            (store.type_of(n), store.sem_of(n)) for n in expected.targets
        ) == tree_ids
        for index in (reach, None):  # None: regions walked from the store
            got = DagXPathEvaluator(store, topo, index).evaluate(path, mode)
            assert _outcome(got) == _outcome(expected), (str(path), mode)


@given(VIEWS, PATHS, st.data())
@settings(max_examples=100, deadline=None)
def test_suffix_evaluation_equals_sweep(view, path, data):
    """``evaluate_from`` a mid-path context: same choice of filter values."""
    store, topo, reach, _ = _view(*view)
    start = sorted(data.draw(st.sets(st.sampled_from(topo.as_list()))))
    expected = SweepingEvaluator(store, topo, reach).evaluate_from(path, start)
    got = DagXPathEvaluator(store, topo, reach).evaluate_from(path, start)
    assert _outcome(got) == _outcome(expected)


# -- work tracks the contexts, not |V| ---------------------------------------------


def test_anchored_path_work_is_bounded_by_its_contexts():
    dataset = build_synthetic(SyntheticConfig(n_c=1000, seed=1))
    store = publish_store(dataset.atg, dataset.db)
    topo = TopoOrder.from_store(store)
    evaluator = DagXPathEvaluator(store, topo, build_index(store, topo))
    anchor = min(dataset.top_level)
    calls = []
    children_of = store.children_of
    store.children_of = lambda node: calls.append(node) or children_of(node)
    result = evaluator.evaluate(parse_xpath(f"cnode[key={anchor}]/sub/cnode"))
    assert result.targets
    walked = sum(len(context) for context in result.contexts)
    assert len(calls) <= 2 * walked
    assert 2 * walked < store.num_nodes  # ... which is far below |V|


# -- the sweep survives only for // inside a filter --------------------------------


@pytest.mark.parametrize("pattern", ["mixed", "dense_dag", "churn"])
def test_no_sweep_on_the_benchmark_query_shapes(pattern, monkeypatch):
    sweeps = []
    bottom_up = DagXPathEvaluator._bottom_up
    monkeypatch.setattr(
        DagXPathEvaluator, "_bottom_up",
        lambda self, program, sweep=None: sweeps.append(program)
        or bottom_up(self, program, sweep),
    )
    spec = WorkloadSpec(
        workload="synthetic:60:1", ops=12, seed=1, pattern=pattern,
        key_skew=0.8, subscriptions=8,
    )
    header = make_header(spec)
    ops = list(generate_ops(spec))
    sweeps.clear()  # generation drives a shadow view through the same code
    dataset = build_synthetic(SyntheticConfig(n_c=60, seed=1))
    service = open_view(
        dataset.atg, dataset.db,
        config=ViewConfig(side_effects="propagate", strict=False),
    )
    for query in header["subscriptions"]:
        service.subscribe(query)
    for op in ops:
        assert service.apply(op_from_dict(op)).accepted
        for query in header["queries"]:
            service.xpath(query)
    stats = service.subscriptions.stats()
    assert stats["suffix_refreshes"] + stats["full_refreshes"] > 0
    assert sweeps == []
    service.xpath("cnode[.//key=1]")  # positive control: // inside a filter
    assert len(sweeps) == 1


# -- satellites ---------------------------------------------------------------------


def test_mode_is_validated_even_when_nothing_is_selected():
    store, topo, reach, _ = _view(24, 1)
    evaluator = DagXPathEvaluator(store, topo, reach)
    with pytest.raises(ValueError, match="bogus"):
        evaluator.evaluate(parse_xpath("nosuch"), mode="bogus")


def test_one_evaluator_serves_concurrent_readers():
    store, topo, reach, _ = _view(40, 3)
    evaluator = DagXPathEvaluator(store, topo, reach)
    texts = ["//cnode[key=17]//cnode", "cnode[sub/cnode]/sub/cnode//"]
    paths = [parse_xpath(text) for text in texts]
    expected = [_outcome(evaluator.evaluate(p, "delete")) for p in paths]
    assert expected[0] != expected[1]
    rounds = 150
    agreed = [0, 0]

    def read(which: int) -> None:
        for _ in range(rounds):
            got = _outcome(evaluator.evaluate(paths[which], "delete"))
            agreed[which] += got == expected[which]

    threads = [threading.Thread(target=read, args=(i,)) for i in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch mid-evaluation, not between them
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert agreed == [rounds, rounds]  # a raising reader falls short too


def test_leading_descendant_ignores_uncollected_orphans():
    """``//`` from the root ranges over ``L`` itself — sound only at
    rest.  Mid-session, deleted subtrees sit uncollected in the store
    and in ``L``; the updater must hand out a ``reach=None`` evaluator
    (store walk from the root) until the flush has collected them."""
    from repro.core.updater import SideEffectPolicy, XMLViewUpdater
    from repro.workloads.queries import make_workload

    dataset = build_synthetic(SyntheticConfig(n_c=60, seed=7))
    updater = XMLViewUpdater(
        dataset.atg, dataset.db,
        side_effect_policy=SideEffectPolicy.PROPAGATE, strict=False,
    )
    queries = ["//cnode", "//key", "//cnode[sub/cnode]/key", "//sub//val"]

    def agrees_with_tree():
        tree = unfold_to_tree(updater.store)
        for text in queries:
            got = updater.evaluate_xpath(text).targets
            want = {n.identity for n in evaluate_on_tree(parse_xpath(text), tree)}
            assert len(got) == len(set(got))
            store = updater.store
            assert {(store.type_of(n), store.sem_of(n)) for n in got} == want, text
            assert len(got) == len(want), text

    with updater.batch():
        for op in make_workload(dataset, "delete", "W2", count=6):
            updater.apply_op(op)
        live = updater.store.descendants_of([updater.store.root_id])
        orphans = set(updater.topo) - live - {updater.store.root_id}
        assert orphans, "the session should hold uncollected nodes"
        assert updater.evaluator().reach is None
        agrees_with_tree()
        # What the precondition guards against: the at-rest shortcut
        # over a triple that is not at rest selects the orphans.
        stale = DagXPathEvaluator(updater.store, updater.topo, updater.reach)
        assert orphans & set(stale.evaluate(parse_xpath("//")).targets)
    assert updater.evaluator().reach is updater.reach
    assert set(updater.topo) == live | {updater.store.root_id}
    agrees_with_tree()


def test_parse_and_compile_are_memoised_and_bounded():
    text = "cnode[key=7]/sub/cnode"
    assert parse_xpath(text) is parse_xpath(text)
    assert parse_xpath.cache_info().maxsize is not None
    path = parse_xpath(text)
    assert dag_eval._compile(path) is dag_eval._compile(XPath(path.steps))
    assert dag_eval._compile.cache_info().maxsize is not None
