"""The demand-driven evaluation order of ``DagXPathEvaluator``.

``evaluate`` answers every filter on demand at the nodes the top-down
pass consults, a ``//`` inside one included, and starts every
``label[path = value]`` step from the nodes holding ``value``.  The
reference every result is compared against does neither: the paper's
all-of-``L`` bottom-up sweep for every filter
(``uncompiled.sweep_filters``), and every label step over all of its
previous context.
"""

from __future__ import annotations

import functools
import itertools
import random
import re
import sys
import threading
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import uncompiled

from repro import ViewConfig, op_from_dict, open_view
from repro.atg.publisher import publish_store, unfold_to_tree
from repro.bench.workload_gen import WorkloadSpec, generate_ops, make_header
from repro.core import dag_eval
from repro.core.dag_eval import DagXPathEvaluator
from repro.dtd.parser import parse_dtd
from repro.index import build_index
from repro.core.topo import TopoOrder
from repro.views.store import ViewStore
from repro.workloads.queries import make_query_set
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
    fand,
    normalize_steps,
)
from repro.xpath.parser import parse_xpath
from repro.xpath.tree_eval import evaluate_on_tree


def _no_seeds(self, program):
    return {}


class UnseededEvaluator(DagXPathEvaluator):
    """Never seeds: every label step expands its whole previous context."""

    _seeds = _no_seeds


class SweepingEvaluator(UnseededEvaluator):
    """The reference: unseeded, and every filter answered from the
    whole-``L`` bottom-up sweep, handed to the top-down pass through its
    one filter seam, ``_filter_values``.  Every evaluation asserts that
    it went through the seam: a reference the product no longer consults
    would compare the evaluator with itself and still pass."""

    def _filter_values(self, program):
        self.sweeps += 1
        return uncompiled.sweep_filters(self, program)

    def evaluate(self, path, mode="insert"):
        return self._swept(super().evaluate, path, mode)

    def evaluate_from(self, path):
        return self._swept(super().evaluate_from, path)

    def _swept(self, evaluate, *args):
        self.sweeps = 0
        result = evaluate(*args)
        assert self.sweeps == 1, "the reference evaluation did not sweep"
        return result


# A view the generated ones never are: value nodes shared across parents
# of several types, two sems with one string value (5 and "5"), an empty
# sem, a ``sub/cnode/key`` chain for a multi-step leg, and candidates
# whose first parents in ``L``-reversed order are not their lowest.  For
# a seeded step below the root: ``cnode/sub`` is ``[sa, sd]``, and the
# ``key=9`` cnodes are siblings under both, in a child order that is not
# id order (g, j, i under sa; n, m under sd); i is under both, m also
# under sb, outside that context, and h only under sb.  The root lists
# e, a, d, which ``L`` reverses to a, d, e (``cnode/tag[key=5]``).
_SHARED_DTD = """
<!ELEMENT root (cnode*)>
<!ELEMENT cnode (key, sub, tag)>
<!ELEMENT sub (cnode*)>
<!ELEMENT tag (key*)>
"""


def _shared_value_store() -> ViewStore:
    store = ViewStore(SimpleNamespace(dtd=parse_dtd(_SHARED_DTD)))
    ids: dict[str, int] = {}

    def node(name: str, element: str, *sem) -> None:
        ids[name] = store.intern(element, sem)[0]

    node("root", "root")
    for name in "abcdeghijmn":
        node(name, "cnode", name)
    for name in ("sa", "sb", "sd"):
        node(name, "sub", name)
    for name in ("ta", "te"):
        node(name, "tag", name)
    node("k5", "key", 5)
    node("k5s", "key", "5")
    node("k0", "key")  # empty sem: value ""
    node("k7", "key", 7)
    node("k9", "key", 9)
    edges = [
        ("root", "e"), ("root", "a"), ("root", "d"),
        ("a", "k5"), ("a", "sa"), ("a", "ta"),
        ("sa", "c"), ("sa", "b"), ("sa", "g"), ("sa", "j"), ("sa", "i"),
        ("b", "k5s"), ("b", "sb"),
        ("sb", "h"), ("sb", "c"), ("sb", "m"),
        ("c", "k0"), ("h", "k0"),
        ("d", "k7"), ("d", "sd"),
        ("sd", "b"), ("sd", "g"), ("sd", "n"), ("sd", "m"), ("sd", "i"),
        ("g", "k9"), ("i", "k9"), ("j", "k9"), ("m", "k9"), ("n", "k9"),
        ("e", "k5"), ("e", "te"),
        ("ta", "k5"), ("ta", "k0"),
        ("te", "k5s"),
    ]
    for parent, child in edges:
        store.add_edge(ids[parent], ids[child])
    store.root_id = ids["root"]
    return store


@functools.cache
def _view(key):
    """(store, topo, M, unfolded tree) of ``(n_c, seed)`` or ``"shared"``."""
    if key == "shared":
        store = _shared_value_store()
    else:
        n_c, seed = key
        dataset = build_synthetic(SyntheticConfig(n_c=n_c, seed=seed))
        store = publish_store(dataset.atg, dataset.db)
    topo = TopoOrder.from_store(store)
    return store, topo, build_index(store, topo), unfold_to_tree(store)


def _members(contexts) -> list[set[int]]:
    """Per-level membership as plain sets (a region may be ``L`` itself
    or a bitmask view)."""
    return [set(level) for level in contexts]


def _assert_agrees(got, want, path, reach) -> None:
    """``got`` equals the unseeded ``want``: targets (in order), ``Ep``
    and ``S`` exactly; context membership exactly, except that every
    seeded label level is a subset of the reference's.  A level past the
    first empty one counts as empty."""
    assert got.targets == want.targets, str(path)
    assert got.ep == want.ep, str(path)
    assert got.side_effects == want.side_effects, str(path)
    levels = len(path.steps) + 1

    def pad(contexts):
        return _members(contexts) + [set()] * (levels - len(contexts))

    got_contexts, want_contexts = pad(got.contexts), pad(want.contexts)
    seeded_levels = dag_eval.seed_plan(path.steps) if reach is not None else {}
    for level, (have, full) in enumerate(zip(got_contexts, want_contexts)):
        if level in seeded_levels:
            assert have <= full, (str(path), level)
        else:
            assert have == full, (str(path), level)


# -- generated paths over the synthetic DTD ----------------------------------------

LABELS = st.sampled_from(["cnode", "sub", "key", "val", "tag", "nosuch"])
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
VIEWS = st.sampled_from([(24, 1), (24, 2), (40, 3), "shared"])


def _outcome(result):
    return (
        result.targets, result.ep, result.side_effects,
        _members(result.contexts),
    )


def _check_against_reference(view, path):
    store, topo, reach, tree = _view(view)
    # repr orders sems that mix 5 and "5"
    tree_ids = sorted({n.identity for n in evaluate_on_tree(path, tree)}, key=repr)
    for mode in ("insert", "delete"):
        expected = SweepingEvaluator(store, topo, reach).evaluate(path, mode)
        assert sorted(
            ((store.type_of(n), store.sem_of(n)) for n in expected.targets),
            key=repr,
        ) == tree_ids
        for index in (reach, None):  # None: regions walked from the store
            got = DagXPathEvaluator(store, topo, index).evaluate(path, mode)
            _assert_agrees(got, expected, path, index)
    # Every level's order shows in the targets of the prefix ending there.
    for level in range(1, len(path.steps)):
        prefix = XPath(path.steps[:level])
        want = SweepingEvaluator(store, topo, reach).evaluate_from(prefix)
        for index in (reach, None):
            got = DagXPathEvaluator(store, topo, index).evaluate_from(prefix)
            assert got.targets == want.targets, (str(path), level)


@given(VIEWS, PATHS)
@settings(max_examples=300, deadline=None)
def test_demand_driven_equals_sweep_and_tree_oracle(view, path):
    _check_against_reference(view, path)


def _tree_store(seed: int) -> ViewStore:
    """A view in which every node has at most one parent: ``_SHARED_DTD``'s
    shapes, ``cnode`` under ``root`` and ``sub``, with no node shared.
    Key values repeat across distinct nodes (the sem carries a serial)."""
    rng = random.Random(seed)
    store = ViewStore(SimpleNamespace(dtd=parse_dtd(_SHARED_DTD)))
    serial = itertools.count()

    def child(parent: int, element: str, *value) -> int:
        node = store.intern(element, (*value, next(serial)))[0]
        store.add_edge(parent, node)
        return node

    def cnode(parent: int, depth: int) -> None:
        node = child(parent, "cnode")
        child(node, "key", rng.choice("1259"))
        if depth and rng.random() < 0.8:
            sub = child(node, "sub")
            for _ in range(rng.randint(1, 3)):
                cnode(sub, depth - 1)
        if rng.random() < 0.5:
            tag = child(node, "tag")
            for _ in range(rng.randint(0, 2)):
                child(tag, "key", rng.choice("59"))

    store.root_id = store.intern("root", ())[0]
    for _ in range(rng.randint(2, 4)):
        cnode(store.root_id, 3)
    return store


@functools.cache
def _tree_view(seed: int):
    store = _tree_store(seed)
    assert all(len(store.parents_of(n)) <= 1 for n in store.node_type)
    topo = TopoOrder.from_store(store)
    return store, topo, build_index(store, topo)


@given(st.integers(0, 3), PATHS)
@settings(max_examples=300, deadline=None)
@example(0, parse_xpath("cnode/sub//"))
@example(0, parse_xpath("//sub//"))
@example(0, parse_xpath("cnode[sub]/sub//"))
def test_a_view_without_sharing_has_no_side_effects(seed, path):
    """With in-degree ≤ 1 every node has one occurrence, so no update
    has an XML side effect: ``S = ∅`` for every path, in both modes,
    with ``M`` and with regions walked from the store.  A trailing
    ``//``'s self-matches enter ``Ep`` at the level their parents sit
    at, which the side-effect walk starts from."""
    store, topo, reach = _tree_view(seed)
    for mode in ("insert", "delete"):
        for index in (reach, None):
            result = DagXPathEvaluator(store, topo, index).evaluate(path, mode)
            assert result.side_effects == set(), (str(path), mode)


# -- seeded steps: every label[path = value] ----------------------------------------


def _leg_path(labels, bad=None, at=0):
    """The label steps of a leg, with an optional non-label step in it."""
    steps = [LabelStep(label) for label in labels]
    if bad is not None:
        steps.insert(min(at, len(steps)), bad)
    return XPath(normalize_steps(steps))


# (label, leg) chains each view holds, so that most seeds find nodes.
HELD_CHAINS = {
    "synthetic": [
        ("cnode", ("key",)), ("cnode", ("val",)), ("sub", ("cnode", "key")),
        ("sub", ("cnode", "val")), ("key", ()), ("val", ()),
    ],
    "shared": [
        ("cnode", ("key",)), ("tag", ("key",)), ("sub", ("cnode", "key")),
        ("cnode", ("tag", "key")), ("key", ()),
    ],
}
BAD_STEPS = st.one_of(
    st.just(WildcardStep()),
    st.just(DescendantStep()),
    LABELS.map(lambda label: FilterStep(LabelTest(label))),
)
# What comes before the value-filtered step: the leading ``//``, child
# steps, a ``*``, a ``//`` below the root, or (a quarter of the time) a
# generated path.
PREFIX_TEXTS = st.sampled_from([
    "//", "cnode", "cnode/sub", "*", "cnode/*", "*/sub", "cnode//",
    "//sub//", "cnode[key=5]/sub//", "//cnode[key=5]//",
])
GENERATED_PREFIXES = _paths(FILTERS, 3).map(lambda path: path.steps)
# What follows the filter never starts with a filter step, which the
# normal form would fuse into the seeded one.
SUFFIXES = _paths(FILTERS, 3).map(lambda path: path.steps).filter(
    lambda steps: not steps or not isinstance(steps[0], FilterStep)
)


@st.composite
def value_filtered_paths(draw, view):
    """``prefix/label[filter]/suffix`` over ``view``, the label step's
    level, and whether that level should seed.

    Seeding: the filter's top-level ``and`` holds a ``leg = value`` part
    over 0-2 label steps.  Not seeding: the leg under ``or`` / ``not``,
    or a leg with a ``*``, ``//`` or filter step in it.  Three quarters
    of the (label, leg) chains are ones the view holds below the prefix,
    and three quarters of the values are ones the leg reaches from the
    label step's unseeded context, so that most seeded levels are not
    empty.
    """

    def mostly(likely, otherwise):
        return draw(likely if draw(st.integers(0, 3)) else otherwise)

    store, topo, reach, _ = _view(view)
    prefix = normalize_steps(mostly(
        PREFIX_TEXTS.map(lambda text: parse_xpath(text).steps),
        GENERATED_PREFIXES,
    ))
    evaluator = UnseededEvaluator(store, topo, reach)

    def reached(label, labels):
        chain = (*prefix, *(LabelStep(a) for a in (label, *labels)))
        return evaluator.evaluate(XPath(chain)).targets

    chains = HELD_CHAINS["shared" if view == "shared" else "synthetic"]
    label, labels = mostly(
        st.sampled_from([c for c in chains if reached(*c)] or chains),
        st.tuples(LABELS, st.lists(LABELS, max_size=2)),
    )
    held = sorted({store.value_of(n) for n in reached(label, labels)} - {None})
    value = mostly(st.sampled_from(held), VALUES) if held else draw(VALUES)
    leg = ValueEq(_leg_path(labels), value)
    seedable = draw(st.booleans())
    if seedable:
        extras = draw(st.one_of(st.just([]), st.lists(FILTERS, max_size=2)))
        at = draw(st.integers(0, len(extras)))
        filt = fand(*extras[:at], leg, *extras[at:])
    else:
        bad = ValueEq(
            _leg_path(labels, draw(BAD_STEPS), draw(st.integers(0, 2))), value
        )
        filt = draw(st.sampled_from([
            FOr((leg, draw(FILTERS))), FOr((draw(FILTERS), leg)), FNot(leg),
            bad, FAnd((bad, draw(LABELS.map(LabelTest)))),
        ]))
    steps = [*prefix, LabelStep(label), FilterStep(filt)]
    steps += draw(st.one_of(st.just(()), SUFFIXES))
    return XPath(normalize_steps(steps)), len(prefix) + 1, seedable


@given(VIEWS, st.data())
@settings(max_examples=300, deadline=None)
def test_seeded_evaluation_equals_the_unseeded_reference(view, data):
    path, level, seedable = data.draw(value_filtered_paths(view))
    assert (level in dag_eval._compile(path).seeds) == seedable, str(path)
    _check_against_reference(view, path)
    # evaluate_from seeds too: targets equal the reference's
    store, topo, reach, _ = _view(view)
    _assert_agrees(
        DagXPathEvaluator(store, topo, reach).evaluate_from(path),
        SweepingEvaluator(store, topo, reach).evaluate_from(path),
        path, reach,
    )


SHARED_VALUE_QUERIES = [
    '//cnode[key=5]', '//cnode[key="5"]', '//cnode[key=5]/key',
    '//cnode[key=5]/sub/cnode', '//cnode[key=5 and tag]/tag/key',
    '//tag[key=5]', '//tag[key=""]/key', '//key[.=5]', '//key[.=""]',
    '//cnode[key=""]', '//cnode[.=""]', '//cnode[sub/cnode/key=5]',
    '//cnode[sub/cnode/key=""]//key', '//sub[cnode/key=9]',
    '//sub[cnode/key=9]/cnode', '//cnode[key=9]', '//cnode[key=5]//cnode',
    '//cnode[key=7]//cnode[key=5]', '//cnode[key=5 and sub/cnode/key=""]',
    '//cnode[key=5 and not(tag)]', '//cnode[key=5 or key=7]',
    '//cnode[key=nosuch]/sub', '//nosuch[key=5]',
    # seeded below the root
    'cnode/sub/cnode[key=9]', 'cnode/sub/cnode[key=9]/key',
    'cnode/sub/cnode[key=""]', 'cnode/tag[key=5]', 'cnode/tag[key=5]/key',
    'cnode[key=5]/sub/cnode[key=9]', 'cnode[key=7]/sub/cnode[key=9 and key]',
    'cnode/*/cnode[key=9]', 'cnode/sub//cnode[key=9]', '//sub/cnode[key=9]',
    '//cnode[key=7]//cnode[key=9]', 'cnode[key=5]/sub/cnode[sub/cnode/key=""]',
    'cnode/sub/cnode[key=9]/sub/cnode[key=""]', 'cnode/sub/cnode[.=""]',
]


@pytest.mark.parametrize("text", SHARED_VALUE_QUERIES)
def test_seeded_evaluation_on_shared_values(text):
    """Parents of several types, 5 and "5", an empty sem, a multi-step
    leg, and seeded steps below the root: the hand-built view against
    the reference."""
    store, _, _, _ = _view("shared")
    assert store.value_index_is_exact()
    path = parse_xpath(text)
    _check_against_reference("shared", path)


@pytest.mark.parametrize("text, levels", [
    ("cnode/sub/cnode[key=9]", {3}),
    ("cnode[key=5]/sub/cnode[key=9 and sub]", {1, 4}),
    ("//cnode[key=7]//cnode[key=9]", {2, 5}),
    ("cnode/*/cnode[sub/cnode/key=9]", {3}),
    ("*[key=5]/sub/cnode[key=9]", {4}),
    # must not seed: or / not at the top, * / // / a filter in the leg
    ("cnode/sub/cnode[key=9 or key=5]", set()),
    ("cnode/sub/cnode[not(key=9)]", set()),
    ("cnode/sub/cnode[*/key=9]", set()),
    ("cnode/sub/cnode[sub//key=9]", set()),
    ("cnode/sub/cnode[sub[cnode]/cnode/key=9]", set()),
    ("cnode[key=5]/sub/cnode[not(key=9) and sub]", {1}),
])
def test_which_levels_seed(text, levels):
    path = parse_xpath(text)
    assert set(dag_eval._compile(path).seeds) == levels
    _check_against_reference("shared", path)


def test_shared_value_view_has_what_the_generated_ones_lack():
    store, topo, reach, _ = _view("shared")
    shared = store.nodes_with_value("key", "5")
    assert len(shared) == 2  # sems (5,) and ("5",)
    assert {store.type_of(p) for n in shared for p in store.parents_of(n)} \
        == {"cnode", "tag"}
    assert len(store.nodes_with_value("key", "")) == 1
    result = DagXPathEvaluator(store, topo, reach).evaluate(
        parse_xpath("//cnode[key=5]/key")
    )
    assert len(result.targets) == 2 and result.side_effects  # tag parents
    path = parse_xpath("//cnode[sub/cnode/key=5]")
    seeded = DagXPathEvaluator(store, topo, reach).evaluate(path)
    full = UnseededEvaluator(store, topo, reach).evaluate(path)
    assert seeded.contexts[2] == set(seeded.targets)
    assert seeded.targets == full.targets
    assert len(seeded.targets) == 2 < len(full.contexts[2])

    def names(nodes):
        return [store.sem_of(n)[0] for n in nodes]

    def targets(text):
        evaluator = DagXPathEvaluator(store, topo, reach)
        return names(evaluator.evaluate(parse_xpath(text)).targets)

    # Below the root: siblings under several parents of the previous
    # context, in its order then child order; m enters through sd, h
    # (only under sb) not at all.
    path = parse_xpath("cnode/sub/cnode[key=9]")
    seeded = DagXPathEvaluator(store, topo, reach).evaluate(path)
    assert targets("cnode/sub") == ["sa", "sd"]
    assert names(seeded.targets) == ["g", "j", "i", "n", "m"]
    assert seeded.contexts[3] == set(seeded.targets)
    assert targets('cnode/sub/cnode[key=""]') == ["c"]
    # The previous context's order is not L's: te comes first.
    result = DagXPathEvaluator(store, topo, reach).evaluate(
        parse_xpath("cnode/tag[key=5]")
    )
    assert targets("cnode") == ["e", "a", "d"]
    assert names(result.targets) == ["te", "ta"]
    assert names(topo.sort_nodes(result.targets)[::-1]) == ["ta", "te"]


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


@pytest.mark.parametrize(
    "shape",
    ["//cnode[key={k}]", "//cnode[key={k}]/sub", "//sub[cnode/key={k}]"],
    ids=["cnode", "cnode-sub", "sub-leg"],
)
def test_seeded_step_work_is_bounded_by_its_targets(shape):
    """A leading ``//cnode[key=N]`` expands the children of its
    candidates, not of every node in ``L``."""
    dataset = build_synthetic(SyntheticConfig(n_c=1000, seed=1))
    store = publish_store(dataset.atg, dataset.db)
    topo = TopoOrder.from_store(store)
    evaluator = DagXPathEvaluator(store, topo, build_index(store, topo))
    calls = []
    children_of = store.children_of
    store.children_of = lambda node: calls.append(node) or children_of(node)
    for key in (min(dataset.top_level), max(dataset.top_level), 10**9):
        for mode in ("insert", "delete"):
            calls.clear()
            result = evaluator.evaluate(parse_xpath(shape.format(k=key)), mode)
            assert len(calls) <= 4 * (len(result.targets) + 1), (key, mode)
    assert len(topo) > 1000  # the pass it no longer makes


@pytest.mark.parametrize(
    "shape",
    [
        "cnode[key={a}]/sub/cnode[key={b}]",
        "cnode[key={a} and sub/cnode]/sub/cnode[key={b}]",
    ],
    ids=["anchored", "anchored-and"],
)
def test_anchored_read_work_is_bounded_by_its_targets(shape):
    """``cnode[key=a]/...`` expands the children of its candidates, not
    every child of the root, and so does the ``cnode[key=b]`` below."""
    dataset = build_synthetic(SyntheticConfig(n_c=1000, seed=1))
    store = publish_store(dataset.atg, dataset.db)
    topo = TopoOrder.from_store(store)
    evaluator = DagXPathEvaluator(store, topo, build_index(store, topo))
    pairs = [
        tuple(re.findall(r"key=(\d+)", query))
        for query in make_query_set(dataset, count=16)
        if not query.startswith("//") and query.endswith("]")
    ]
    assert pairs
    a, b = pairs[0]
    calls = []
    children_of = store.children_of
    store.children_of = lambda node: calls.append(node) or children_of(node)
    hits = 0
    for keys in (*pairs, (a, 10**9), (10**9, b)):
        for mode in ("insert", "delete"):
            calls.clear()
            path = parse_xpath(shape.format(a=keys[0], b=keys[1]))
            result = evaluator.evaluate(path, mode)
            hits += bool(result.targets)
            assert len(calls) <= 4 * (len(result.targets) + 1), (keys, mode)
    assert hits == 2 * len(pairs)
    assert len(store.children_of(store.root_id)) > 100  # what it skips


def test_descendant_levels_before_seeded_steps_are_never_listed(monkeypatch):
    """``//cnode[key=a]//cnode[key=b]`` reads both ``//`` levels for
    membership only: ``L`` is never iterated and no region is sorted,
    by a read or by a subscription's evaluation."""
    dataset = build_synthetic(SyntheticConfig(n_c=1000, seed=1))
    store = publish_store(dataset.atg, dataset.db)
    topo = TopoOrder.from_store(store)
    evaluator = DagXPathEvaluator(store, topo, build_index(store, topo))
    paths = [
        parse_xpath(query) for query in make_query_set(dataset, count=16)
        if re.fullmatch(r"//cnode\[key=\d+\]//cnode\[key=\d+\]", query)
    ]
    assert paths
    walks = []
    for name in ("sort_nodes", "__iter__", "backward", "as_list"):
        method = getattr(TopoOrder, name)
        monkeypatch.setattr(
            TopoOrder, name,
            lambda self, *args, _name=name, _method=method:
            walks.append(_name) or _method(self, *args),
        )
    results = [
        (path, evaluate(path))
        for path in paths
        for evaluate in (evaluator.evaluate, evaluator.evaluate_from)
    ]
    assert walks == []
    monkeypatch.undo()
    assert any(result.targets for _, result in results)
    reference = UnseededEvaluator(store, topo, evaluator.reach)
    for path, result in results:
        assert result.targets == reference.evaluate(path).targets


def test_the_seeding_seam_turns_off_every_level(monkeypatch):
    """``DagXPathEvaluator._seeds`` is the one switch the reference
    evaluator and the ``perf`` checks override: returning ``{}`` from it
    puts an anchored read back on every child of the root."""
    store, topo, reach, _ = _view((40, 3))
    top = [c for c in store.children_of(store.root_id)
           if store.type_of(c) == "cnode"]
    anchor = next(
        store.value_of(c) for c in store.children_of(top[0])
        if store.type_of(c) == "key"
    )
    path = parse_xpath(f"cnode[key={anchor}]/sub/cnode")
    expanded: list[int] = []
    children_of = store.children_of
    monkeypatch.setattr(
        store, "children_of",
        lambda node: expanded.append(node) or children_of(node),
    )

    def walk(evaluator_class):
        expanded.clear()
        result = evaluator_class(store, topo, reach).evaluate(path, "delete")
        return result, set(expanded)

    seeded, seeded_walk = walk(DagXPathEvaluator)
    assert seeded.targets and not set(top) <= seeded_walk
    reference, reference_walk = walk(UnseededEvaluator)
    assert set(top) <= reference_walk
    monkeypatch.setattr(DagXPathEvaluator, "_seeds", _no_seeds)
    patched, patched_walk = walk(DagXPathEvaluator)
    assert set(top) <= patched_walk
    assert _outcome(patched) == _outcome(reference)
    _assert_agrees(seeded, reference, path, reach)


def test_seeded_siblings_are_ordered_in_one_pass_over_their_parent():
    """Candidates sharing one first parent are put in its child order by
    one read of its children, not one scan per candidate: ``key=5`` is a
    single node under every top-level ``cnode``."""
    store = ViewStore(SimpleNamespace(dtd=parse_dtd(_SHARED_DTD)))
    root = store.intern("root", ())[0]
    key = store.intern("key", (5,))[0]
    for i in range(400):
        cnode = store.intern("cnode", (i,))[0]
        store.add_edge(root, cnode)
        store.add_edge(cnode, key)
    store.root_id = root
    topo = TopoOrder.from_store(store)
    reach = build_index(store, topo)
    reads = []

    class Counted(list):
        def index(self, item, *args):
            at = super().index(item, *args)
            reads.append(at + 1)
            return at

        def __iter__(self):
            reads.append(len(self))
            return super().__iter__()

    children_of = store.children_of
    store.children_of = lambda node: Counted(children_of(node))
    path = parse_xpath("//cnode[key=5]")
    result = DagXPathEvaluator(store, topo, reach).evaluate(path)
    assert len(result.targets) == 400
    assert sum(reads) <= 4 * len(result.targets)
    store.children_of = children_of
    want = UnseededEvaluator(store, topo, reach).evaluate(path)
    _assert_agrees(result, want, path, reach)


# -- a // inside a filter is answered on demand too --------------------------------


@pytest.mark.parametrize("pattern", ["mixed", "dense_dag", "churn"])
def test_no_sweep_on_the_benchmark_query_shapes(pattern, monkeypatch):
    """Every benchmark shape still evaluates, and no read — a benchmark
    query, or a ``//`` inside a filter — makes the sweep's forward pass
    over ``L``."""
    spec = WorkloadSpec(
        workload="synthetic:60:1", ops=12, seed=1, pattern=pattern,
        key_skew=0.8, subscriptions=8,
    )
    header = make_header(spec)
    ops = list(generate_ops(spec))
    dataset = build_synthetic(SyntheticConfig(n_c=60, seed=1))
    service = open_view(
        dataset.atg, dataset.db,
        config=ViewConfig(side_effects="propagate", strict=False),
    )
    for query in header["subscriptions"]:
        service.subscribe(query)
    passes = []
    forward = TopoOrder.__iter__

    def read(query):
        monkeypatch.setattr(
            TopoOrder, "__iter__",
            lambda self: passes.append(query) or forward(self),
        )
        try:
            return service.xpath(query)
        finally:
            monkeypatch.setattr(TopoOrder, "__iter__", forward)

    for op in ops:
        assert service.apply(op_from_dict(op)).accepted
        for query in header["queries"]:
            read(query)
    stats = service.subscriptions.stats()
    assert stats["full_refreshes"] > 0
    assert read("cnode[.//key=1]").targets  # a // inside a filter
    assert passes == []


def test_descendant_filter_work_is_bounded_by_its_region():
    """``//cnode[key=a]//cnode[.//key=b]`` reads children only inside
    ``desc-or-self(cnode a)``, at most four times per node there (listing
    the region, the ``cnode`` step, the ``//`` walk and the ``key`` step
    below it): the whole-``L`` sweep read every node's."""
    dataset = build_synthetic(SyntheticConfig(n_c=1000, seed=42))
    store = publish_store(dataset.atg, dataset.db)
    topo = TopoOrder.from_store(store)
    evaluator = DagXPathEvaluator(store, topo, build_index(store, topo))
    pairs = [
        re.findall(r"key=(\d+)", query)
        for query in make_query_set(dataset, count=16)
        if re.fullmatch(r"//cnode\[key=\d+\]//cnode\[key=\d+\]", query)
    ]
    assert pairs
    calls = []
    children_of = store.children_of
    store.children_of = lambda node: calls.append(node) or children_of(node)
    hits = 0
    for a, b in pairs:
        anchors = evaluator.evaluate_from(parse_xpath(f"//cnode[key={a}]")).targets
        region = set(anchors) | store.descendants_of(anchors)
        assert 4 * len(region) < len(topo)  # the bound excludes a pass over L
        path = parse_xpath(f"//cnode[key={a}]//cnode[.//key={b}]")
        for evaluate in (
            functools.partial(evaluator.evaluate, path, "insert"),
            functools.partial(evaluator.evaluate, path, "delete"),
            functools.partial(evaluator.evaluate_from, path),
        ):
            calls.clear()
            result = evaluate()
            hits += bool(result.targets)
            assert set(calls) <= region, (a, b)
            assert len(calls) <= 4 * len(region), (a, b)
    assert hits == 3 * len(pairs)
    store.children_of = children_of
    for a, b in pairs:
        path = parse_xpath(f"//cnode[key={a}]//cnode[.//key={b}]")
        assert evaluator.evaluate(path).targets == SweepingEvaluator(
            store, topo, evaluator.reach
        ).evaluate(path).targets


# -- satellites ---------------------------------------------------------------------


def test_mode_is_validated_even_when_nothing_is_selected():
    store, topo, reach, _ = _view((24, 1))
    evaluator = DagXPathEvaluator(store, topo, reach)
    with pytest.raises(ValueError, match="bogus"):
        evaluator.evaluate(parse_xpath("nosuch"), mode="bogus")


def test_one_evaluator_serves_concurrent_readers():
    store, topo, reach, _ = _view((40, 3))
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


def test_no_orphan_outlives_its_op_in_a_batch():
    """``//`` from the root ranges over ``L`` itself — sound only at
    rest.  Inside a batch each delete collects what it condemns at its
    own commit, so ``L`` never holds an orphan and every ``//`` read
    between two ops agrees with the unfolded tree."""
    from repro.workloads.queries import make_workload

    dataset = build_synthetic(SyntheticConfig(n_c=60, seed=7))
    service = open_view(
        dataset.atg, dataset.db,
        config=ViewConfig(side_effects="propagate", strict=False),
    )
    store = service.store
    queries = ["//cnode", "//key", "//cnode[sub/cnode]/key", "//sub//val"]

    def agrees_with_tree():
        tree = unfold_to_tree(store)
        for text in queries:
            got = service.xpath(text).targets
            want = {n.identity for n in evaluate_on_tree(parse_xpath(text), tree)}
            assert len(got) == len(set(got))
            assert {(store.type_of(n), store.sem_of(n)) for n in got} == want, text
            assert len(got) == len(want), text

    shrank = 0
    with service.batch() as batch:
        for op in make_workload(dataset, "delete", "W2", count=6):
            before = store.num_nodes
            batch.apply(op)
            shrank += store.num_nodes < before
            live = store.descendants_of([store.root_id])
            assert set(service.topo) == live | {store.root_id}
            agrees_with_tree()
    assert shrank, "some delete in the batch should collect nodes"


def test_parse_and_compile_are_memoised_and_bounded(monkeypatch):
    """One parse, one schema pass and one compile per shape; a text with
    another constant only binds it; a repeated text is one cache probe
    that returns the identical path and program; every cache is
    bounded."""
    from repro.dtd.validate import StaticValidator
    from repro.xpath import parser

    compiles, binds = [], []
    seed_plan, bind = dag_eval.seed_plan, dag_eval._Program.bind
    monkeypatch.setattr(
        dag_eval, "seed_plan", lambda steps: compiles.append(steps) or seed_plan(steps)
    )
    monkeypatch.setattr(
        dag_eval._Program, "bind",
        lambda program, params: binds.append(params) or bind(program, params),
    )
    validator = StaticValidator(parse_dtd(
        "<!ELEMENT memo (memo_k*, memo_sub*)> <!ELEMENT memo_sub (memo*)>"
    ))
    shapes = parser._parse_shape.cache_info().misses

    first = parse_xpath("memo_sub/memo[memo_k=7]/memo_sub")
    program = dag_eval._compile(first)
    types = validator.reachable_types(first)
    assert parser._parse_shape.cache_info().misses == shapes + 1
    assert len(compiles) == 1 and binds == [("7",)]
    assert validator._reachable.cache_info().misses == 1

    second = parse_xpath("memo_sub/memo[memo_k = 'x''y']/memo_sub")
    assert second == XPath(parser._parse(
        "memo_sub/memo[memo_k = 'x''y']/memo_sub"
    ).steps)
    assert second.shape is first.shape and second.params == ("x'y",)
    bound = dag_eval._compile(second)
    assert validator.reachable_types(second) is types
    assert parser._parse_shape.cache_info().misses == shapes + 1
    assert len(compiles) == 1 and binds == [("7",), ("x'y",)]
    assert validator._reachable.cache_info().misses == 1
    assert bound.steps is program.steps
    assert [value for _, value in bound.path_plans] == ["x'y"]

    assert parse_xpath("memo_sub/memo[memo_k=7]/memo_sub") is first
    assert dag_eval._compile(first) is program
    assert len(compiles) == 1 and len(binds) == 2

    for cache in (
        parse_xpath, parser._parse_shape, dag_eval._compile,
        validator._reachable,
    ):
        assert cache.cache_info().maxsize == 1024