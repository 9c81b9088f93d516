"""Soundness differential of the subscription decision.

``affects`` answers no (the engine skips the event) only when it can
prove the result unchanged.  Every property here checks that claim directly: a
skip implies that a fresh ``evaluate_from`` after the commit gives the
cached result, and the cached levels (:meth:`QueryProfile.snapshot`)
the next decision reads.  A subscription's trigger summary skips an
event without the scan, so wherever the event misses the summary the
scan must skip it too.

The store-level property builds small random DAGs over a
``cnode (key, sub, tag)`` schema and random event batches, applied to
the store and brought to rest (unreachable nodes collected, ``L`` and
``M`` rebuilt), with the GC edges in the event as the updater reports
them.  The batches are drawn so that they condemn region parents, move
the seeded level after a leading ``//`` (a key appears or disappears,
or a candidate's parent edge is cut), and change a filter chain's
second edge together with the edge above it.  The service-level
property replays generated W1–W3 writes on the synthetic view, one op
at a time and inside batch sessions (with a mid-batch read, which
evaluates with ``M`` stale, keeps no cache and is refreshed at the
flush without a decision).
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dag_eval import DagXPathEvaluator
from repro.core.topo import TopoOrder
from repro.dtd.parser import parse_dtd
from repro.index import build_index
from repro.service import ViewConfig, open_view
from repro.subscribe import EdgeRecord, ViewEvent, affects, engine
from repro.subscribe import profile_query
from repro.subscribe.deps import EventDigest
from repro.views.store import ViewStore
from repro.workloads import make_query_set, make_workload
from repro.workloads.synthetic import SyntheticConfig, build_synthetic
from repro.xpath.parser import parse_xpath

_DTD = """
<!ELEMENT root (cnode*)>
<!ELEMENT cnode (key, sub, tag)>
<!ELEMENT sub (cnode*)>
<!ELEMENT key (#PCDATA)>
<!ELEMENT tag (#PCDATA)>
"""

#: cnodes ``c0 .. c5``; ``c_i``'s own ``sub`` is ``s_i`` and holds only
#: later cnodes, so every store drawn is acyclic.
N_CNODES = 6
KEYS = ("1", "2", "3")

QUERIES = (
    "//cnode[key=1]//cnode[key=2]",  # W1
    "//cnode[key=2]//cnode[key=1]",
    "cnode[key=1 and sub/cnode]/sub/cnode[key=2]",  # W3
    "cnode[key=2 and sub/cnode]/sub/cnode",
    "cnode[key=1]/sub/cnode[key=2]",  # W2
    "cnode[key=1]/sub/cnode",
    "//cnode[key=1]/sub/cnode",
    "cnode[key=2]//cnode[key=3]",
    "cnode//cnode[key=2 and sub/cnode/tag]",
    "cnode[sub/cnode/key=3]",
)


def _edges() -> list[tuple[str, str]]:
    """Every edge the schema allows, by node name."""
    edges = []
    for i in range(N_CNODES):
        c = f"c{i}"
        edges.append(("root", c))
        edges.append((c, f"s{i}"))
        edges.append((c, "tag"))
        edges.extend((c, f"k{key}") for key in KEYS)
        edges.extend((f"s{i}", f"c{j}") for j in range(i + 1, N_CNODES))
    return edges


EDGES = _edges()
#: Every store starts as the view's tree: each cnode under the root,
#: each ``sub`` under its cnode.  Keys, tags and sharing are drawn.
TREE = [
    edge for edge in EDGES if edge[0] == "root" or edge[1][0] == "s"
]
EXTRA = [edge for edge in EDGES if edge not in TREE]
#: ``c_i → s_i → c_j``: a filter chain's second edge and the edge above
#: it.
CHAINS = [
    (f"c{i}", f"s{i}", f"c{j}")
    for i in range(N_CNODES) for j in range(i + 1, N_CNODES)
]


def _sem(name: str) -> tuple[str, tuple]:
    if name == "root":
        return "root", ()
    if name == "tag":
        return "tag", ("t",)
    kind, rest = name[0], name[1:]
    return {"c": "cnode", "s": "sub", "k": "key"}[kind], (rest,)


class World:
    """A store at rest and the names of its nodes."""

    def __init__(self, edges):
        self.store = ViewStore(SimpleNamespace(dtd=parse_dtd(_DTD)))
        self.store.root_id = self.node("root")
        for parent, child in edges:
            self.store.add_edge(self.node(parent), self.node(child))
        self.collect()
        self.evaluator = self.at_rest()

    def node(self, name: str) -> int:
        element, sem = _sem(name)
        return self.store.intern(element, sem)[0]

    def record(self, kind: str, parent: int, child: int) -> EdgeRecord:
        store = self.store
        return EdgeRecord(
            kind, store.type_of(parent), store.type_of(child), parent, child,
            child_value=store.value_of(child),
        )

    def collect(self) -> list[EdgeRecord]:
        """Garbage-collect the unreachable nodes; their edges' deletes."""
        store = self.store
        live = store.reachable_from_root()
        dead = [n for n in list(store.nodes()) if n not in live]
        records = []
        for node in dead:
            for child in list(store.children_of(node)):
                records.append(self.record("delete", node, child))
                store.remove_edge(node, child)
        for node in dead:
            store.remove_node(node)
        return records

    def at_rest(self) -> DagXPathEvaluator:
        topo = TopoOrder.from_store(self.store)
        return DagXPathEvaluator(self.store, topo, build_index(self.store, topo))

    def commit(self, toggles) -> ViewEvent:
        """Flip each named edge in turn, then collect: the event lists
        every flip and every GC edge, like a coalesced batch event."""
        store = self.store
        records = []
        for parent_name, child_name in toggles:
            parent, child = self.node(parent_name), self.node(child_name)
            if store.has_edge(parent, child):
                records.append(self.record("delete", parent, child))
                store.remove_edge(parent, child)
            else:
                store.add_edge(parent, child)
                records.append(self.record("insert", parent, child))
        records += self.collect()
        return ViewEvent(generation=1, edges=records)


@st.composite
def toggles(draw):
    """A batch of edge flips: single edges, a chain's second edge alone
    or with the edge above it, and a key swapped on one cnode."""
    batch = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(("edge", "second", "chain", "key")))
        if kind == "edge":
            batch.append(draw(st.sampled_from(EDGES)))
        elif kind == "second":
            _, sub, below = draw(st.sampled_from(CHAINS))
            batch.append((sub, below))
        elif kind == "chain":
            cnode, sub, below = draw(st.sampled_from(CHAINS))
            batch += [(cnode, sub), (sub, below)]
        else:
            cnode = f"c{draw(st.integers(0, N_CNODES - 1))}"
            old, new = draw(st.lists(
                st.sampled_from(KEYS), min_size=2, max_size=2, unique=True
            ))
            batch += [(cnode, f"k{old}"), (cnode, f"k{new}")]
    return batch


def assert_sound(world: World, batch) -> int:
    """Decide every query over one committed batch; a skip must leave
    the result and the cached levels as a fresh evaluation has them.
    Returns the number of skips."""
    before = world.evaluator
    cached = {}
    for text in QUERIES:
        query = parse_xpath(text)
        profile = profile_query(query, "root")
        result = before.evaluate_from(query)
        cached[text] = (
            profile, profile.snapshot(result.contexts),
            sorted(result.targets),
        )
    event = world.commit(batch)
    after = world.at_rest()
    world.evaluator = after
    digest = EventDigest(event.edges, after.reach)
    skips = 0
    for text, (profile, (levels, triggers), targets) in cached.items():
        decision = affects(profile, event, levels, after)
        if not triggers.meets(digest):
            assert not decision, (text, batch)
        if not decision:
            skips += 1
            fresh = after.evaluate_from(profile.path)
            assert sorted(fresh.targets) == targets, (text, batch)
            assert profile.snapshot(fresh.contexts) == (levels, triggers), (
                text, batch,
            )
    return skips


initial_edges = st.lists(st.sampled_from(EXTRA), max_size=30, unique=True)


@given(initial_edges, st.lists(toggles(), min_size=1, max_size=3))
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_a_skip_leaves_the_result_as_a_fresh_evaluation_has_it(
    edges, batches
):
    world = World(TREE + edges)
    for batch in batches:
        assert_sound(world, batch)


def test_the_generated_batches_reach_every_decision():
    """The three shapes the decision sharpens all skip on some batch and
    refresh on another, so the property above is not vacuous."""
    world = World([
        ("root", "c0"), ("c0", "k1"), ("c0", "s0"), ("s0", "c1"),
        ("c1", "k2"), ("c1", "s1"), ("s1", "c2"), ("c2", "k3"),
        ("root", "c3"), ("c3", "k2"), ("c3", "s3"), ("s3", "c4"),
    ])
    # Far from every anchor: a tag edge on c4.
    assert assert_sound(world, [("c4", "tag")]) >= 6
    # c1 loses key 2: the W1 and W3 results move.
    assert assert_sound(world, [("c1", "k2"), ("c1", "k3")]) < len(QUERIES)


# ---------------------------------------------------------------------------
# The service: single ops and batch sessions over the synthetic view
# ---------------------------------------------------------------------------


def _skip_counts(subs):
    return {sub.id: sub.stats["skips"] for sub in subs}


def assert_skips_were_sound(service, subs, before):
    """Every subscription that skipped this commit holds what a fresh
    evaluation gives now."""
    evaluator = service.updater.evaluator()
    for sub in subs:
        if sub.stats["skips"] > before[sub.id]:
            fresh = evaluator.evaluate_from(sub.query)
            assert sub._nodes == tuple(sorted(fresh.targets)), sub.path
        assert sub.result() == tuple(
            sorted(service.xpath(sub.path).targets)
        ), sub.path


@given(
    st.integers(min_value=0, max_value=10_000),
    st.lists(
        st.tuples(
            st.sampled_from(("insert", "delete")),
            st.sampled_from(("W1", "W2", "W3")),
            st.integers(min_value=1, max_value=3),
        ),
        min_size=1, max_size=4,
    ),
    st.sampled_from(("single", "batch", "batch_with_read")),
)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_service_skips_are_sound_at_rest_and_in_batches(seed, writes, mode):
    dataset = build_synthetic(SyntheticConfig(n_c=40, seed=5))
    service = open_view(
        dataset.atg, dataset.db,
        config=ViewConfig(side_effects="propagate", strict=False),
    )
    subs = [
        service.subscribe(q)
        for q in make_query_set(dataset, count=12, seed=seed % 7)
    ]
    ops = []
    for kind, shape, count in writes:
        ops += make_workload(dataset, kind, shape, count=count, seed=seed)
    if mode == "single":
        for op in ops:
            before = _skip_counts(subs)
            service.apply(op)
            assert_skips_were_sound(service, subs, before)
    else:
        before = _skip_counts(subs)
        read = subs[seed % len(subs)]
        stale_read = False
        decided = []

        def counting(profile, *rest):
            decided.append(profile)
            return affects(profile, *rest)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "affects", counting)
            with service.batch() as batch:
                for position, op in enumerate(ops):
                    batch.apply(op)
                    if mode == "batch_with_read" and position == 0:
                        read.result()  # M is stale here
                        stale_read = read.stats["fallback_refreshes"] == 1
        if stale_read:
            # Evaluated mid-batch, it kept no cache: the flush refreshed
            # it without a decision.
            assert read.stats["full_refreshes"] == 1, read.path
            assert all(
                profile is not read.profile for profile in decided
            ), read.path
        assert_skips_were_sound(service, subs, before)
    assert service.check_consistency() == []
