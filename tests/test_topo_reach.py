"""Unit tests for the topological order L and Algorithm Reach."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uncompiled
from index_seam import dag_store
from repro import InsertOp, open_view
from repro.atg.publisher import publish_store
from repro.baselines.naive_reach import naive_reachability, squaring_reachability
from repro.index import BitsetReachabilityIndex, build_index
from repro.core.topo import TopoOrder
from repro.errors import ReproError
from repro.workloads.registrar import build_registrar
from repro.workloads.synthetic import SyntheticConfig, build_synthetic


@pytest.fixture
def store():
    atg, db = build_registrar()
    return publish_store(atg, db)


def children(edges: dict[int, list[int]]):
    """A ``children_of`` over an explicit parent → children map."""
    return lambda node: edges.get(node, ())


def assert_topo_valid(topo, store):
    """u precedes v ⇒ u is not an ancestor of v (children first)."""
    for node in store.nodes():
        for child in store.children_of(node):
            assert topo.position(child) < topo.position(node), (
                f"child {child} after parent {node}"
            )


def assert_slots_exact(topo):
    """Every position is its node's slot, positions order like ``L``,
    and the tombstones are the only other slots."""
    nodes = topo.as_list()
    assert [topo._list[topo.position(n)] for n in nodes] == nodes
    positions = [topo.position(n) for n in nodes]
    assert positions == sorted(set(positions))
    assert topo._list.count(None) == len(topo._list) - len(nodes)
    assert 8 * (len(topo._list) - len(nodes)) < max(len(topo._list), 1)


class _CountingPositions(dict):
    """``TopoOrder._pos`` that records every key it is written."""

    def __init__(self, positions, written):
        super().__init__(positions)
        self.written = written

    def __setitem__(self, node, position):
        self.written.append(node)
        super().__setitem__(node, position)

    def update(self, pairs):
        pairs = list(pairs)
        self.written.extend(node for node, _ in pairs)
        super().update(pairs)


def _count_position_writes(topo) -> list[int]:
    """Route ``topo``'s position writes through a recorder; returns the
    list of nodes written, in order."""
    written: list[int] = []
    topo._pos = _CountingPositions(topo._pos, written)
    return written


class TestTopoOrder:
    def test_from_store_valid(self, store):
        topo = TopoOrder.from_store(store)
        assert len(topo) == store.num_nodes
        assert_topo_valid(topo, store)

    def test_root_last(self, store):
        topo = TopoOrder.from_store(store)
        assert topo.as_list()[-1] == store.root_id

    def test_deterministic(self, store):
        a = TopoOrder.from_store(store).as_list()
        b = TopoOrder.from_store(store).as_list()
        assert a == b

    def test_precedes(self, store):
        topo = TopoOrder.from_store(store)
        cs320 = store.lookup("course", ("CS320", "Databases"))
        assert topo.precedes(cs320, store.root_id)

    def test_backward_iteration(self, store):
        topo = TopoOrder.from_store(store)
        assert list(topo.backward())[0] == store.root_id

    def test_sort_nodes(self, store):
        topo = TopoOrder.from_store(store)
        nodes = list(store.nodes())[:5]
        ordered = topo.sort_nodes(nodes)
        positions = [topo.position(n) for n in ordered]
        assert positions == sorted(positions)

    def test_duplicate_rejected(self):
        with pytest.raises(ReproError):
            TopoOrder([1, 1])

    def test_append_and_remove(self):
        topo = TopoOrder([1, 2])
        topo.append(3)
        assert topo.as_list() == [1, 2, 3]
        topo.remove_many([2])
        assert topo.as_list() == [1, 3] == list(topo)
        assert len(topo) == 2 and topo.precedes(1, 3)
        assert_slots_exact(topo)

    def test_insert_front_and_at(self):
        topo = TopoOrder([1, 2])
        topo.insert_front(0)
        assert topo.as_list() == [0, 1, 2]
        topo.insert_at(9, 2)
        assert topo.as_list() == [0, 1, 9, 2]
        assert topo.position(2) == 3

    def test_insert_existing_rejected(self):
        topo = TopoOrder([1])
        with pytest.raises(ReproError):
            topo.append(1)

    def test_unknown_position_rejected(self):
        with pytest.raises(ReproError):
            TopoOrder([1]).position(9)

    def test_swap_moves_descendants(self):
        # L = [d, u, a, v]; edge (u, v) inserted; desc(v) = {d}.
        topo = TopoOrder([5, 1, 2, 3])  # u=1, v=3, d=5 not in segment
        moved = topo.swap(1, 3, children({3: [5]}))
        # segment [1,2,3]: moving = [3], staying = [1,2]
        assert moved == 1
        assert topo.as_list() == [5, 3, 1, 2]

    def test_swap_moves_in_segment_descendants(self):
        topo = TopoOrder([1, 7, 2, 3])  # u=1, v=3, desc(v)={7}
        moved = topo.swap(1, 3, children({3: [7]}))
        assert moved == 2
        assert topo.as_list() == [7, 3, 1, 2]

    def test_swap_positions_exact_inside_and_past_segment(self):
        # Only [pos_u, pos_v] is reindexed; positions before and after
        # it must still be exact.
        topo = TopoOrder([8, 1, 7, 2, 3, 9, 4])  # u=1, v=3, desc(v)={7}
        topo.swap(1, 3, children({3: [7]}))
        assert topo.as_list() == [8, 7, 3, 1, 2, 9, 4]
        for index, node in enumerate(topo.as_list()):
            assert topo.position(node) == index
        topo.insert_at(5, 2)  # and the next mutation starts from them
        assert [topo.position(n) for n in topo.as_list()] == list(range(8))

    def test_insert_front_writes_one_position(self):
        # Positions are stored against a base: a new front node lowers
        # it and writes its own entry only, however long L is.
        topo = TopoOrder(list(range(1, 200)))
        before = dict(topo._pos)
        topo.insert_front(0)
        changed = {n for n, p in topo._pos.items() if before.get(n) != p}
        assert changed == {0}
        assert topo.as_list() == list(range(200))
        assert all(topo.position(n) == n for n in range(200))

    @pytest.mark.parametrize("index", [0, 1, 37, 99, 100, 101, 163, 199, 200])
    def test_insert_at_writes_the_shorter_side(self, index):
        # Below the middle the base drops and the prefix is rewritten;
        # from the middle on the suffix is.
        topo = TopoOrder(list(range(200)))
        written = _count_position_writes(topo)
        topo.insert_at(1000, index)
        assert 1000 in written
        assert len(written) <= min(index, 200 - index) + 1
        expected = list(range(index)) + [1000] + list(range(index, 200))
        assert topo.as_list() == expected
        assert [topo.position(n) for n in expected] == list(range(201))

    def test_remove_many_writes_nothing_before_its_first_dead_position(self):
        # The dead slots keep tombstones: the list is not rebuilt, and
        # no position is rewritten, before the first dead one or after.
        topo = TopoOrder(list(range(200)))
        slots = topo._list
        written = _count_position_writes(topo)
        topo.remove_many([150, 120, 180])
        assert topo._list is slots
        assert written == []
        expected = [n for n in range(200) if n not in (120, 150, 180)]
        assert topo.as_list() == expected == list(topo)
        assert list(topo.backward()) == expected[::-1]
        assert len(topo) == 197
        assert_slots_exact(topo)

    def test_remove_many_compacts_when_tombstones_fill_an_eighth(self):
        topo = TopoOrder(list(range(40)))
        written = _count_position_writes(topo)
        topo.remove_many([1, 3, 5, 7])
        assert written == [] and topo._list.count(None) == 4
        topo.remove_many([9])  # 5 of 40 slots dead: one compaction
        survivors = [n for n in range(40) if n not in (1, 3, 5, 7, 9)]
        assert topo._list == survivors
        assert sorted(written) == survivors
        assert [topo.position(n) for n in topo] == list(range(35))
        # The next mutation starts from the compacted slots.
        topo.insert_at(100, 3)
        assert topo.as_list() == survivors[:3] + [100] + survivors[3:]
        assert_slots_exact(topo)

    def test_mutators_skip_tombstones(self):
        # swap and insert_at work on slots: a tombstone stays in place
        # in the segment's unmoved part, and positions keep ordering L.
        tail = list(range(20, 40))
        topo = TopoOrder([8, 1, 6, 7, 2, 3, 9, 4, *tail])
        topo.remove_many([6])
        assert topo._list.count(None) == 1
        topo.swap(1, 3, children({3: [7]}))
        assert topo.as_list() == [8, 7, 3, 1, 2, 9, 4, *tail]
        topo.insert_at(5, topo.position(2))
        assert topo.as_list() == [8, 7, 3, 1, 5, 2, 9, 4, *tail]
        assert_slots_exact(topo)

    @pytest.mark.parametrize("seed", range(4))
    def test_positions_exact_under_random_mutators(self, seed):
        rng = random.Random(seed)
        topo = TopoOrder(list(range(10)))
        fresh = iter(range(10, 10_000))
        for _ in range(400):
            nodes = topo.as_list()
            roll = rng.randrange(7)
            if roll == 0:
                topo.insert_front(next(fresh))
            elif roll == 1:
                topo.append(next(fresh))
            elif roll == 2:
                topo.insert_at(next(fresh), rng.randrange(len(nodes) + 2))
            elif roll == 3 and len(nodes) > 2:
                topo.remove_many([rng.choice(nodes)])
            elif roll == 4 and len(nodes) > 4:
                topo.remove_many(rng.sample(nodes, rng.randrange(1, 4)))
            elif roll >= 5 and len(nodes) > 1:
                u, v = sorted(rng.sample(nodes, 2), key=topo.position)
                below = rng.sample(nodes, len(nodes) // 3)
                edges = {v: [n for n in below if topo.precedes(n, v)]}
                topo.swap(u, v, children(edges))
            assert_slots_exact(topo)
            assert len(topo._pos) == len(topo)

    def test_swap_noop_when_already_ordered(self):
        topo = TopoOrder([3, 1])
        assert topo.swap(1, 3, children({})) == 0
        assert topo.as_list() == [3, 1]

    def test_is_valid_for(self, store):
        topo = TopoOrder.from_store(store)
        assert topo.is_valid_for(store)
        broken = TopoOrder(list(reversed(topo.as_list())))
        assert not broken.is_valid_for(store)

    def test_is_valid_for_catches_one_edge_out_of_order(self, store):
        # Move a child to just after its lowest-placed parent: that one
        # edge is out of order, every other edge still is in order.
        topo = TopoOrder.from_store(store)
        child = next(n for n in topo if len(store.parents_of(n)) > 1)
        parent = min(store.parents_of(child), key=topo.position)
        order = [n for n in topo if n != child]
        order.insert(order.index(parent) + 1, child)
        wrong = [
            (p, c) for p in order for c in store.children_of(p)
            if order.index(c) > order.index(p)
        ]
        assert wrong == [(parent, child)]
        assert not TopoOrder(order).is_valid_for(store)

    def test_is_valid_for_accepts_a_held_plans_nodes(self):
        # A held plan interns its new nodes before it commits; they have
        # no edges yet and are not in L.
        atg, db = build_registrar()
        service = open_view(atg, db)
        plan = service.plan(InsertOp(".", "course", ("CS700", "Theory")))
        updater = service.updater
        assert updater.store.num_nodes > len(updater.topo)
        assert updater.topo.is_valid_for(updater.store)
        plan.abort()

    def test_is_valid_for_is_one_pass_over_the_edges(self, store):
        topo = TopoOrder.from_store(store)
        calls = []
        real = store.children_of
        store.children_of = lambda node: calls.append(node) or real(node)
        assert topo.is_valid_for(store)
        assert sorted(calls) == sorted(topo)


@st.composite
def _dags(draw):
    """A random DAG over ``0..n-1``, edges from the smaller id to the
    larger, as (n, edges)."""
    n = draw(st.integers(2, 24))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n
    ))
    return n, sorted({(min(p), max(p)) for p in pairs if p[0] != p[1]})


@given(dag=_dags(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_swap_walk_matches_the_membership_reference(dag, data):
    """After each new edge ``(u, v)`` with ``u`` before ``v`` that closes
    no cycle, ``swap``'s bounded walk through ``store.children_of``
    leaves the same list, positions and moved count as the reference
    asking ``store.descendants_of([v])`` about every segment node."""
    store, topo = dag_store(*dag)
    reference = TopoOrder(topo.as_list())
    for _ in range(data.draw(st.integers(1, 6))):
        eligible = [
            (u, v) for u in topo for v in topo
            if topo.precedes(u, v)
            and u not in store.descendants_of([v])
        ]
        if not eligible:
            break
        u, v = data.draw(st.sampled_from(eligible))
        store.add_edge(u, v)
        moved = topo.swap(u, v, store.children_of)
        assert moved == uncompiled.swap(
            reference, u, v, store.descendants_of([v])
        )
        assert topo.as_list() == reference.as_list()
        assert [topo.position(n) for n in topo] == list(range(len(topo)))
        assert [reference.position(n) for n in topo] == list(range(len(topo)))
        assert topo.is_valid_for(store)


class TestReachabilityMatrix:
    def test_insert_remove(self):
        m = BitsetReachabilityIndex()
        assert m.insert(1, 2)
        assert not m.insert(1, 2)
        assert (1, 2) in m
        assert m.is_ancestor(1, 2)
        assert not m.is_ancestor(2, 1)
        assert len(m) == 1
        assert m.remove(1, 2)
        assert not m.remove(1, 2)
        assert len(m) == 0

    def test_both_directions(self):
        # One ancestor row per node; a pair reads the same from either end.
        m = BitsetReachabilityIndex()
        m.insert(1, 2)
        m.insert(1, 3)
        m.insert(2, 3)
        assert m.is_ancestor(1, 2) and m.is_ancestor(1, 3)
        assert not m.is_ancestor(3, 1) and not m.is_ancestor(2, 1)
        assert m.anc(3) == {1, 2}

    def test_set_ancestors(self):
        m = BitsetReachabilityIndex()
        m.insert(1, 3)
        m.insert(2, 3)
        m.set_ancestors(3, {2, 4})
        assert m.anc(3) == {2, 4}
        assert not m.is_ancestor(1, 3)
        assert m.is_ancestor(4, 3)
        assert len(m) == 2

    def test_set_helpers(self):
        m = BitsetReachabilityIndex()
        m.insert(1, 2)
        m.insert(3, 4)
        assert m.anc_of_set([2, 4]) == {1, 3}
        assert m.anc_of_set([2, 5]) == {1}
        assert m.anc_or_self_mask([2, 5]) == 1 << 1 | 1 << 2 | 1 << 5
        assert m.anc_or_self_mask([]) == 0

    def test_pairs(self):
        m = BitsetReachabilityIndex()
        m.insert(1, 2)
        m.insert(1, 3)
        assert sorted(m.pairs()) == [(1, 2), (1, 3)]


class TestAlgorithmReach:
    def _oracle(self, store):
        graph = nx.DiGraph()
        graph.add_nodes_from(store.nodes())
        for node in store.nodes():
            for child in store.children_of(node):
                graph.add_edge(node, child)
        closure = nx.transitive_closure(graph)
        return set(closure.edges())

    def test_registrar_matches_networkx(self, store):
        topo = TopoOrder.from_store(store)
        reach = build_index(store, topo)
        assert set(reach.pairs()) == self._oracle(store)

    def test_synthetic_matches_networkx(self):
        dataset = build_synthetic(SyntheticConfig(n_c=80, seed=9))
        store = publish_store(dataset.atg, dataset.db)
        topo = TopoOrder.from_store(store)
        reach = build_index(store, topo)
        assert set(reach.pairs()) == self._oracle(store)

    def test_baselines_agree(self, store):
        topo = TopoOrder.from_store(store)
        reach = build_index(store, topo)
        assert reach.equals(naive_reachability(store))
        assert reach.equals(squaring_reachability(store))

    def test_root_reaches_everything(self, store):
        topo = TopoOrder.from_store(store)
        reach = build_index(store, topo)
        root = store.root_id
        below = {d for a, d in reach.pairs() if a == root}
        assert below == set(store.nodes()) - {root}
