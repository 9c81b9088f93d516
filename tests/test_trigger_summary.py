"""A subscription's trigger summary, met by set and mask tests.

``Triggers.meets`` folds the typed patterns of a summary into keys and
meets an event's :class:`~repro.subscribe.deps.EventDigest` with one set
test.  These tests hold it to the pattern-by-pattern summary it
replaced (:func:`uncompiled.reference_meets`) on generated summaries and
events, and bound its work: an event that misses every summary is
decided without matching one pattern.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.workload_gen import WorkloadSpec, make_header
from repro.service import ViewConfig, open_view
from repro.subscribe.deps import (
    ANY_EDGE,
    REGION_EDGE,
    Closure,
    EdgePattern,
    EventDigest,
    QueryProfile,
    Stage,
    profile_query,
)
from repro.views.events import EdgeRecord, ViewEvent
from repro.workloads import named_workload
from repro.xpath.parser import parse_xpath
from uncompiled import ReferenceDigest, reference_meets, reference_triggers

TYPES = ("root", "cnode", "key", "sub", "val")
VALUES = ("1", "2", "3")
NODES = range(10)


class _Rows:
    """``M`` as a dict of ancestor masks: all ``EventDigest`` reads."""

    def __init__(self, rows: dict[int, int]):
        self.rows = rows

    def anc_or_self_mask(self, nodes) -> int:
        mask = 0
        for node in nodes:
            mask |= 1 << node | self.rows.get(node, 0)
        return mask


def _edges(types):
    return st.lists(
        st.builds(
            EdgeRecord,
            st.sampled_from(("insert", "delete")),
            types,
            types,
            # Half the parents are in no level and have no ancestor, so
            # that the typed patterns often decide alone.
            st.integers(0, 2 * len(NODES) - 1),
            st.sampled_from(NODES),
            st.one_of(st.none(), st.sampled_from(VALUES)),
        ),
        max_size=6,
    )


# Two types, so that a generated pattern's pair is often an edge's.
_types = st.sampled_from(TYPES[1:3])
_open_types = st.one_of(st.none(), _types)
_values = st.one_of(
    st.none(), st.frozensets(st.sampled_from(VALUES), min_size=1, max_size=3)
)
_patterns = st.one_of(
    st.builds(EdgePattern, _open_types, _open_types, _values),
    st.sampled_from((ANY_EDGE, REGION_EDGE)),
)
_node_sets = st.sets(st.sampled_from(NODES), max_size=4)
_levels = st.lists(
    st.one_of(_node_sets, _node_sets.map(Closure)), min_size=1, max_size=3
)
_stages = st.lists(
    st.builds(
        Stage,
        st.integers(0, 3),
        st.none(),
        st.lists(
            st.tuples(
                st.integers(0, 4),
                st.booleans(),
                st.lists(_patterns, max_size=3).map(tuple),
            ),
            max_size=3,
        ).map(tuple),
    ),
    min_size=1,
    max_size=4,
).map(tuple)
_rows = st.dictionaries(
    st.sampled_from(NODES),
    st.sets(st.sampled_from(NODES), max_size=4).map(
        lambda nodes: sum(1 << node for node in nodes)
    ),
)


def _same_answer(profile, levels, edges, rows) -> None:
    reach = _Rows(rows)
    triggers = profile._triggers(levels)
    expected = reference_meets(
        reference_triggers(profile, levels), ReferenceDigest(edges, reach)
    )
    assert triggers.meets(EventDigest(edges, reach)) == expected


@settings(max_examples=300, deadline=None)
@given(stages=_stages, levels=_levels, edges=_edges(_types), rows=_rows)
def test_meets_equals_the_pattern_by_pattern_summary(
    stages, levels, edges, rows
):
    """Generated stages (multi-value, value-free and open-type patterns,
    scopes inside and past the cache, empty levels) against generated
    events (known and unknown values, repeated type pairs, inserts and
    deletes)."""
    profile = QueryProfile(parse_xpath("cnode"), (), stages=stages)
    _same_answer(profile, levels, edges, rows)


@settings(max_examples=300, deadline=None)
@given(
    patterns=st.lists(
        st.builds(EdgePattern, _types, _types, _values),
        min_size=1,
        max_size=4,
    ).map(tuple),
    edges=_edges(_types),
)
def test_typed_patterns_alone_meet_as_pattern_by_pattern(patterns, edges):
    """A summary of typed patterns that name both types, every scope
    past the cache, so that no mask decides: the set test answers as
    matching one pattern at a time does."""
    stages = (Stage(0, None, ((4, False, patterns),)),)
    profile = QueryProfile(parse_xpath("cnode"), (), stages=stages)
    _same_answer(profile, [{0}], edges, {})


QUERIES = (
    '//cnode[key="1"]//cnode[key="2"]',
    'cnode[key="1"]/sub/cnode',
    'cnode[(key="1") and (sub/cnode)]/sub/cnode[key="2"]',
    'cnode[(key="1") or (key="3")]/sub/*',
    '*/sub/cnode[val="3"]',
    'cnode[.//key="1"]',
    'cnode[sub/*/key="2"]',
    'cnode[not(key="3")]/sub//cnode',
)


@settings(max_examples=300, deadline=None)
@given(
    query=st.sampled_from(QUERIES),
    contexts=st.lists(_node_sets, min_size=1, max_size=7),
    edges=_edges(st.sampled_from(TYPES)),
    rows=_rows,
)
def test_meets_equals_the_pattern_by_pattern_summary_on_queries(
    query, contexts, edges, rows
):
    """The same on the stages ``profile_query`` derives, ``*`` and
    ``//`` included, over snapshots of generated levels."""
    path = parse_xpath(query)
    profile = profile_query(path, "root")
    levels, _ = profile.snapshot(contexts[: len(path.steps) + 1])
    _same_answer(profile, levels, edges, rows)


def test_a_missed_event_matches_no_pattern(monkeypatch):
    """The 32 header subscriptions of a churn stream, decided against
    an event that misses every summary: ``cnode → key`` edges of
    values no filter compares with, under a parent outside the view.
    All 32 skip and no ``EdgePattern.matches`` runs; the summary that
    matches pattern by pattern runs it for every typed pattern."""
    spec = WorkloadSpec(
        workload="synthetic:120", ops=60, seed=7,
        pattern="churn", key_skew=0.8, subscriptions=32,
    )
    atg, db = named_workload(spec.workload)
    service = open_view(atg, db, config=ViewConfig(strict=False))
    subs = [
        service.subscribe(path)
        for path in make_header(spec)["subscriptions"]
    ]
    registry = service.subscriptions
    updater = registry.updater
    ghost = max(updater.store.nodes()) + 1000
    edges = [
        EdgeRecord("insert", "cnode", "key", ghost, ghost + 1, "no such key"),
        EdgeRecord("delete", "cnode", "key", ghost, ghost + 2, "nor this"),
    ]
    calls = []
    matches = EdgePattern.matches

    def counting(pattern, rec):
        calls.append(pattern)
        return matches(pattern, rec)

    monkeypatch.setattr(EdgePattern, "matches", counting)
    typed = 0
    for sub in subs:
        triggers = reference_triggers(sub.profile, sub._contexts)
        typed += len(triggers[2])
        assert not reference_meets(
            triggers, ReferenceDigest(edges, updater.reach)
        )
    assert typed >= len(subs) and len(calls) >= typed
    calls.clear()
    before = [sub.stats["skips"] for sub in subs]
    registry.apply_batched(ViewEvent(updater.generation, edges))
    assert [sub.stats["skips"] for sub in subs] == [n + 1 for n in before]
    assert calls == []
