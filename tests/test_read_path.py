"""A read computes ``r[[p]]`` only; ``Ep(r)`` and ``S`` are an update's.

``ViewService.xpath`` and ``ReplicaView.xpath`` evaluate through
``DagXPathEvaluator.evaluate_from``: targets and contexts, never the
parent edges ``Ep`` nor the side-effect walk (§3.2), which only the
write plan's selection runs.  The work bound counts both update-only
steps per call; the differential checks, over the generated paths and
views of ``test_dag_eval_demand``, that a read selects exactly what an
update at the same path would, at rest and with ``M`` stale.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro import DeleteOp, InsertOp, open_view
from repro.core.dag_eval import DagXPathEvaluator
from repro.replica import ReplicaView
from repro.workloads import REGISTRAR_QUERIES
from repro.workloads.registrar import build_registrar
from repro.xpath.parser import parse_xpath
from test_dag_eval_demand import PATHS, VIEWS, _members, _view

UPDATE_ONLY = ("_compute_ep", "_detect_side_effects")


@pytest.fixture
def calls(monkeypatch):
    """Per update-only step, how many times it ran."""
    counts = dict.fromkeys(UPDATE_ONLY, 0)
    for name in UPDATE_ONLY:
        original = getattr(DagXPathEvaluator, name)

        def counted(self, *args, _name=name, _original=original):
            counts[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(DagXPathEvaluator, name, counted)
    return counts


def _reset(counts: dict) -> None:
    for name in counts:
        counts[name] = 0


def test_reads_run_no_update_only_step(calls):
    service = open_view(*build_registrar())
    replica = ReplicaView(service.atg, service)
    replica.bootstrap()
    for query in REGISTRAR_QUERIES:
        read = service.xpath(query)
        mirrored = replica.xpath(query)
        assert read.targets == mirrored.targets
        assert read.ep == [] and read.side_effects == set()
    assert any(service.xpath(q).targets for q in REGISTRAR_QUERIES)
    assert calls == dict.fromkeys(UPDATE_ONLY, 0)

    with service.batch() as batch:
        batch.apply(InsertOp(".", "course", ("CS800", "Quantum")))
        _reset(calls)  # a read between two ops of a batch
        assert service.xpath("course[cno=CS800]").targets
        assert calls == dict.fromkeys(UPDATE_ONLY, 0)
        batch.apply(DeleteOp("course[cno=CS800]"))
    assert service.check_consistency() == []


def test_an_accepted_insert_runs_each_update_only_step_once(calls):
    service = open_view(*build_registrar())
    outcome = service.apply(InsertOp(".", "course", ("CS700", "Theory")))
    assert outcome.accepted
    assert calls == dict.fromkeys(UPDATE_ONLY, 1)


@given(VIEWS, PATHS)
@settings(max_examples=200, deadline=None)
def test_a_read_selects_what_an_update_selects(view, path):
    store, topo, reach, _ = _view(view)
    for index in (reach, None):  # None: mid-batch, regions walked
        evaluator = DagXPathEvaluator(store, topo, index)
        read = evaluator.evaluate_from(path)
        update = evaluator.evaluate(path)
        assert read.targets == update.targets, str(path)
        assert _members(read.contexts) == _members(update.contexts), str(path)
        assert read.ep == [] and read.side_effects == set()


def test_service_read_matches_the_update_evaluation():
    service = open_view(*build_registrar())
    for query in REGISTRAR_QUERIES:
        update = service.updater.evaluator().evaluate(parse_xpath(query))
        read = service.xpath(query)
        assert read.targets == update.targets, query
        assert _members(read.contexts) == _members(update.contexts), query
