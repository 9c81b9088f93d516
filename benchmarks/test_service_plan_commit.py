"""Benchmark: the plan/commit service protocol vs direct apply.

The two-phase protocol must be free lunch: ``service.plan(op)`` runs
exactly the foreground phases a direct ``apply`` would, and
``plan.commit()`` finishes with the identical ΔV/ΔR — so splitting an
update across the protocol may not change what is computed, only *when*.
This benchmark drives one op of every kind through both protocols on a
synthetic view and checks the equivalence, down to the
``UpdateOutcome.to_dict()`` payloads (the wire format) apart from their
timings.
"""

from __future__ import annotations

from conftest import SIZES

from repro.ops import BaseUpdateOp
from repro.service import ViewConfig, open_view
from repro.workloads.queries import make_workload
from repro.workloads.synthetic import SyntheticConfig, build_synthetic


def _fresh_service(n_c: int):
    dataset = build_synthetic(SyntheticConfig(n_c=n_c, seed=42))
    service = open_view(
        dataset.atg,
        dataset.db,
        config=ViewConfig(side_effects="propagate", strict=False),
    )
    return service, dataset


def _ops_per_kind(service, dataset):
    delete_op = make_workload(dataset, "delete", "W2", count=1)[0]
    insert_op = make_workload(
        dataset, "insert", "W2", count=1, new_key_fraction=0.0
    )[0]
    replace_op = make_workload(
        dataset, "replace", "W3", count=1, new_key_fraction=0.0
    )[0]
    plan = service.plan(delete_op)  # a dry run donates the base ΔR
    base_op = BaseUpdateOp.from_delta(plan.outcome.delta_r)
    plan.abort()
    return [delete_op, insert_op, replace_op, base_op]


def _rows(delta):
    if delta is None:
        return None
    return [repr(op) for op in delta]


def _untimed(outcome) -> dict:
    payload = outcome.to_dict(include_deltas=True)
    for key in ("timings", "total_time", "foreground_time"):
        del payload[key]
    return payload


def test_plan_commit_equals_apply_and_records_outcomes():
    n_c = SIZES[-1]
    probe, dataset = _fresh_service(n_c)
    ops = _ops_per_kind(probe, dataset)

    for op in ops:
        applier, _ = _fresh_service(n_c)
        out_apply = applier.apply(op)

        planner, _ = _fresh_service(n_c)
        plan = planner.plan(op)
        assert "maintain" not in plan.timings  # foreground only so far
        out_commit = plan.commit()

        assert out_apply.accepted and out_commit.accepted
        assert _rows(out_apply.delta_v) == _rows(out_commit.delta_v)
        assert _rows(out_apply.delta_r) == _rows(out_commit.delta_r)
        assert applier.reach.equals(planner.reach)
        assert _untimed(out_apply) == _untimed(out_commit)


def test_aborted_plans_cost_only_foreground():
    service, dataset = _fresh_service(SIZES[0])
    op = make_workload(dataset, "delete", "W1", count=1)[0]
    before = service.stats()
    plan = service.plan(op)
    plan.abort()
    after = service.stats()
    assert before["nodes"] == after["nodes"]
    assert before["edges"] == after["edges"]
    assert after["maintenance_runs"] == before["maintenance_runs"]
    assert "apply" not in plan.timings and "maintain" not in plan.timings
