"""ΔR byte for byte against a recorded translator.

``tests/data/delta_r_golden.jsonl`` holds five short generated streams
(fixed seeds) and, per op, what the service answered: ``accepted``, the
rejection reason, the ΔR ops in order (fresh values included) and the
size of the CNF a BOOL residue went to (``sat_vars`` / ``sat_clauses``).
Replaying the recorded ops must give the same lines: a change to
Algorithm insert that moves an op, a fresh value or a message fails
here, not only through the end-to-end digests.

Regenerate (only when ΔR is meant to change, and say so)::

    PYTHONPATH=src python tests/test_delta_r_golden.py
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.bench.workload_gen import WorkloadSpec, generate_ops
from repro.service import ViewConfig, open_view
from repro.workloads import named_workload

GOLDEN = pathlib.Path(__file__).parent / "data" / "delta_r_golden.jsonl"

STREAMS = (
    WorkloadSpec(workload="synthetic:200", ops=80, seed=4701, pattern="churn"),
    WorkloadSpec(workload="synthetic:300", ops=80, seed=4702, pattern="dense_dag"),
    WorkloadSpec(workload="synthetic:600", ops=60, seed=4703, pattern="mixed"),
    WorkloadSpec(workload="synthetic:200", ops=60, seed=4704, pattern="deep_chain"),
    WorkloadSpec(workload="synthetic:300", ops=60, seed=4705, pattern="replace_storm"),
)


def _stream_name(spec: WorkloadSpec) -> str:
    return f"{spec.workload} --pattern {spec.pattern} --seed {spec.seed}"


def replay(spec: WorkloadSpec, ops: list[dict]) -> list[str]:
    """One JSON line per op of ``ops`` applied to a fresh service."""
    atg, db = named_workload(spec.workload)
    service = open_view(atg, db, config=ViewConfig(strict=False))
    lines = []
    for index, op in enumerate(ops):
        outcome = service.apply(op)
        delta_r = outcome.delta_r
        record = {
            "stream": _stream_name(spec),
            "index": index,
            "op": op,
            "accepted": outcome.accepted,
            "reason": outcome.reason,
            "delta_r": [
                [o.kind, o.relation, list(o.row)] for o in (delta_r or ())
            ],
            "sat_vars": outcome.stats.get("sat_vars"),
            "sat_clauses": outcome.stats.get("sat_clauses"),
        }
        lines.append(json.dumps(record, sort_keys=True))
    return lines


def _recorded() -> dict[str, list[str]]:
    streams: dict[str, list[str]] = {}
    for line in GOLDEN.read_text().splitlines():
        streams.setdefault(json.loads(line)["stream"], []).append(line)
    return streams


@pytest.mark.parametrize("spec", STREAMS, ids=_stream_name)
def test_replay_gives_the_recorded_delta_r(spec):
    recorded = _recorded()[_stream_name(spec)]
    ops = [json.loads(line)["op"] for line in recorded]
    assert len(ops) == spec.ops
    assert replay(spec, ops) == recorded


def test_the_recorded_streams_cover_every_insertion_shape():
    """A new key (an ``H`` row plus a ``C`` and an ``F`` row with fresh
    values), a sharing insert (one ``H`` row) and an insert whose edge
    is already derivable (no row) all occur."""
    records = [json.loads(line) for lines in _recorded().values() for line in lines]
    sizes = {len(r["delta_r"]) for r in records if r["op"]["op"] == "insert"}
    assert {0, 1, 3} <= sizes


if __name__ == "__main__":
    with GOLDEN.open("w") as out:
        for spec in STREAMS:
            for line in replay(spec, list(generate_ops(spec))):
                out.write(line + "\n")
