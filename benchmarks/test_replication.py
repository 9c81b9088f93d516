"""Replication costs: snapshot capture/save/load and changefeed folding.

Two questions an operator sizes a replica fleet with:

- **bootstrap cost** — how long does it take to capture, serialize and
  restore a snapshot of the full store, and how big is the artifact;
- **steady-state cost** — how fast does a replica fold events compared
  with the writer producing them (fold throughput must dominate, or a
  replica can never catch up).

Sizes are laptop-scale; correctness assertions (lossless round trip,
byte-identical convergence) always run, while the timing-*ratio*
assertion is ``perf``-marked like the rest of the suite.
"""

from __future__ import annotations

import gzip
import pickle
import time

import pytest
from conftest import SIZES, fresh_updater

from repro.replica import ReplicaView, Snapshot
from repro.service import ViewConfig, open_view
from repro.workloads import make_workload

OPS_PER_KIND = 6
LARGEST = max(SIZES)


def _service(dataset):
    return open_view(
        dataset.atg,
        dataset.db,
        config=ViewConfig(side_effects="propagate", strict=False),
    )


def _op_stream(dataset):
    ops = []
    for cls in ("W1", "W2"):
        ops.extend(make_workload(dataset, "delete", cls, count=OPS_PER_KIND))
    ops.extend(make_workload(
        dataset, "insert", "W2", count=OPS_PER_KIND, new_key_fraction=0.0
    ))
    return ops


@pytest.mark.parametrize("n_c", SIZES)
def test_snapshot_round_trip_cost(n_c, tmp_path):
    _updater, dataset = fresh_updater(n_c)
    service = _service(dataset)
    path = tmp_path / "view.pkl.gz"

    snapshot = service.snapshot()
    snapshot.save(path)
    loaded = Snapshot.load(path)
    store = loaded.restore_store(service.atg)

    assert loaded == snapshot  # lossless
    assert store.export_state() == service.store.export_state()
    size = path.stat().st_size
    # The gzip layer must actually pay for itself on this payload.
    assert size < len(pickle.dumps(snapshot.to_dict()))
    assert gzip.decompress(path.read_bytes())


@pytest.mark.parametrize("n_c", SIZES)
def test_fold_throughput_tracks_writer(n_c):
    _updater, dataset = fresh_updater(n_c)
    service = _service(dataset)
    replica = ReplicaView(service.atg, service)
    replica.bootstrap()
    ops = _op_stream(dataset)

    applied = sum(1 for op in ops if service.apply(op).accepted)
    folded = replica.pump()

    assert applied > 0 and folded > 0
    assert replica.export_state() == service.store.export_state()
    assert replica.digest() == service.store.digest()


@pytest.mark.perf
def test_folding_outruns_the_writer():
    """Steady-state viability: a replica folds an event stream faster
    than the writer produced it (folding skips planning, SAT checks and
    index maintenance), so lag is transient rather than cumulative."""
    _updater, dataset = fresh_updater(LARGEST)
    service = _service(dataset)
    replica = ReplicaView(service.atg, service)
    replica.bootstrap()
    ops = _op_stream(dataset)

    start = time.perf_counter()
    for op in ops:
        service.apply(op)
    write = time.perf_counter() - start

    start = time.perf_counter()
    replica.pump()
    fold = time.perf_counter() - start

    assert replica.digest() == service.store.digest()
    assert fold < write, (
        f"replica fold ({fold:.4f}s) must beat writer apply ({write:.4f}s)"
    )
