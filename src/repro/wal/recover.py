"""Crash recovery: newest checkpoint + log replay → writer state.

The recovery sequence (also narrated in ``docs/durability.md``):

1. load the newest checkpoint the manifest references — a
   :class:`~repro.views.snapshot.Snapshot` file whose ``base`` holds
   the base database's rows at the store's generation;
2. restore the store against the caller's ATG (fingerprint-verified)
   and reload the base tables (a read replica has none to reload);
3. replay every logged record past the checkpoint generation, applying
   its ΔR to the base database and folding its event into the store
   with :func:`~repro.views.events.fold_event`, as a replica does —
   recovery and replication rebuild state through the same code path;
4. report the generation the replay landed on, which becomes the
   recovered service's version counter.

Torn tails were already truncated at WAL open (a crash mid-append can
only tear the last record, and an un-acknowledged commit owes nobody
durability); anything else that fails to decode raised a typed
:class:`~repro.errors.WalCorruptionError` before this module runs.
"""

from __future__ import annotations

from repro.atg.model import ATG
from repro.errors import WalError
from repro.relational.database import Database
from repro.views.events import ViewEvent, fold_event
from repro.views.store import ViewStore
from repro.wal.log import WriteAheadLog, decode_delta


def recover_state(
    atg: ATG,
    db: Database | None,
    wal: WriteAheadLog,
) -> tuple[ViewStore, int] | None:
    """Rebuild the writer's store and base rows from an opened WAL.

    Mutates ``db`` in place (checkpoint rows, then replayed ΔRs) and
    returns ``(store, generation)`` — or ``None`` when the log holds no
    checkpoint yet, meaning the directory is fresh and the caller should
    boot normally and cut the initial checkpoint itself.  ``db=None``
    rebuilds the store alone (:meth:`ReplicaView.from_wal
    <repro.replica.view.ReplicaView.from_wal>`).

    A coarse record in the replay range raises :class:`WalError`: its
    edge list does not describe the change, so it cannot be replayed
    (the writer logs none; one in a log is damage or a foreign writer).
    """
    snapshot = wal.latest_checkpoint()
    if snapshot is None:
        return None
    store = snapshot.restore_store(atg)
    if db is not None:
        db.load_state(snapshot.base or {})  # no rows: a typed SchemaError
    generation = snapshot.generation
    for gen, record in wal.records_since(generation):
        event = ViewEvent.from_dict(record["event"])
        if event.coarse:
            raise WalError(
                f"cannot replay the coarse record at generation {gen} "
                f"(reason={event.reason!r}): its edge list does not "
                f"describe the change"
            )
        delta = decode_delta(record.get("delta_r"))
        if db is not None and delta is not None:
            db.apply(delta)
        fold_event(store, event)
        generation = gen
    return store, generation
