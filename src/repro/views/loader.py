"""Reload a persisted DAG coding back into a :class:`ViewStore`.

:meth:`ViewStore.to_database` materializes the view as ``gen_A`` /
``edge_A_B`` relations (optionally pushed to SQLite by the bridge); this
module is the inverse: rebuild the in-memory store — including child
ordering, the intern table and the root — from those relations, so a
published view survives process restarts without republishing from the
base data.
"""

from __future__ import annotations

from repro.atg.model import ATG
from repro.errors import ReproError
from repro.relational.database import Database
from repro.views.store import ViewStore


def store_from_database(atg: ATG, db: Database) -> ViewStore:
    """Rebuild a view store from its relational materialization.

    ``db`` must contain one ``gen_<type>`` table per element type of the
    ATG's DTD and one ``edge_<parent>_<child>`` table per DTD edge, with
    the layout written by :meth:`ViewStore.to_database` (ids, semantic
    columns, and per-edge child positions).
    """
    store = ViewStore(atg)
    id_map: dict[int, int] = {}

    # gen tables: intern every node, remapping persisted ids to fresh
    # dense ids (interning keeps gen_id semantics; the mapping is only
    # needed while decoding the edges).
    for element in atg.dtd.types:
        table_name = f"gen_{element}"
        if table_name not in db:
            raise ReproError(f"missing table {table_name!r}")
        for row in db.rows(table_name):
            old_id, *sem = row
            node, _ = store.intern(element, tuple(sem))
            id_map[old_id] = node

    # edge tables: collect with positions, then add per parent in order.
    pending: dict[int, list[tuple[int, int]]] = {}
    for parent_type, child_type in atg.dtd.edges():
        table_name = f"edge_{parent_type}_{child_type}"
        if table_name not in db:
            raise ReproError(f"missing table {table_name!r}")
        for parent_old, child_old, position in db.rows(table_name):
            try:
                parent = id_map[parent_old]
                child = id_map[child_old]
            except KeyError as exc:
                raise ReproError(
                    f"edge table {table_name!r} references unknown node id "
                    f"{exc.args[0]}"
                ) from None
            pending.setdefault(parent, []).append((position, child))
    for parent, children in pending.items():
        for _, child in sorted(children):
            store.add_edge(parent, child)

    # Root: the unique node of the root type.
    roots = list(store.gen.get(atg.dtd.root, {}))
    if len(roots) != 1:
        raise ReproError(
            f"expected exactly one {atg.dtd.root!r} node, found {len(roots)}"
        )
    store.root_id = roots[0]
    return store

