"""Keyed tables, their one equality probe and the database container.

A :class:`Table` stores rows keyed by their primary key and enforces the
key constraint on insertion — the paper's insertion translation relies on
this ("a unique tuple ... needs to be inserted into the base relation R for
each i due to the key constraint on R", proof of Theorem 2).
:meth:`Table.lookup` is the one equality probe the SPJ evaluator and the
view-update translators use, except that a probe binding the whole
primary key is :meth:`Table.get`; the hash indexes build themselves.

A :class:`Database` is a named collection of tables plus the
:class:`RelationalDelta` machinery for applying/undoing group updates
``ΔR``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, Sequence

from repro.errors import KeyConstraintError, SchemaError, UnknownRelationError
from repro.relational.schema import RelationSchema


class Table:
    """One relation instance: keyed rows plus self-building hash indexes."""

    def __init__(self, schema: RelationSchema):
        self.schema = schema
        self._rows: dict[tuple, tuple] = {}
        # attr -> value -> {primary key: row}.  A bucket is a dict, not a
        # set, because a dict keeps insertion order: built from ``rows()``
        # and appended to / deleted from together with ``_rows``, every
        # bucket is a subsequence of ``rows()`` order with no sorting.
        self._indexes: dict[str, dict[object, dict[tuple, tuple]]] = {}
        # attr -> the largest int the column has held (see int_ceiling).
        self._int_ceilings: dict[str, int] = {}

    # -- size / membership ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, row: tuple) -> bool:
        key = self.schema.key_of(row)
        return self._rows.get(key) == row

    def has_key(self, key: tuple) -> bool:
        return key in self._rows

    def get(self, key: tuple) -> tuple | None:
        """Row with primary key ``key``, or ``None``."""
        return self._rows.get(key)

    def rows(self) -> Iterator[tuple]:
        """All rows, in insertion order (deterministic)."""
        return iter(self._rows.values())

    def keys(self) -> Iterator[tuple]:
        return iter(self._rows.keys())

    # -- mutation ---------------------------------------------------------------

    def insert(self, row: tuple) -> tuple:
        """Insert a row; raise :class:`KeyConstraintError` on duplicate key."""
        row = self.schema.validate_row(tuple(row))
        key = self.schema.key_of(row)
        if key in self._rows:
            raise KeyConstraintError(
                f"duplicate key {key} in relation {self.schema.name!r}"
            )
        self._rows[key] = row
        for attr, index in self._indexes.items():
            index.setdefault(row[self.schema.index_of(attr)], {})[key] = row
        for attr, ceiling in self._int_ceilings.items():
            value = row[self.schema.index_of(attr)]
            if isinstance(value, int) and value > ceiling:
                self._int_ceilings[attr] = value
        return row

    def delete_by_key(self, key: tuple) -> tuple:
        """Delete and return the row with the given primary key."""
        key = tuple(key)
        try:
            row = self._rows.pop(key)
        except KeyError:
            raise KeyConstraintError(
                f"no row with key {key} in relation {self.schema.name!r}"
            ) from None
        for attr, index in self._indexes.items():
            value = row[self.schema.index_of(attr)]
            bucket = index[value]
            del bucket[key]
            if not bucket:
                del index[value]
        return row

    def delete(self, row: tuple) -> tuple:
        """Delete a full row (must match the stored row exactly)."""
        key = self.schema.key_of(tuple(row))
        stored = self._rows.get(key)
        if stored != tuple(row):
            raise KeyConstraintError(
                f"row {row!r} not present in relation {self.schema.name!r}"
            )
        return self.delete_by_key(key)

    # -- the equality probe -------------------------------------------------------

    def _index(self, attr: str) -> dict[object, dict[tuple, tuple]]:
        """The hash index on ``attr``, built from :meth:`rows` when missing.

        Published with one dict assignment once complete.  Callers hold
        at least the read side of the service lock and every mutation
        holds the write side, so two readers that both find the index
        missing build equal ones and the later assignment wins — a
        benign race (``tests/test_stress.py`` is the guard).
        """
        index = self._indexes.get(attr)
        if index is None:
            position = self.schema.index_of(attr)  # validates
            key_of = self.schema.key_of
            index = {}
            for row in self.rows():
                index.setdefault(row[position], {})[key_of(row)] = row
            self._indexes[attr] = index
        return index

    def create_index(self, attrs: Sequence[str]) -> None:
        """Build now the indexes :meth:`lookup` would build on first use."""
        for attr in attrs:
            self._index(attr)

    def lookup(self, attrs: Sequence[str], values: Sequence) -> list[tuple]:
        """Rows whose ``attrs`` equal ``values``, in :meth:`rows` order.

        The one equality probe of the relational layer (a probe on the
        whole primary key is :meth:`get`): it reads the
        smallest single-attribute bucket among ``attrs`` (at least one)
        and filters it on the rest.  Which columns are indexed is thus
        worked out from the probes issued; there is no scan to fall back
        to — a caller with no equality iterates :meth:`rows` and says so.
        """
        lead: dict[tuple, tuple] | None = None
        for attr, value in zip(attrs, values, strict=True):
            bucket = self._index(attr).get(value)
            if bucket is None:
                return []
            if lead is None or len(bucket) < len(lead):
                lead = bucket
        if lead is None:
            raise ValueError("lookup needs at least one attribute")
        if len(attrs) == 1:
            return list(lead.values())
        checks = [(self.schema.index_of(a), v) for a, v in zip(attrs, values)]
        return [
            row
            for row in lead.values()
            if all(row[position] == value for position, value in checks)
        ]

    def int_ceiling(self, attr: str) -> int:
        """An int no smaller than any int ``attr`` holds (at least 0).

        The running maximum of the column: one pass over :meth:`rows` on
        first use, raised by :meth:`insert` after that.  A delete never
        lowers it — every value above it is still absent from the
        column, which is all a caller minting fresh values needs.
        """
        ceiling = self._int_ceilings.get(attr)
        if ceiling is None:
            position = self.schema.index_of(attr)  # validates
            ceiling = 0
            for row in self.rows():
                value = row[position]
                if isinstance(value, int) and value > ceiling:
                    ceiling = value
            self._int_ceilings[attr] = ceiling
        return ceiling

    def copy(self) -> "Table":
        """Deep-enough copy (rows are immutable tuples); indexes and
        ceilings rebuild."""
        clone = Table(self.schema)
        clone._rows = dict(self._rows)
        return clone


# ---------------------------------------------------------------------------
# Group updates (ΔR)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeltaOp:
    """One base-table operation inside a group update ``ΔR``."""

    kind: Literal["insert", "delete"]
    relation: str
    row: tuple

    def inverted(self) -> "DeltaOp":
        other = "delete" if self.kind == "insert" else "insert"
        return DeltaOp(other, self.relation, self.row)


class RelationalDelta:
    """A group update ``ΔR``: an ordered list of tuple insert/delete ops."""

    def __init__(self, ops: Iterable[DeltaOp] = ()):
        self.ops: list[DeltaOp] = list(ops)

    def insert(self, relation: str, row: tuple) -> None:
        self.ops.append(DeltaOp("insert", relation, tuple(row)))

    def delete(self, relation: str, row: tuple) -> None:
        self.ops.append(DeltaOp("delete", relation, tuple(row)))

    def extend(self, other: "RelationalDelta") -> None:
        self.ops.extend(other.ops)

    def inverted(self) -> "RelationalDelta":
        """The delta undoing this one (ops reversed and inverted)."""
        return RelationalDelta(op.inverted() for op in reversed(self.ops))

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[DeltaOp]:
        return iter(self.ops)

    def __bool__(self) -> bool:
        return bool(self.ops)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RelationalDelta({self.ops!r})"


class Database:
    """A named collection of :class:`Table` instances."""

    def __init__(self, name: str = "db"):
        self.name = name
        self._tables: dict[str, Table] = {}

    # -- schema management ------------------------------------------------------

    def create_table(self, schema: RelationSchema) -> Table:
        if schema.name in self._tables:
            raise SchemaError(f"relation {schema.name!r} already exists")
        table = Table(schema)
        self._tables[schema.name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownRelationError(f"no relation named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> list[str]:
        return list(self._tables)

    def schema(self, name: str) -> RelationSchema:
        return self.table(name).schema

    # -- convenience row operations ----------------------------------------------

    def insert(self, relation: str, row: tuple) -> tuple:
        return self.table(relation).insert(row)

    def insert_all(self, relation: str, rows: Iterable[tuple]) -> None:
        table = self.table(relation)
        for row in rows:
            table.insert(row)

    def delete(self, relation: str, row: tuple) -> tuple:
        return self.table(relation).delete(row)

    def rows(self, relation: str) -> list[tuple]:
        return list(self.table(relation).rows())

    def size(self) -> int:
        """Total number of rows across all tables."""
        return sum(len(t) for t in self._tables.values())

    # -- group updates -------------------------------------------------------------

    def apply(self, delta: RelationalDelta) -> None:
        """Apply ``ΔR`` atomically: on failure, completed ops are undone."""
        done: list[DeltaOp] = []
        try:
            for op in delta:
                if op.kind == "insert":
                    self.table(op.relation).insert(op.row)
                else:
                    self.table(op.relation).delete(op.row)
                done.append(op)
        except Exception:
            for op in reversed(done):
                inv = op.inverted()
                if inv.kind == "insert":
                    self.table(inv.relation).insert(inv.row)
                else:
                    self.table(inv.relation).delete(inv.row)
            raise

    def copy(self) -> "Database":
        clone = Database(self.name)
        clone._tables = {name: table.copy() for name, table in self._tables.items()}
        return clone

    # -- durable state (WAL checkpoints) -------------------------------------------

    def export_state(self) -> dict:
        """The complete row state, JSON-safe (schemas are code, not data).

        Rows travel as lists in table insertion order, so replaying the
        same ΔR stream against a database restored via
        :meth:`load_state` reproduces the original byte-for-byte —
        iteration order included.  The inverse of :meth:`load_state`.
        """
        return {
            "name": self.name,
            "tables": {
                name: [list(row) for row in table.rows()]
                for name, table in self._tables.items()
            },
        }

    def load_state(self, state: dict) -> None:
        """Replace every table's rows with :meth:`export_state` output.

        The schemas of the *existing* tables are kept (their indexes and
        int ceilings are dropped and rebuild on the next probe) — like a
        replica's ATG, the schema is constructed by code and only the
        data is restored.
        A state naming a relation this database does not define raises
        :class:`~repro.errors.SchemaError`; rows are validated against
        each table's schema as they are inserted.
        """
        tables = state.get("tables")
        if not isinstance(tables, dict):
            raise SchemaError(
                f"database state must carry a 'tables' object, "
                f"got {tables!r}"
            )
        unknown = sorted(set(tables) - set(self._tables))
        if unknown:
            raise SchemaError(
                f"database state names unknown relation(s): {unknown}"
            )
        for name, table in self._tables.items():
            rows = tables.get(name, [])
            table._rows.clear()
            table._indexes.clear()
            table._int_ceilings.clear()
            for row in rows:
                table.insert(tuple(row))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = ", ".join(f"{n}[{len(t)}]" for n, t in self._tables.items())
        return f"Database({self.name}: {parts})"
