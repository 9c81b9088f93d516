"""Keyed tables, secondary indexes and the database container.

A :class:`Table` stores rows keyed by their primary key and enforces the
key constraint on insertion — the paper's insertion translation relies on
this ("a unique tuple ... needs to be inserted into the base relation R for
each i due to the key constraint on R", proof of Theorem 2).  Secondary
hash indexes accelerate the point lookups performed by the SPJ evaluator
and the view-update translators.

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
    """One relation instance: keyed rows plus secondary hash indexes."""

    def __init__(self, schema: RelationSchema):
        self.schema = schema
        self._rows: dict[tuple, tuple] = {}
        # index attrs -> value-tuple -> set of primary keys
        self._indexes: dict[tuple[str, ...], dict[tuple, set[tuple]]] = {}
        # primary key -> insertion rank (monotone, never reused): lets an
        # index probe hand its rows back in ``rows()`` order.
        self._rank: dict[tuple, int] = {}
        self._next_rank = 0

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
        self._rank[key] = self._next_rank
        self._next_rank += 1
        for attrs, index in self._indexes.items():
            index.setdefault(self.schema.project(row, attrs), set()).add(key)
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
        del self._rank[key]
        for attrs, index in self._indexes.items():
            value = self.schema.project(row, attrs)
            bucket = index.get(value)
            if bucket is not None:
                bucket.discard(key)
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

    # -- secondary indexes --------------------------------------------------------

    def create_index(self, attrs: Sequence[str]) -> None:
        """Create (or no-op if present) a hash index on ``attrs``."""
        attrs = tuple(attrs)
        for attr in attrs:
            self.schema.index_of(attr)  # validates
        if attrs in self._indexes:
            return
        index: dict[tuple, set[tuple]] = {}
        for key, row in self._rows.items():
            index.setdefault(self.schema.project(row, attrs), set()).add(key)
        self._indexes[attrs] = index

    def has_index(self, attrs: Sequence[str]) -> bool:
        return tuple(attrs) in self._indexes

    def lookup(self, attrs: Sequence[str], values: tuple) -> list[tuple]:
        """Rows whose ``attrs`` projection equals ``values``.

        Uses a secondary index when one exists, otherwise scans.
        """
        attrs = tuple(attrs)
        index = self._indexes.get(attrs)
        if index is not None:
            keys = index.get(tuple(values), ())
            return [self._rows[k] for k in keys]
        return [
            row
            for row in self._rows.values()
            if self.schema.project(row, attrs) == tuple(values)
        ]

    def prober(self, attrs: Sequence[str]):
        """A point-lookup function for joins, or ``None`` without an index.

        The returned ``probe(values)`` lists the rows whose ``attrs``
        projection equals ``values`` **in** :meth:`rows` **order**, read
        through the most selective single-attribute index among
        ``attrs`` (most distinct values) and filtered on the rest — what
        hashing the whole table on ``attrs`` and looking ``values`` up
        would return, at the cost of one bucket instead of ``|table|``.
        """
        indexed = [
            (len(self._indexes[(attr,)]), i)
            for i, attr in enumerate(attrs)
            if (attr,) in self._indexes
        ]
        if not indexed:
            return None
        _, lead = max(indexed)
        index = self._indexes[(attrs[lead],)]
        positions = [self.schema.index_of(attr) for attr in attrs]
        rows, rank, key_of = self._rows, self._rank, self.schema.key_of

        def probe(values: tuple) -> list[tuple]:
            found = [
                row
                for row in map(rows.__getitem__, index.get((values[lead],), ()))
                if all(row[p] == v for p, v in zip(positions, values))
            ]
            if len(found) > 1:
                found.sort(key=lambda row: rank[key_of(row)])
            return found

        return probe

    def copy(self) -> "Table":
        """Deep-enough copy (rows are immutable tuples)."""
        clone = Table(self.schema)
        clone._rows = dict(self._rows)
        clone._rank = dict(self._rank)
        clone._next_rank = self._next_rank
        for attrs in self._indexes:
            clone.create_index(attrs)
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

        The schemas (and secondary indexes) of the *existing* tables are
        kept — like a replica's ATG, the schema is constructed by code
        and only the data is restored.  A state naming a relation this
        database does not define raises
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
            table._rank.clear()
            for index in table._indexes.values():
                index.clear()
            for row in rows:
                table.insert(tuple(row))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = ", ".join(f"{n}[{len(t)}]" for n, t in self._tables.items())
        return f"Database({self.name}: {parts})"
