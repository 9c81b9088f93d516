"""Relation schemas: typed attributes and primary keys.

A :class:`RelationSchema` describes one relation: its name, an ordered list
of typed attributes, and the subset of attributes forming the primary key.
Rows are plain Python tuples positionally aligned with the schema; the
schema provides the index arithmetic (attribute lookup, key extraction,
projection) so that the hot paths stay tuple-based.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import SchemaError


class AttrType(enum.Enum):
    """Column types supported by the engine.

    ``BOOL`` is singled out because the insertion translator (paper,
    Section 4.3) treats attributes with a *finite* domain specially: only
    finite-domain variables are encoded into the SAT instance.
    """

    INT = "int"
    STR = "str"
    BOOL = "bool"
    FLOAT = "float"

    @property
    def python_type(self) -> type:
        return _PYTHON_TYPES[self]

    @property
    def is_finite(self) -> bool:
        """Whether the domain of this type is finite (drives SAT encoding)."""
        return self is AttrType.BOOL

    def domain(self) -> tuple[object, ...]:
        """All values of a finite domain; raises for infinite domains."""
        if self is AttrType.BOOL:
            return (False, True)
        raise SchemaError(f"type {self.value} has an infinite domain")


_PYTHON_TYPES = {
    AttrType.INT: int,
    AttrType.STR: str,
    AttrType.BOOL: bool,
    AttrType.FLOAT: float,
}


@dataclass(frozen=True)
class Attribute:
    """A named, typed column of a relation."""

    name: str
    type: AttrType

    def accepts(self, value: object) -> bool:
        """Whether ``value`` is a member of this attribute's domain."""
        expected = self.type.python_type
        if self.type is AttrType.INT:
            # bool is a subclass of int in Python; reject it for INT columns.
            return isinstance(value, int) and not isinstance(value, bool)
        if self.type is AttrType.FLOAT:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        return isinstance(value, expected)


class RelationSchema:
    """Schema of one relation: name, ordered attributes, primary key.

    Parameters
    ----------
    name:
        Relation name, unique within a :class:`~repro.relational.Database`.
    attributes:
        Ordered ``(name, type)`` pairs (or :class:`Attribute` objects).
    key:
        Names of the attributes forming the primary key.  Must be a
        non-empty subset of the attribute names.
    """

    def __init__(
        self,
        name: str,
        attributes: Sequence[tuple[str, AttrType] | Attribute],
        key: Sequence[str],
    ):
        if not name:
            raise SchemaError("relation name must be non-empty")
        attrs: list[Attribute] = []
        for item in attributes:
            attr = item if isinstance(item, Attribute) else Attribute(*item)
            attrs.append(attr)
        names = [attr.name for attr in attrs]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in relation {name!r}")
        if not attrs:
            raise SchemaError(f"relation {name!r} must have at least one attribute")
        key = tuple(key)
        if not key:
            raise SchemaError(f"relation {name!r} must declare a primary key")
        missing = [attr for attr in key if attr not in names]
        if missing:
            raise SchemaError(f"key attributes {missing} not in relation {name!r}")
        if len(set(key)) != len(key):
            raise SchemaError(f"duplicate key attributes in relation {name!r}")

        self.name = name
        self.attributes: tuple[Attribute, ...] = tuple(attrs)
        self.key: tuple[str, ...] = key
        self._index = {attr.name: i for i, attr in enumerate(attrs)}
        self.key_indexes: tuple[int, ...] = tuple(self._index[k] for k in key)
        # Immutable, and part of every SPJ plan-cache key: hash it once.
        self._hash = hash((name, self.attributes, key))

    # -- attribute arithmetic -------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.attributes)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(attr.name for attr in self.attributes)

    def __contains__(self, attr_name: str) -> bool:
        return attr_name in self._index

    def index_of(self, attr_name: str) -> int:
        """Position of attribute ``attr_name`` in a row tuple."""
        try:
            return self._index[attr_name]
        except KeyError:
            raise SchemaError(
                f"relation {self.name!r} has no attribute {attr_name!r}"
            ) from None

    def attribute(self, attr_name: str) -> Attribute:
        return self.attributes[self.index_of(attr_name)]

    # -- row helpers ----------------------------------------------------------

    def validate_row(self, row: tuple) -> tuple:
        """Check arity and per-column types; return the row unchanged."""
        if len(row) != self.arity:
            raise SchemaError(
                f"row arity {len(row)} != schema arity {self.arity} "
                f"for relation {self.name!r}"
            )
        for attr, value in zip(self.attributes, row):
            if not attr.accepts(value):
                raise SchemaError(
                    f"value {value!r} not valid for attribute "
                    f"{self.name}.{attr.name} of type {attr.type.value}"
                )
        return row

    def key_of(self, row: tuple) -> tuple:
        """Extract the primary-key sub-tuple of ``row``."""
        return tuple(row[i] for i in self.key_indexes)

    def project(self, row: tuple, attr_names: Iterable[str]) -> tuple:
        """Project ``row`` onto the given attributes, in the given order."""
        return tuple(row[self.index_of(a)] for a in attr_names)

    def row_from_dict(self, values: dict[str, object]) -> tuple:
        """Build a row tuple from an attribute-name → value mapping."""
        extra = set(values) - set(self.attribute_names)
        if extra:
            raise SchemaError(
                f"unknown attributes {sorted(extra)} for relation {self.name!r}"
            )
        missing = [a for a in self.attribute_names if a not in values]
        if missing:
            raise SchemaError(
                f"missing attributes {missing} for relation {self.name!r}"
            )
        return self.validate_row(tuple(values[a] for a in self.attribute_names))

    def as_dict(self, row: tuple) -> dict[str, object]:
        """Present a row tuple as an attribute-name → value mapping."""
        return dict(zip(self.attribute_names, row))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cols = ", ".join(f"{a.name}:{a.type.value}" for a in self.attributes)
        return f"RelationSchema({self.name}({cols}), key={self.key})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RelationSchema)
            and self.name == other.name
            and self.attributes == other.attributes
            and self.key == other.key
        )

    def __hash__(self) -> int:
        return self._hash

    def __setstate__(self, state: dict) -> None:
        # A string's hash differs between processes: re-take it on load.
        self.__dict__.update(state)
        self._hash = hash((self.name, self.attributes, self.key))
