"""Equality atoms over canonical unknowns: what clauses are made of.

Algorithm insert (paper, Section 4.3) states its constraint as clauses
over equality atoms between unknown attribute values (:class:`SymVar`)
and constants.  It decides them in the equality domain itself and hands
only the clauses left over BOOL unknowns to the CNF encoder
(:mod:`repro.sat.encode`); both sides speak these types, so they live
below both.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.relational.schema import AttrType


class SymVar:
    """A canonical unknown: attribute ``attr`` of base tuple (relation, key).

    Equal by its four fields.  The hash is worked out once: a variable
    is hashed on every dictionary probe of the solve, and
    :class:`AttrType`'s hash is a Python-level call.  ``name`` and
    ``order`` are worked out on first use, since a prepared insertion
    makes its variables on every call and sorts them only when it is
    prepared.  ``order`` is the total sort key unknowns are put in — by
    ``name`` first, then by the fields two distinct unknowns with one
    name (``r.a_b_c.x`` for keys ``("a_b", "c")`` and ``("a", "b_c")``)
    differ in, so no order depends on the hash seed.
    """

    __slots__ = ("relation", "key", "attr", "attr_type", "_order", "_hash")

    def __init__(self, relation: str, key: tuple, attr: str, attr_type: AttrType):
        self.relation = relation
        self.key = key
        self.attr = attr
        self.attr_type = attr_type
        self._order = None
        self._hash = hash((relation, key, attr))

    @property
    def name(self) -> str:
        return f"{self.relation}.{'_'.join(map(str, self.key))}.{self.attr}"

    @property
    def order(self) -> tuple:
        order = self._order
        if order is None:
            order = self._order = (self.name, self.relation, repr(self.key), self.attr)
        return order

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, SymVar):
            return NotImplemented
        return (
            self._hash == other._hash
            and self.relation == other.relation
            and self.key == other.key
            and self.attr == other.attr
            and self.attr_type is other.attr_type
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (
            f"SymVar(relation={self.relation!r}, key={self.key!r}, "
            f"attr={self.attr!r}, attr_type={self.attr_type!r})"
        )

    def __str__(self) -> str:
        return self.name


# Atoms: at least one side is a SymVar.
@dataclass(frozen=True)
class AtomVC:
    """``var = const``."""

    var: SymVar
    const: object

    def __str__(self) -> str:
        return f"{self.var}={self.const!r}"


@dataclass(frozen=True)
class AtomVV:
    """``a = b`` between two variables."""

    a: SymVar
    b: SymVar

    def __str__(self) -> str:
        return f"{self.a}={self.b}"


Atom = AtomVC | AtomVV


def make_atom(left: object, right: object) -> Atom | bool:
    """Build the atom for ``left = right``; booleans for decided cases."""
    left_var = isinstance(left, SymVar)
    right_var = isinstance(right, SymVar)
    if left_var and right_var:
        if left == right:
            return True
        if left.order <= right.order:
            return AtomVV(left, right)
        return AtomVV(right, left)
    if left_var:
        return AtomVC(left, right)
    if right_var:
        return AtomVC(right, left)
    return left == right
