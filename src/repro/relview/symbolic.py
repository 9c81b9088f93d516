"""Symbolic tuples and equality atoms for the insertion translator.

Tuple templates (paper, Section 4.3) are base rows in which unknown
attribute values are *variables*.  A variable is canonical per
``(relation, key, attribute)`` — the same unknown cell is the same
variable no matter which target edge or derivation mentions it, which
makes cross-edge consistency automatic.

Conditions are clauses over equality atoms between variables and
constants.  Algorithm insert decides them in the equality domain and
hands only what is left over BOOL unknowns to the CNF encoder
(:mod:`repro.sat.encode`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.relational.schema import AttrType


class SymVar:
    """A canonical unknown: attribute ``attr`` of base tuple (relation, key).

    Equal by its four fields.  ``name``, ``order`` and the hash are
    worked out once: a variable is hashed on every dictionary probe of
    the solve, and :class:`AttrType`'s hash is a Python-level call.
    ``order`` is the total sort key unknowns are put in — by ``name``
    first, then by the fields two distinct unknowns with one name
    (``r.a_b_c.x`` for keys ``("a_b", "c")`` and ``("a", "b_c")``)
    differ in, so no order depends on the hash seed.
    """

    __slots__ = ("relation", "key", "attr", "attr_type", "name", "order", "_hash")

    def __init__(self, relation: str, key: tuple, attr: str, attr_type: AttrType):
        self.relation = relation
        self.key = key
        self.attr = attr
        self.attr_type = attr_type
        self.name = f"{relation}.{'_'.join(map(str, key))}.{attr}"
        self.order = (self.name, relation, repr(key), attr)
        self._hash = hash((relation, key, attr))

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


@dataclass
class Template:
    """A tuple template: a base row with possible :class:`SymVar` cells."""

    relation: str
    key: tuple
    values: tuple  # mix of concrete values and SymVar
    is_new: bool
    """True if the key is absent from the base table (a U_i template)."""

    def variables(self) -> list[SymVar]:
        return [v for v in self.values if isinstance(v, SymVar)]

    def instantiate(self, valuation: dict[SymVar, object]) -> tuple:
        return tuple(
            valuation[v] if isinstance(v, SymVar) else v for v in self.values
        )


@dataclass
class Derivation:
    """One symbolic derivation of a view row.

    ``row`` may contain variables; ``atoms`` is the conjunction of
    equality atoms under which the derivation actually produces the row,
    without duplicates, in the order the view's conjuncts produced them
    (never in a set's order, which would follow the hash seed).
    """

    view_name: str
    row: tuple
    atoms: tuple[Atom, ...]
