"""Symbolic tuples and equality atoms for the insertion translator.

Tuple templates (paper, Section 4.3) are base rows in which unknown
attribute values are *variables*.  A variable is canonical per
``(relation, key, attribute)`` — the same unknown cell is the same
variable no matter which target edge or derivation mentions it, which
makes cross-edge consistency automatic.

Conditions are clauses over equality atoms between variables and
constants; they feed the CNF encoder (:mod:`repro.sat.encode`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.relational.schema import AttrType


@dataclass(frozen=True)
class SymVar:
    """A canonical unknown: attribute ``attr`` of base tuple (relation, key)."""

    relation: str
    key: tuple
    attr: str
    attr_type: AttrType

    @property
    def name(self) -> str:
        key_text = "_".join(str(k) for k in self.key)
        return f"{self.relation}.{key_text}.{self.attr}"

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class FreshToken:
    """Placeholder for "any value distinct from all constants".

    The ``index``-th fresh value of the equality component whose first
    variable (in name order) is ``var``.  It compares equal to no
    constant, and is decoded to a concrete unused value at ΔR extraction
    time.
    """

    var: SymVar
    index: int = 0

    def __str__(self) -> str:
        return f"⋆{self.var.name}/{self.index}"


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
        a, b = sorted((left, right), key=lambda v: v.name)
        return AtomVV(a, b)
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
    without duplicates and in ``repr`` order (a set would hand the CNF
    encoder a hash-seed-dependent literal order).
    """

    view_name: str
    row: tuple
    atoms: tuple[Atom, ...]
    uses_new: bool = True
    meta: dict = field(default_factory=dict)
