"""Symbolic tuples and derivations for the insertion translator.

Tuple templates (paper, Section 4.3) are base rows in which unknown
attribute values are *variables*.  A variable is canonical per
``(relation, key, attribute)`` — the same unknown cell is the same
variable no matter which target edge or derivation mentions it, which
makes cross-edge consistency automatic.

Conditions are clauses over the equality atoms of
:mod:`repro.sat.atoms`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sat.atoms import Atom, SymVar


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
