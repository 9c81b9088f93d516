"""Clauses over equality atoms → CNF (the direct encoding of §4.3).

Algorithm insert's constraint is already a conjunction of clauses over
equality atoms between unknown attribute values and constants
(:class:`~repro.sat.atoms.AtomVC` ``var = const`` and
:class:`~repro.sat.atoms.AtomVV` ``a = b``): an assertion or a
target's atom is a unit clause, and a side-effect derivation is one
clause of negated atoms.  A clause is a tuple of ``(atom, positive)``
pairs.  This module encodes such clauses as the paper does:

- every variable ``v`` with domain ``{c1..ck}`` gets selector
  propositions ``p_{v=ci}`` under an exactly-one constraint (the paper's
  "x = c1 ∨ ... ∨ x = ck" plus the pairwise "(p̄ ∨ p̄')" clauses),
  variables in :attr:`~repro.sat.atoms.SymVar.order`;
- every distinct atom gets one literal: ``v = c`` is the selector of
  ``c`` (false when ``c`` is outside the domain), ``v = w`` one
  proposition equivalent to agreement on a common domain value;
- every input clause becomes one CNF clause over those literals.

Algorithm insert decides atoms over *infinite* domains in the equality
domain (:func:`repro.relview.insert._solve`) and encodes only what is
left over BOOL unknowns, each with the domain ``(False, True)``;
``tests/uncompiled.py`` keeps the finite abstraction that once gave every
unknown a domain (its component's constants plus fresh tokens) as a
test reference.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from repro.sat.atoms import Atom, AtomVC, SymVar
from repro.sat.cnf import CNF

AtomClause = tuple[tuple[Atom, bool], ...]


def encode_formula(
    clauses: Sequence[AtomClause], domains: Mapping[SymVar, tuple]
) -> tuple[CNF, Callable[[Mapping[int, bool]], dict[SymVar, object]]]:
    """Encode ``clauses`` over the given per-variable domains.

    Returns the CNF and a decoder from a model of it to one domain value
    per variable.
    """
    cnf = CNF()
    selectors: dict[SymVar, list[int]] = {}
    for var in sorted(domains, key=lambda v: v.order):
        if not domains[var]:
            raise ValueError(f"variable {var} has an empty domain")
        selectors[var] = [cnf.new_var() for _ in domains[var]]
        cnf.add_exactly_one(selectors[var])
    literals: dict[Atom, int | None] = {}
    for clause in clauses:
        lits: list[int] = []
        for atom, positive in clause:
            if atom not in literals:
                literals[atom] = _atom_literal(atom, domains, selectors, cnf)
            lit = literals[atom]
            if lit is not None:
                lits.append(lit if positive else -lit)
            elif not positive:
                break  # a false atom, negated: the clause holds
        else:
            cnf.add_clause(lits)

    def decode(model: Mapping[int, bool]) -> dict[SymVar, object]:
        return {
            var: next(
                value
                for value, prop in zip(domains[var], props)
                if model.get(prop, False)
            )
            for var, props in selectors.items()
        }

    return cnf, decode


def _atom_literal(
    atom: Atom,
    domains: Mapping[SymVar, tuple],
    selectors: dict[SymVar, list[int]],
    cnf: CNF,
) -> int | None:
    """The literal of ``atom``; ``None`` for an atom that cannot hold."""
    if isinstance(atom, AtomVC):
        return next(
            (
                prop
                for value, prop in zip(domains[atom.var], selectors[atom.var])
                if value == atom.const
            ),
            None,
        )
    aux = cnf.new_var()
    prop_b = dict(zip(domains[atom.b], selectors[atom.b]))
    # aux → (a=c → b=c) for every c in dom(a)
    for value, pa in zip(domains[atom.a], selectors[atom.a]):
        pb = prop_b.get(value)
        if pb is None:
            cnf.add_clause((-aux, -pa))
        else:
            cnf.add_clause((-aux, -pa, pb))
            # (a=c ∧ b=c) → aux
            cnf.add_clause((aux, -pa, -pb))
    return aux
