"""SAT substrate for the insertion translator (paper, Section 4.3).

The paper reduces SPJ view insertion to SAT and hands the instance to
Walksat.  Algorithm insert (:mod:`repro.relview.insert`) now decides
its equality atoms itself — a union-find over the positive units, every
other unknown a fresh value — and only the clauses left over BOOL
unknowns, the finite-domain part where Theorem 2's NP-hardness lives,
reach this package.  Walksat is a closed-source external binary, so
everything here is reimplemented from scratch:

- :mod:`repro.sat.atoms` — the equality atoms over canonical unknowns
  that Algorithm insert's clauses are made of;
- :mod:`repro.sat.cnf` — CNF formulas, literals, assignments;
- :mod:`repro.sat.dpll` — a complete, deterministic DPLL solver with
  unit propagation and pure-literal elimination: the solver the BOOL
  residue goes to;
- :mod:`repro.sat.walksat` — WalkSAT stochastic local search with the
  classic noise parameter and restarts (the paper's solver, kept for
  comparison);
- :mod:`repro.sat.encode` — clauses over equality atoms → CNF (direct
  encoding with at-least-one / at-most-one clauses, the construction
  sketched at the end of Section 4.3), over any finite domains; the
  residue's are ``(False, True)``.
"""

from repro.sat.cnf import CNF, Clause, Lit
from repro.sat.dpll import dpll_solve
from repro.sat.walksat import walksat_solve
from repro.sat.encode import AtomClause, encode_formula

__all__ = [
    "CNF",
    "Clause",
    "Lit",
    "dpll_solve",
    "walksat_solve",
    "AtomClause",
    "encode_formula",
]
