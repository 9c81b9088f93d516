"""SAT substrate for the insertion translator (paper, Section 4.3).

The paper reduces SPJ view insertion to SAT and hands the instance to
Walksat.  Walksat is a closed-source external binary, so this package
reimplements everything from scratch:

- :mod:`repro.sat.cnf` — CNF formulas, literals, assignments;
- :mod:`repro.sat.dpll` — a complete, deterministic DPLL solver with
  unit propagation and pure-literal elimination: the one solver
  insertion translation runs;
- :mod:`repro.sat.walksat` — WalkSAT stochastic local search with the
  classic noise parameter and restarts (the paper's solver, kept for
  comparison);
- :mod:`repro.sat.encode` — clauses over equality atoms → CNF (direct
  encoding with at-least-one / at-most-one clauses, the construction
  sketched at the end of Section 4.3).
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
