"""A complete DPLL SAT solver with unit propagation.

The solver insertion translation hands its BOOL residue to (the
clauses the equality classes leave undecided over BOOL unknowns).  It
is complete, so a rejection means UNSAT and never "gave up" (WalkSAT's
failure mode), and deterministic, so a ΔR depends on nothing but its
input.  Theorem 2 makes the underlying problem NP-complete; a complete
search is cheap only because the residues are small: their size depends
on ``|ΔV|`` and ``|Q|``, not on the database.
"""

from __future__ import annotations

import sys

from repro.sat.cnf import CNF


def dpll_solve(cnf: CNF) -> dict[int, bool] | None:
    """Solve; return a satisfying assignment or ``None`` if unsatisfiable."""
    clauses = [frozenset(c) for c in cnf.clauses]
    if any(not c for c in clauses):
        return None
    # Recursion depth is bounded by the variable count; raise the limit
    # defensively for larger encodings.
    limit = sys.getrecursionlimit()
    needed = cnf.num_vars * 2 + 100
    if needed > limit:
        sys.setrecursionlimit(needed)
    result = _solve([set(c) for c in clauses], {})
    if result is None:
        return None
    for var in range(1, cnf.num_vars + 1):
        result.setdefault(var, False)
    return result


def _simplify(clauses: list[set[int]], lit: int) -> list[set[int]] | None:
    """Assert ``lit``; drop satisfied clauses, shrink the rest.

    Returns ``None`` on an empty-clause conflict.
    """
    out: list[set[int]] = []
    for clause in clauses:
        if lit in clause:
            continue
        if -lit in clause:
            reduced = clause - {-lit}
            if not reduced:
                return None
            out.append(reduced)
        else:
            out.append(clause)
    return out


def _solve(
    clauses: list[set[int]], assignment: dict[int, bool]
) -> dict[int, bool] | None:
    # Unit propagation to fixpoint.
    while True:
        unit = next((c for c in clauses if len(c) == 1), None)
        if unit is None:
            break
        lit = next(iter(unit))
        assignment[abs(lit)] = lit > 0
        reduced = _simplify(clauses, lit)
        if reduced is None:
            return None
        clauses = reduced
    if not clauses:
        return assignment
    # Pure-literal elimination.
    polarity: dict[int, int] = {}
    for clause in clauses:
        for lit in clause:
            var = abs(lit)
            sign = 1 if lit > 0 else -1
            polarity[var] = 0 if polarity.get(var, sign) != sign else sign
    pure = next((v for v, s in polarity.items() if s != 0), None)
    if pure is not None:
        lit = pure * polarity[pure]
        assignment[abs(lit)] = lit > 0
        reduced = _simplify(clauses, lit)
        if reduced is None:  # pragma: no cover - cannot conflict on pure
            return None
        return _solve(reduced, assignment)
    # Branch on a literal from the shortest clause.
    shortest = min(clauses, key=len)
    lit = next(iter(shortest))
    for choice in (lit, -lit):
        reduced = _simplify(clauses, choice)
        if reduced is not None:
            trial = dict(assignment)
            trial[abs(choice)] = choice > 0
            result = _solve(reduced, trial)
            if result is not None:
                return result
    return None
