"""CNF formulas over positive integer variables.

A literal is a non-zero int (DIMACS convention: ``-v`` negates variable
``v``); a clause is a tuple of literals; a CNF is a list of clauses plus
the variable count.
"""

from __future__ import annotations

from typing import Iterable, Iterator

Lit = int
Clause = tuple[Lit, ...]


class CNF:
    """A CNF formula under construction."""

    def __init__(self) -> None:
        self.clauses: list[Clause] = []
        self.num_vars = 0

    def new_var(self) -> int:
        """Allocate a fresh variable; returns its (positive) index."""
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, literals: Iterable[Lit]) -> None:
        clause = tuple(literals)
        if not clause:
            # An empty clause makes the formula trivially unsatisfiable;
            # keep it so solvers detect the contradiction.
            self.clauses.append(clause)
            return
        for lit in clause:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            self.num_vars = max(self.num_vars, abs(lit))
        self.clauses.append(clause)

    def add_exactly_one(self, variables: list[int]) -> None:
        """Exactly-one constraint: at-least-one + pairwise at-most-one."""
        self.add_clause(variables)
        for i in range(len(variables)):
            for j in range(i + 1, len(variables)):
                self.add_clause((-variables[i], -variables[j]))

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def is_satisfied_by(self, assignment: dict[int, bool]) -> bool:
        """Whether a (total) assignment satisfies every clause."""
        for clause in self.clauses:
            if not any(
                assignment.get(abs(lit), False) == (lit > 0) for lit in clause
            ):
                return False
        return True
