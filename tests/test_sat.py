"""Tests for the SAT substrate: CNF, DPLL, WalkSAT, finite-domain encoding."""

import itertools
import random

import pytest

from repro.relational.schema import AttrType
from repro.sat.atoms import AtomVC, AtomVV, SymVar
from repro.sat.cnf import CNF
from repro.sat.dpll import dpll_solve
from repro.sat.encode import encode_formula
from repro.sat.walksat import walksat_solve


def brute_force(cnf: CNF) -> bool:
    """Exhaustive satisfiability check (oracle for tiny instances)."""
    for bits in itertools.product([False, True], repeat=cnf.num_vars):
        assignment = {i + 1: bits[i] for i in range(cnf.num_vars)}
        if cnf.is_satisfied_by(assignment):
            return True
    return False


def make_cnf(clauses):
    cnf = CNF()
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


class TestCNF:
    def test_new_var(self):
        cnf = CNF()
        assert cnf.new_var() == 1
        assert cnf.new_var() == 2

    def test_add_clause_tracks_vars(self):
        cnf = make_cnf([(1, -3)])
        assert cnf.num_vars == 3
        assert len(cnf) == 1

    def test_zero_literal_rejected(self):
        cnf = CNF()
        with pytest.raises(ValueError):
            cnf.add_clause((0,))

    def test_exactly_one(self):
        cnf = CNF()
        a, b, c = cnf.new_var(), cnf.new_var(), cnf.new_var()
        cnf.add_exactly_one([a, b, c])
        assert cnf.is_satisfied_by({a: True, b: False, c: False})
        assert not cnf.is_satisfied_by({a: True, b: True, c: False})
        assert not cnf.is_satisfied_by({a: False, b: False, c: False})

    def test_dimacs(self):
        cnf = make_cnf([(1, -2)])
        text = cnf.to_dimacs()
        assert text.splitlines()[0] == "p cnf 2 1"
        assert "1 -2 0" in text


class TestDPLL:
    def test_trivial_sat(self):
        assert dpll_solve(make_cnf([(1,)])) == {1: True}

    def test_trivial_unsat(self):
        assert dpll_solve(make_cnf([(1,), (-1,)])) is None

    def test_empty_clause_unsat(self):
        cnf = CNF()
        cnf.add_clause(())
        assert dpll_solve(cnf) is None

    def test_empty_formula_sat(self):
        assert dpll_solve(CNF()) == {}

    def test_unit_propagation_chain(self):
        cnf = make_cnf([(1,), (-1, 2), (-2, 3)])
        model = dpll_solve(cnf)
        assert model[1] and model[2] and model[3]

    def test_model_is_verified(self):
        cnf = make_cnf([(1, 2), (-1, 3), (-2, -3), (2, 3)])
        model = dpll_solve(cnf)
        assert model is not None
        assert cnf.is_satisfied_by(model)

    def test_pigeonhole_unsat(self):
        # 3 pigeons in 2 holes: variables p_ij (pigeon i in hole j).
        cnf = CNF()
        var = {}
        for i in range(3):
            for j in range(2):
                var[(i, j)] = cnf.new_var()
        for i in range(3):
            cnf.add_clause([var[(i, j)] for j in range(2)])
        for j in range(2):
            for i1 in range(3):
                for i2 in range(i1 + 1, 3):
                    cnf.add_clause((-var[(i1, j)], -var[(i2, j)]))
        assert dpll_solve(cnf) is None

    @pytest.mark.parametrize("seed", range(8))
    def test_random_3sat_matches_bruteforce(self, seed):
        rng = random.Random(seed)
        n_vars, n_clauses = 6, 14
        cnf = CNF()
        for _ in range(n_clauses):
            clause = tuple(
                rng.choice([1, -1]) * rng.randint(1, n_vars)
                for _ in range(3)
            )
            cnf.add_clause(clause)
        cnf.num_vars = n_vars
        model = dpll_solve(cnf)
        assert (model is not None) == brute_force(cnf)
        if model is not None:
            assert cnf.is_satisfied_by(model)


class TestWalkSAT:
    def test_finds_easy_model(self):
        cnf = make_cnf([(1, 2), (-1, 3), (2, -3)])
        model = walksat_solve(cnf, rng=random.Random(0))
        assert model is not None
        assert cnf.is_satisfied_by(model)

    def test_empty_clause_gives_up(self):
        cnf = CNF()
        cnf.add_clause(())
        assert walksat_solve(cnf) is None

    def test_unsat_gives_up_without_crash(self):
        cnf = make_cnf([(1,), (-1,)])
        assert walksat_solve(cnf, max_flips=100, max_restarts=2) is None

    def test_empty_formula(self):
        assert walksat_solve(CNF()) == {}

    @pytest.mark.parametrize("seed", range(6))
    def test_random_satisfiable_instances(self, seed):
        # Plant a solution, generate clauses satisfied by it.
        rng = random.Random(seed)
        n_vars = 12
        planted = {v: rng.random() < 0.5 for v in range(1, n_vars + 1)}
        cnf = CNF()
        for _ in range(40):
            vs = rng.sample(range(1, n_vars + 1), 3)
            clause = []
            for v in vs:
                sign = 1 if rng.random() < 0.5 else -1
                clause.append(v * sign)
            # Ensure at least one literal agrees with the planted model.
            v = vs[0]
            clause[0] = v if planted[v] else -v
            cnf.add_clause(clause)
        model = walksat_solve(cnf, rng=random.Random(seed + 100))
        assert model is not None
        assert cnf.is_satisfied_by(model)


def sym(name):
    return SymVar("r", (name,), "a", AttrType.STR)


class TestEncoding:
    """Clauses are tuples of ``(atom, positive)``."""

    def _solve(self, clauses, domains):
        cnf, decode = encode_formula(clauses, domains)
        model = dpll_solve(cnf)
        if model is None:
            return None
        return decode(model)

    def test_var_const(self):
        x = sym("x")
        values = self._solve([((AtomVC(x, "b"), True),)], {x: ("a", "b")})
        assert values == {x: "b"}

    def test_var_const_outside_domain_unsat(self):
        x = sym("x")
        assert self._solve([((AtomVC(x, "z"), True),)], {x: ("a", "b")}) is None

    def test_negated_outside_domain_holds(self):
        x = sym("x")
        cnf, _ = encode_formula([((AtomVC(x, "z"), False),)], {x: ("a", "b")})
        assert len(cnf) == 2  # the exactly-one pair; the clause is true
        assert dpll_solve(cnf) is not None

    def test_negated_const(self):
        x = sym("x")
        values = self._solve([((AtomVC(x, "a"), False),)], {x: ("a", "b")})
        assert values == {x: "b"}

    def test_var_var_equal(self):
        x, y = sym("x"), sym("y")
        values = self._solve(
            [((AtomVV(x, y), True),), ((AtomVC(x, "a"), True),)],
            {x: ("a", "b"), y: ("a", "b")},
        )
        assert values == {x: "a", y: "a"}

    def test_var_var_unequal(self):
        x, y = sym("x"), sym("y")
        values = self._solve(
            [((AtomVV(x, y), False),), ((AtomVC(x, "a"), True),)],
            {x: ("a",), y: ("a", "b")},
        )
        assert values == {x: "a", y: "b"}

    def test_var_var_disjoint_domains(self):
        x, y = sym("x"), sym("y")
        assert (
            self._solve([((AtomVV(x, y), True),)], {x: ("a",), y: ("b",)})
            is None
        )

    def test_exactly_one_value_per_var(self):
        # Selectors come first, one per domain value, variables in name order.
        x = sym("x")
        cnf, decode = encode_formula(
            [((AtomVC(x, "a"), True),)], {x: ("a", "b", "c")}
        )
        model = dpll_solve(cnf)
        assert [v for v in (1, 2, 3) if model[v]] == [1]
        assert decode(model) == {x: "a"}

    def test_or_across_vars(self):
        x, y = sym("x"), sym("y")
        clauses = [
            ((AtomVC(x, "a"), True), (AtomVC(y, "b"), True)),
            ((AtomVC(x, "a"), False),),
        ]
        values = self._solve(clauses, {x: ("a", "c"), y: ("a", "b")})
        assert values[y] == "b"

    def test_constant_formulas(self):
        x = sym("x")
        assert self._solve([], {x: ("a",)}) == {x: "a"}
        assert self._solve([()], {x: ("a",)}) is None

    def test_empty_domain_rejected(self):
        x = sym("x")
        with pytest.raises(ValueError):
            encode_formula([], {x: ()})

    def test_transitivity_through_equalities(self):
        x, y, z = sym("x"), sym("y"), sym("z")
        clauses = [
            ((AtomVV(x, y), True),),
            ((AtomVV(y, z), True),),
            ((AtomVC(x, 1), True),),
            ((AtomVC(z, 1), False),),
        ]
        domains = {v: (1, 2) for v in (x, y, z)}
        assert self._solve(clauses, domains) is None

    def test_one_literal_per_distinct_atom_one_clause_per_clause(self):
        x, y = sym("x"), sym("y")
        same = AtomVV(x, y)
        clauses = [((same, True),), ((same, False), (AtomVC(x, "a"), False))]
        cnf, _ = encode_formula(clauses, {x: ("a", "b"), y: ("a", "b")})
        # 4 selectors + one x = y proposition; 2 × exactly-one of 2 values,
        # 2 × 2 agreement clauses for x = y, and the 2 input clauses.
        assert cnf.num_vars == 5
        assert len(cnf) == 4 + 4 + 2
