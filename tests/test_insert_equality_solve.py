"""Algorithm insert's stage 4 in the equality domain.

The units (assertions and the atoms of a target's derivation) form
equality classes by union-find; a side effect is decided on the classes
when it can be, and what is left over BOOL unknowns — the only unknowns
with too few values to be fresh — goes to DPLL.  No bundled
dataset has a BOOL column, so the ATG below is built by hand: a course's
``retired`` flag decides which root list shows it, and a new course
inserted as a prerequisite must not show up in any of them.
"""

from __future__ import annotations

from contextlib import nullcontext

import pytest

import uncompiled
from repro import InsertOp, open_view
from repro.atg.model import ATG, ProjectionRule, QueryRule
from repro.atg.publisher import publish_subtree
from repro.core.translate import xinsert
from repro.dtd.parser import parse_dtd
from repro.errors import UpdateRejectedError
from repro.relational.conditions import And, Col, Const, Eq, Param
from repro.relational.database import Database
from repro.relational.query import SPJQuery
from repro.relational.schema import AttrType, RelationSchema
from repro.relview import insert as insert_module
from repro.relview.insert import InsertionPlan, _Classes, _solve
from repro.relview.symbolic import Derivation
from repro.sat.atoms import AtomVC, AtomVV, SymVar


def flag_view(lists: dict[str, bool]) -> tuple[ATG, Database]:
    """``db`` has one child per entry of ``lists``, each listing the
    courses whose ``retired`` flag is its value; a course's ``prereq``
    lists its prerequisites.  Course ``A``, listed by the first list, has
    the prerequisite ``B``."""
    dtd = parse_dtd(
        f"<!ELEMENT db ({', '.join(lists)})>\n"
        + "".join(f"<!ELEMENT {name} (course*)>\n" for name in lists)
        + "<!ELEMENT course (cno, prereq)>\n<!ELEMENT prereq (course*)>\n"
    )
    signatures = {"db": (), "course": ("cno",), "cno": ("cno",), "prereq": ("cno",)}
    rules = []
    for name, retired in lists.items():
        signatures[name] = ()
        rules.append(ProjectionRule("db", name, ()))
        rules.append(QueryRule(name, "course", SPJQuery(
            f"Q{name}_course", [("course", "c")], [("cno", Col("c", "cno"))],
            Eq(Col("c", "retired"), Const(retired)),
        )))
    rules += [
        ProjectionRule("course", "cno", ("cno",)),
        ProjectionRule("course", "prereq", ("cno",)),
        QueryRule("prereq", "course", SPJQuery(
            "Qprereq_course", [("prereq", "p"), ("course", "c")],
            [("cno", Col("c", "cno"))],
            And(Eq(Col("p", "cno1"), Param("cno")), Eq(Col("p", "cno2"), Col("c", "cno"))),
        )),
    ]
    db = Database("flags")
    S, B = AttrType.STR, AttrType.BOOL
    db.create_table(RelationSchema("course", [("cno", S), ("retired", B)], ["cno"]))
    db.create_table(RelationSchema("prereq", [("cno1", S), ("cno2", S)], ["cno1", "cno2"]))
    db.insert_all("course", [("A", next(iter(lists.values()))), ("B", True)])
    db.insert_all("prereq", [("A", "B")])
    return ATG(dtd, signatures, rules), db


NEW_PREREQ = InsertOp("//course[cno=A]/prereq", "course", ("N",))


class TestBoolResidue:
    @pytest.mark.parametrize("shown, chosen", [(True, False), (False, True)])
    def test_sat_chooses_the_value_no_side_effect_has(self, shown, chosen):
        """One root list shows the courses whose flag is ``shown``: a new
        prerequisite must not appear there, so its flag is the other
        value — ``True`` too, which no fresh value would give."""
        atg, db = flag_view({"listed": shown})
        service = open_view(atg, db)
        outcome = service.apply(NEW_PREREQ)
        assert sorted((op.relation, op.row) for op in outcome.delta_r) == [
            ("course", ("N", chosen)),
            ("prereq", ("A", "N")),
        ]
        # One BOOL unknown: two selectors, exactly-one, one side effect.
        assert (outcome.stats["sat_vars"], outcome.stats["sat_clauses"]) == (2, 3)
        assert service.check_consistency() == []

    def test_unsat_when_both_values_are_side_effects(self):
        atg, db = flag_view({"retired": True, "current": False})
        service = open_view(atg, db)
        with pytest.raises(UpdateRejectedError, match="solver: dpll"):
            service.apply(NEW_PREREQ)
        assert service.check_consistency() == []

    @pytest.mark.parametrize("lists", [{"current": False}, {"retired": True, "current": False}])
    def test_walksat_agrees_with_dpll(self, lists):
        """The product (DPLL on the BOOL residue) and the paper's
        whole-constraint encoding solved by WalkSAT
        (``uncompiled.solve(..., "walksat", ...)``) give one ΔR, or
        both reject."""
        results = {}
        for solver, solving in (
            ("dpll", nullcontext()),
            ("walksat", uncompiled.reference_solve("walksat")),
        ):
            atg, db = flag_view(lists)
            updater = open_view(atg, db).updater
            result = updater.evaluate_xpath(NEW_PREREQ.path)
            subtree = publish_subtree(atg, db, updater.store, "course", ("N",))
            delta_v = xinsert(updater.store, result.targets, subtree)
            try:
                with solving:
                    plan = insert_module.translate_insertions(
                        updater.registry, updater.store, db, delta_v
                    )
            except UpdateRejectedError:
                results[solver] = None
            else:
                assert plan.solver == solver
                results[solver] = sorted((op.relation, op.row) for op in plan.delta_r)
        assert results["walksat"] == results["dpll"]


def var(key, attr_type=AttrType.STR):
    return SymVar("r", (key,), "v", attr_type)


class TestUnionFindStage:
    def test_chained_equalities_share_one_class_and_its_constant(self):
        a, b, c = var("a"), var("b"), var("c")
        classes = _solve(
            [AtomVV(a, b), AtomVV(b, c), AtomVC(c, "x")], [], InsertionPlan()
        )
        assert classes.find(a) == classes.find(b) == classes.find(c)
        assert classes.value[classes.find(a)] == "x"

    def test_conflicting_constants_reject(self):
        a, b = var("a"), var("b")
        with pytest.raises(UpdateRejectedError, match="both 'x' and 'y'"):
            _solve(
                [AtomVC(a, "x"), AtomVV(a, b), AtomVC(b, "y")], [],
                InsertionPlan(),
            )

    def test_equal_constants_make_an_equality_entailed(self):
        a, b = var("a"), var("b")
        classes = _Classes()
        classes.assert_atom(AtomVC(a, "x"))
        classes.assert_atom(AtomVC(b, "x"))
        assert classes.status(AtomVV(a, b)) is True

    def test_a_side_effect_the_units_entail_rejects_naming_it(self):
        a, b = var("a"), var("b")
        entailed = Derivation("edge_db_r", ("row",), (AtomVV(a, b), AtomVC(a, "x")))
        with pytest.raises(UpdateRejectedError, match="edge_db_r.*'row'"):
            _solve([AtomVV(a, b), AtomVC(b, "x")], [entailed], InsertionPlan())

    def test_an_atom_the_units_do_not_entail_is_false(self):
        a, b = var("a"), var("b")
        plan = InsertionPlan()
        side_effects = [
            Derivation("v", (), (AtomVC(a, "x"),)),
            Derivation("v", (), (AtomVV(a, b),)),
        ]
        classes = _solve([], side_effects, plan)
        assert classes.value == {}
        assert (plan.solver, plan.num_vars, plan.num_clauses) == ("trivial", 0, 0)

    def test_only_undecided_bool_atoms_reach_the_solver(self):
        flag, other = var("f", AttrType.BOOL), var("g", AttrType.BOOL)
        name = var("n")
        plan = InsertionPlan()
        side_effects = [
            # decided: ``name`` is unbound, so ``name = 'x'`` is false
            Derivation("v", (), (AtomVC(flag, True), AtomVC(name, "x"))),
            # residue: flag must not be False ...
            Derivation("v", (), (AtomVC(flag, False),)),
            # ... nor equal to other
            Derivation("v", (), (AtomVV(flag, other),)),
        ]
        classes = _solve([], side_effects, plan)
        assert plan.solver == "dpll" and plan.num_clauses > 0
        assert name not in classes.value
        assert classes.value[flag] is True and classes.value[other] is False
