"""SAT-based insertion translation (paper Section 4.3 + Appendix A).

Inserting a *brand-new* course as a prerequisite requires inventing base
tuples whose unknown attributes must be chosen so that no view gains an
unintended row.  The translator:

1. builds tuple templates from the edge view's equality closure (the key
   parts are pinned by key preservation);
2. sweeps every view for symbolic derivations that would be side effects;
3. decides the constraints in the equality domain: a union-find over
   the atoms every target needs, each unknown no atom binds a fresh
   value, and only clauses left over BOOL unknowns encoded into CNF for
   DPLL; the registrar has no BOOL column, so no instance here needs one;
4. instantiates the templates from the model.

The demo shows the machinery choosing ``dept ≠ 'CS'`` for a course that
must appear as a prerequisite but must NOT appear at the root.

Run:  python examples/sat_insertion_demo.py
"""

from repro import InsertOp, open_view
from repro.atg.publisher import publish_subtree
from repro.core.translate import xinsert
from repro.relview.insert import translate_insertions
from repro.workloads.registrar import build_registrar


def main() -> None:
    atg, db = build_registrar()
    service = open_view(atg, db)

    print("Views over the base relations (key-preserving SPJ):")
    for view in service.registry.views():
        from repro.relational.sqlgen import select_sql

        print(f"  {view.name}:")
        print(f"    {select_sql(view.query)}")

    # -- 1. new course as a prerequisite only ------------------------------------
    print("\ninsert (course, CS101 'Intro') into //course[cno=CS240]/prereq")
    outcome = service.apply(
        InsertOp("//course[cno=CS240]/prereq", "course", ("CS101", "Intro"))
    )
    print("  BOOL residue for the SAT solver:", outcome.stats.get("sat_vars"),
          "vars,", outcome.stats.get("sat_clauses"), "clauses")
    for op in outcome.delta_r:
        print(f"  ΔR: {op.kind} {op.relation}{op.row}")
    dept = db.table("course").get(("CS101",))[2]
    print(f"  -> dept={dept!r}: a fresh value, so not 'CS', which would "
          "surface CS101 at the root — a side effect")

    # -- 2. new course at the root: dept is forced the other way ------------------
    print("\ninsert (course, CS700 'Theory') into . (the root)")
    outcome = service.apply(InsertOp(".", "course", ("CS700", "Theory")))
    for op in outcome.delta_r:
        print(f"  ΔR: {op.kind} {op.relation}{op.row}")
    print("  -> dept='CS' was *derived* from the view's selection condition")

    # -- 3. an impossible insertion is rejected ----------------------------------
    print("\ninsert (course, CS240 'WRONG-TITLE') into course[cno=CS650]/prereq")
    try:
        service.apply(
            InsertOp("course[cno=CS650]/prereq", "course",
                     ("CS240", "WRONG-TITLE"))
        )
    except Exception as exc:
        print(f"  -> rejected: {exc}")

    # -- 4. Algorithm insert on its own, on a fresh instance -----------------------
    print("\nthe same insertion as 1, translated by Algorithm insert alone")
    atg, db = build_registrar()
    fresh = open_view(atg, db).updater
    result = fresh.evaluate_xpath("//course[cno=CS240]/prereq")
    subtree = publish_subtree(atg, db, fresh.store, "course", ("CS101", "Intro"))
    delta_v = xinsert(fresh.store, result.targets, subtree)
    plan = translate_insertions(fresh.registry, fresh.store, db, delta_v)
    for op in plan.delta_r:
        print(f"  ΔR ({plan.solver}): {op.kind} {op.relation}{op.row}")

    print("\nConsistency:", service.check_consistency() or "OK")


if __name__ == "__main__":
    main()
