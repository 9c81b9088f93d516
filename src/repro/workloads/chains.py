"""Depth-stress workload: deep prerequisite chains.

The paper's distinguishing feature is support for *recursive* view
definitions; this dataset pushes the recursion depth to its extreme —
one long chain (optionally with short side branches), published through
the registrar ATG.  It exercises:

- the DAG evaluator's ``//`` inside a filter, answered by a walk with
  an explicit stack (a recursive walk would exhaust Python's stack);
- Algorithm Reach on a path graph (|M| = Θ(n²) pairs — the worst case
  for the matrix size);
- maintenance after updates deep in the chain (swap distances, ancestor
  recomputation along the whole chain).
"""

from __future__ import annotations

from repro.atg.model import ATG
from repro.errors import ReproError
from repro.relational.database import Database
from repro.workloads.registrar import registrar_atg, registrar_schemas


def build_chain(
    depth: int = 200, branch_every: int = 0, students: int = 0
) -> tuple[ATG, Database]:
    """A prerequisite chain ``K0000 → K0001 → ... → K<depth-1>``.

    ``branch_every > 0`` adds a leaf side-prerequisite at every such
    interval; ``students`` enrolls that many students in the chain head
    (shared leaf subtrees at maximum depth distance).
    """
    if depth < 1:
        raise ReproError(f"a chain needs depth >= 1, got {depth!r}")
    db = Database("chain")
    for schema in registrar_schemas():
        db.create_table(schema)
    atg = registrar_atg()

    for i in range(depth):
        db.insert("course", (f"K{i:04d}", f"level-{i}", "CS" if i == 0 else "X"))
    for i in range(depth - 1):
        db.insert("prereq", (f"K{i:04d}", f"K{i + 1:04d}"))
    if branch_every > 0:
        for i in range(0, depth, branch_every):
            leaf = f"B{i:04d}"
            db.insert("course", (leaf, f"branch-{i}", "X"))
            db.insert("prereq", (f"K{i:04d}", leaf))
    for s in range(students):
        ssn = f"T{s:03d}"
        db.insert("student", (ssn, f"stud-{s}"))
        db.insert("enroll", (ssn, f"K{depth - 1:04d}"))
    return atg, db
