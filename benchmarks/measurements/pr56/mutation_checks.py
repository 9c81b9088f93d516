"""Break the one Δ(M,L) repair's order and its filters one way at a
time, in a throwaway copy, and show which tests catch it.

    python3 mutation_checks.py CHECKOUT SCRATCH_DIR [TEST ...]

For each mutant: copy CHECKOUT's ``src/`` and ``tests/`` (and
``pyproject.toml``) into SCRATCH_DIR, apply one mutant's textual edits,
run the named tests (or the TESTs given, for every mutant), and print
whether they failed (the expected outcome for every mutant) with
pytest's summary.
"""
import pathlib
import shutil
import subprocess
import sys

MAINT = "src/repro/core/maintenance.py"
PROPAGATE = "src/repro/atg/incremental.py"
LEAVES = "tests/test_text_leaves.py"
LOCKSTEP = LEAVES + "::test_shared_text_leaves_match_the_reference_in_lockstep"
REVERSED = ("tests/test_incremental_propagation.py::TestDeletePropagation::"
            "test_reversed_prereq_reads_no_stale_row")
REMOVED = ("tests/test_translate_maintenance.py::"
           "test_batch_insert_whose_edge_the_batch_removes")

MUTANTS = [
    (
        "the insertions' ΔM runs before the delete pass",
        MAINT,
        [("    gc = None\n"
          "    if delete_targets:\n"
          "        gc = maintain_delete(store, topo, reach, delete_targets)\n"
          "    if inserts:\n"
          "        maintain_insert(store, topo, reach, inserts)\n",
          "    if inserts:\n"
          "        maintain_insert(store, topo, reach, inserts)\n"
          "    gc = None\n"
          "    if delete_targets:\n"
          "        gc = maintain_delete(store, topo, reach, delete_targets)\n")],
        [REVERSED, LOCKSTEP],
    ),
    (
        "propagate_base_update repairs each attachment as it is made, "
        "and deletes after",
        PROPAGATE,
        [("                attachments.append((subtree, attach_targets))\n",
          "                repair(store, topo, reach, "
          "[(subtree, attach_targets)], None)\n"),
         ("        store, topo, reach, attachments, "
          "sorted(set(removed_children))\n",
          "        store, topo, reach, [], sorted(set(removed_children))\n")],
        [REVERSED, LOCKSTEP],
    ),
    (
        "new nodes the delete pass condemned are not skipped",
        MAINT,
        [("        new = [node for node in subtree.new_nodes if live(node)]\n",
          "        new = subtree.new_nodes\n")],
        [REMOVED, LOCKSTEP],
    ),
    (
        "targets are not filtered (condemned ones and cut edges kept)",
        MAINT,
        [("        attached = [t for t in targets if t in parents]\n",
          "        attached = targets\n")],
        [REMOVED, LOCKSTEP],
    ),
    (
        "targets are filtered by liveness only (a cut edge kept)",
        MAINT,
        [("        attached = [t for t in targets if t in parents]\n",
          "        attached = [t for t in targets if live(t)]\n")],
        [REMOVED, LOCKSTEP],
    ),
]


def main():
    checkout, scratch = map(pathlib.Path, sys.argv[1:3])
    chosen = sys.argv[3:]
    for name, path, edits, tests in MUTANTS:
        tests = chosen or tests
        shutil.rmtree(scratch, ignore_errors=True)
        for part in ("src", "tests"):
            shutil.copytree(checkout / part, scratch / part)
        shutil.copy(checkout / "pyproject.toml", scratch / "pyproject.toml")
        target = scratch / path
        text = target.read_text(encoding="utf-8")
        for old, new in edits:
            assert text.count(old) == 1, (name, old)
            text = text.replace(old, new)
        target.write_text(text, encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *tests],
            cwd=scratch, capture_output=True, text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        summary = done.stdout.strip().splitlines()[-1]
        verdict = "caught" if done.returncode else "NOT CAUGHT"
        print(f"{verdict}: {name}\n    {' '.join(tests)}\n    {summary}")


if __name__ == "__main__":
    main()
