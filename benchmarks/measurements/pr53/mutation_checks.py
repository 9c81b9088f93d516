"""Break the insertion program one way at a time, in a throwaway copy,
and show which tests catch it.

    python3 mutation_checks.py CHECKOUT SCRATCH_DIR

For each mutant: copy CHECKOUT's ``src/`` and ``tests/`` (and
``pyproject.toml``) into SCRATCH_DIR, apply one mutant's textual edits
to ``src/repro/relview/insert.py``, run the named tests, and print
whether they failed (the expected outcome for every mutant) with
pytest's summary.
"""
import pathlib
import shutil
import subprocess
import sys

INSERT = "src/repro/relview/insert.py"
PROGRAMS = "tests/test_insertion_programs.py"
GOLDEN = "tests/test_delta_r_golden.py"

MUTANTS = [
    (
        "a program is run without checking that the values compare as traced",
        [("            if (bound[a] == bound[b]) is not outcome:\n"
          "                return None\n", "            pass\n")],
        [PROGRAMS],
    ),
    (
        "a program is run without its probes (a dangling H row goes unseen)",
        [("        for relation, attrs, sources in self.probes:\n",
          "        for relation, attrs, sources in ():\n")],
        [PROGRAMS],
    ),
    (
        "a program is run without checking which looked-up values are equal",
        [("        if _partition(bound, self.keyed) != self.partition:\n"
          "            return None\n", "")],
        [PROGRAMS],
    ),
    (
        "templates and target rows are looked up by traced values",
        [("    out = []\n    for cell in cells:\n",
          "    return tuple(cells)\n    out = []\n    for cell in cells:\n")],
        [PROGRAMS],
    ),
    (
        "a comparison between two traced values is not recorded",
        [("            self.tape.compared(self.index, other.index, outcome)\n", "")],
        [PROGRAMS],
    ),
    (
        "a call whose probe found a row keeps its program",
        [("        if rows:\n            self.tape.static = False\n", "")],
        [PROGRAMS],
    ),
    (
        "the mint order sorts by attribute alone",
        [('key=lambda u: (unknowns[u].relation + ".", unknowns[u].attr),',
          "key=lambda u: unknowns[u].attr,")],
        [GOLDEN, PROGRAMS],
    ),
    (
        "every unknown mints its own value (classes ignored)",
        [("                value = minted.get(root, _UNBOUND)\n",
          "                value = _UNBOUND\n")],
        [GOLDEN, PROGRAMS],
    ),
    (
        "classes are told apart by the root object, not the root variable",
        [("                roots.setdefault(root, len(roots)),\n",
          "                roots.setdefault(id(root), len(roots)),\n")],
        [PROGRAMS],
    ),
    (
        "a bound class mints instead of taking its bound value",
        [("                if source is not None:\n", "                if False:\n")],
        [PROGRAMS],
    ),
]


def main():
    checkout, scratch = map(pathlib.Path, sys.argv[1:3])
    for name, edits, tests in MUTANTS:
        shutil.rmtree(scratch, ignore_errors=True)
        for part in ("src", "tests"):
            shutil.copytree(checkout / part, scratch / part)
        shutil.copy(checkout / "pyproject.toml", scratch / "pyproject.toml")
        target = scratch / INSERT
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
