"""Do the new tests catch a broken prepared program?  One checkout.

    python3 mutation_checks.py CHECKOUT SCRATCH

For each mutation below, copies CHECKOUT to SCRATCH/mutant (never edits
CHECKOUT), applies one textual edit to ``src/repro/relview/insert.py``
and runs the tests that should catch it.  Prints, per mutation, whether
the edit applied and whether the tests failed (``caught``).
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

TESTS = [
    "tests/test_delta_r_golden.py",
    "tests/test_compiled_plans.py",
    "tests/test_relview_insert.py",
]

MUTATIONS = [
    (
        "derivable ignores the filled cells outside the key",
        "        for o, at, slot in self._filled:\n            if rows[o][at] != slots[slot]:\n                return False\n",
        "",
    ),
    (
        "template program skips the stored-row agreement checks",
        "                for at, slot in agree:\n",
        "                for at, slot in ():\n",
    ),
    (
        "sweep drops the atom between two unknowns",
        "                atoms.append((left, right, True))\n",
        "                pass\n",
    ),
    (
        "sweep skips new templates after the seed",
        "        self.after_seed = alias > state[0][0]\n",
        "        self.after_seed = False\n",
    ),
    (
        "a probe's candidates skip every test, not only the enforced ones",
        "            if index in enforced or not needs <= at_of.keys():\n",
        "            if enforced or not needs <= at_of.keys():\n",
    ),
]


def main():
    checkout, scratch = Path(sys.argv[1]).resolve(), Path(sys.argv[2]).resolve()
    mutant = scratch / "mutant"
    for name, before, after in MUTATIONS:
        shutil.rmtree(mutant, ignore_errors=True)
        shutil.copytree(checkout, mutant, ignore=shutil.ignore_patterns(".git", ".cache"))
        path = mutant / "src" / "repro" / "relview" / "insert.py"
        text = path.read_text()
        applied = text.count(before) == 1
        path.write_text(text.replace(before, after))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *TESTS],
            cwd=mutant, env=dict(os.environ, PYTHONPATH="src"),
            capture_output=True, text=True,
        )
        verdict = "caught" if done.returncode else "NOT CAUGHT"
        last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
        print(f"{name}: applied={applied} {verdict} ({last})", flush=True)
    shutil.rmtree(mutant, ignore_errors=True)


if __name__ == "__main__":
    main()
