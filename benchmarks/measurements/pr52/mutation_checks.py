"""Break the single-walk decision one way at a time, in a throwaway copy,
and show which tests catch it.

    python3 mutation_checks.py CHECKOUT SCRATCH_DIR

For each mutant: copy CHECKOUT's ``src/`` and ``tests/`` (and
``pyproject.toml``) into SCRATCH_DIR, apply one mutant's textual edits
to ``src/repro/subscribe/``, run the named tests, and print whether they
failed (the expected outcome for every mutant) with pytest's summary.
"""
import pathlib
import shutil
import subprocess
import sys

DEPS = "src/repro/subscribe/deps.py"
ENGINE = "src/repro/subscribe/engine.py"
PINNED = "tests/test_subscriptions.py::TestPinnedDecisions"
SEEDED = "tests/test_subscriptions.py::TestSeededLevelDecisions"
SOUND = "tests/test_subscription_soundness.py"

MUTANTS = [
    (
        "a seeded-stage hit answers yes without re-deriving the level",
        DEPS,
        [("        if seeded is None:\n            return True\n",
          "        return True\n")],
        [PINNED, SEEDED],
    ),
    (
        "a seeded-stage hit goes on without re-deriving the level",
        DEPS,
        [("        if seeded is None:\n            return True\n",
          "        if seeded is None:\n            return True\n"
          "        continue\n")],
        [SOUND, SEEDED],
    ),
    (
        "a type match hits without the membership test",
        DEPS,
        [("                if depth == 0:\n",
          "                if True:\n                    return True\n"
          "                if depth == 0:\n")],
        [PINNED],
    ),
    (
        "the walk does not stop at an empty cached level",
        DEPS,
        [("        if stop < count and not levels[stop]:\n"
          "            return False\n", "")],
        [PINNED, SEEDED],
    ),
    (
        "a subscription without a cache is skipped, not re-evaluated",
        ENGINE,
        [("            and sub._contexts is not None\n"
          "            and not (\n",
          "            and (sub._contexts is None or not (\n"),
         ("            )\n        ):\n            sub._stats[\"skips\"]",
          "            ))\n        ):\n            sub._stats[\"skips\"]")],
        [SOUND],
    ),
    (
        "an evaluation with M stale keeps its levels as the cache",
        ENGINE,
        [("        if evaluator.reach is not None:\n", "        if True:\n")],
        [SOUND],
    ),
]


def main():
    checkout, scratch = map(pathlib.Path, sys.argv[1:3])
    for name, path, edits, tests in MUTANTS:
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
