"""Break the trigger summary's set test, the walk's by-type reading and
the self-pair guard one way at a time, in a throwaway copy, and show
which tests catch it.

    python3 mutation_checks.py CHECKOUT SCRATCH_DIR

For each mutant: copy CHECKOUT's ``src/`` and ``tests/`` (and
``pyproject.toml``) into SCRATCH_DIR, apply one mutant's textual edits,
run the named tests, and print whether they failed (the expected
outcome for every mutant) with pytest's summary.
"""
import pathlib
import shutil
import subprocess
import sys

DEPS = "src/repro/subscribe/deps.py"
SUMMARY = "tests/test_trigger_summary.py"
SOUNDNESS = "tests/test_subscription_soundness.py"
SUBSCRIPTIONS = "tests/test_subscriptions.py"
LEAVES = "tests/test_text_leaves.py"

MUTANTS = [
    (
        "a valued pattern does not meet an edge of unknown value",
        DEPS, [("        keys.add((parent, child, None))\n", "")],
        [SUMMARY],
    ),
    (
        "a valued pattern does not meet an edge of its values",
        DEPS,
        [("        keys.update((parent, child, value) for value in values)\n",
          "")],
        [SUMMARY],
    ),
    (
        "the digest carries no type pairs (value-free patterns never meet)",
        DEPS, [("        keys.update(by_type)\n", "")],
        [SUMMARY],
    ),
    (
        "open-type patterns are left out of the summary test",
        DEPS,
        [("        if self.loose and any(map(digest.matches, self.loose)):\n"
          "            return True\n", "")],
        [SUMMARY],
    ),
    (
        "the walk reads a typed pattern's edges from the wrong pair",
        DEPS,
        [("        return self.by_type.get((pattern.parent, pattern.child), ())\n",
          "        return self.by_type.get((pattern.child, pattern.parent), ())\n")],
        [SOUNDNESS, SUBSCRIPTIONS],
    ),
    (
        "the product's closure walk writes a node into its own row",
        "src/repro/index/bitset.py",
        [("            if new >> desc & 1:  # never a row's own bit\n",
          "            if False:\n")],
        [LEAVES],
    ),
    (
        "the reference's closure walk writes a node into its own row",
        "src/repro/baselines/set_index.py",
        [("            new.discard(desc)  # never a row's own node\n", "")],
        [LEAVES],
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
