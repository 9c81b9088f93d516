"""Mutation checks of the trigger summaries and the leading-``//`` rule:
run from the root of a scratch copy of the change.

    python3 mutation_checks.py

Applies each mutation below to the copy's ``src/repro/subscribe/deps.py``
in turn, runs the two subscription test modules, restores the file, and
prints whether a test failed ("caught") with the first failing test.
The soundness property draws its examples afresh on every run, so each
mutation is also run against the hand-built and pinned tests alone
(``tests/test_subscriptions.py`` without its property tests), and every
failing test there is printed.  Never run it in the working tree.
"""
import os
import subprocess
import sys

DEPS = "src/repro/subscribe/deps.py"
MUTS = [
    ("        stages.append(stage(index, [*feeding, (level, group.legs)]))\n"
     "        stages.append(stage(level, [(level, group.rest)]))\n",
     "        stages.append(stage(index, feeding))\n"
     "        stages.append(stage(level, [(level, group.legs), (level, group.rest)]))\n",
     "drop the legs of an empty seeded level"),
    ("                    key = (index, bool(pattern.depth) or (\n",
     "                    key = (index, (\n",
     "test a depth-1 pattern as exact"),
    ("        return bool(self.closure and self.closure & digest.upward())\n",
     "        return False\n",
     "ignore closure"),
    ("                    leading = start == 0\n",
     "                    leading = True\n",
     "apply the leading-// rule after a non-root //"),
]
TESTS = [
    "tests/test_subscription_soundness.py",
    "tests/test_subscriptions.py",
]


DETERMINISTIC = ["tests/test_subscriptions.py", "-k", "not random_stream"]


def run_tests(tests=TESTS, stop=True):
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *(["-x"] if stop else []), *tests],
        env=env, capture_output=True, text=True,
    )


def failures(result):
    return [
        line.split(" - ")[0]
        for line in result.stdout.splitlines() if line.startswith("FAILED")
    ]


def apply(path, old, new):
    text = open(path).read()
    assert text.count(old) == 1, (path, old)
    open(path, "w").write(text.replace(old, new))
    return text


result = run_tests()
print(f"unmutated: {'FAILED' if result.returncode else 'passed'} "
      f"{result.stdout.strip().splitlines()[-1:]}", flush=True)
for old, new, name in MUTS:
    saved = apply(DEPS, old, new)
    result = run_tests()
    fixed = run_tests(DETERMINISTIC, stop=False)
    open(DEPS, "w").write(saved)
    verdict = "caught" if result.returncode else "NOT CAUGHT"
    print(f"{name}: {verdict} {failures(result)[:1]}", flush=True)
    print(f"  without the property tests: {failures(fixed) or 'NOT CAUGHT'}",
          flush=True)
