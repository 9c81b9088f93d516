"""Mutation checks of the filter evaluator's tests: run from the root of a
scratch copy of the change.

    python3 mutation_checks.py

Applies each mutation below to the copy's ``src/`` or ``tests/`` in
turn, runs the test modules that cover ``core/dag_eval.py``'s filters,
``Ep`` and ``S``, restores the file, and prints whether a test failed
("caught").  Never run it in the working tree.
"""
import os
import subprocess
import sys

DAG = "src/repro/core/dag_eval.py"
MUTS = [
    (DAG,
     "        values = self._filter_values(program)\n",
     "        values = _FilterValues(program, self.store)\n",
     "the top-down pass bypasses the _filter_values seam"),
    (DAG,
     "        elif ops[i][0] == _DESCENDANT:\n"
     "            return self._below(pindex, i, node, memo)\n",
     "        elif ops[i][0] == _DESCENDANT:\n"
     "            return self._ex(pindex, i + 1, node) or any(\n"
     "                self._ex(pindex, i, c) for c in store.children_of(node))\n",
     "desc(q, v) by recursion over the DAG"),
    (DAG,
     "        if ex(pindex, rest, node):\n"
     "            memo[node] = True\n"
     "            return True\n",
     "",
     "the walk skips the node itself (descendants only)"),
    (DAG,
     "                    for above, _ in stack:\n"
     "                        memo[above] = True\n",
     "                    for above, _ in stack[1:]:\n"
     "                        memo[above] = False\n",
     "the stack above a holder is memoised false"),
    (DAG,
     "                    if not found:  # descend: settled when walked\n"
     "                        stack.append((child, iter(children_of(child))))\n"
     "                        break\n",
     "                    if not found:\n"
     "                        continue\n",
     "the walk stops at the children"),
    (DAG,
     "            level -= 1\n"
     "            inside = self.members(level)\n",
     "            inside = self.members(level - 1)\n",
     "Ep labels a self-match's parent one level high (the old quirk)"),
    ("tests/test_dag_eval_demand.py",
     "        assert self.sweeps == 1, \"the reference evaluation did not sweep\"\n",
     "",
     "control: the seam bypassed and the reference's assertion removed (expected NOT CAUGHT)"),
]
# The last mutation is only meaningful together with the first: apply both.
TESTS = [
    "tests/test_dag_eval_demand.py",
    "tests/test_dag_eval.py",
    "tests/test_dag_eval_edge_cases.py",
    "tests/test_loader_undo_chain.py",
]


def run_tests():
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *TESTS],
        env=env, capture_output=True, text=True,
    )


def apply(path, old, new):
    text = open(path).read()
    assert text.count(old) == 1, (path, old)
    open(path, "w").write(text.replace(old, new))
    return text


for index, (path, old, new, name) in enumerate(MUTS):
    saved = {path: apply(path, old, new)}
    if index == len(MUTS) - 1:  # together with the seam bypass
        first = MUTS[0]
        saved[first[0]] = apply(*first[:3])
    result = run_tests()
    for restore, text in saved.items():
        open(restore, "w").write(text)
    failed = [line for line in result.stdout.splitlines() if line.startswith("FAILED")]
    verdict = "caught" if result.returncode else "NOT CAUGHT"
    print(f"{name}: {verdict} {failed[:1]}", flush=True)
