"""Mutation checks of prepared paths, the side-effect walk's stop and the
WAL frame decoder: run from the root of a scratch copy of the change.

    python3 mutation_checks.py

Applies each mutation below to the copy's source in turn, runs the test
modules that guard it, restores the file, and prints whether a test
failed ("caught") with every failing test.  Never run it in the working
tree.
"""
import os
import subprocess
import sys

PARSER = "src/repro/xpath/parser.py"
AST = "src/repro/xpath/ast.py"
DAG_EVAL = "src/repro/core/dag_eval.py"
SEGMENT = "src/repro/wal/segment.py"
MUTS = [
    (PARSER, 'r"""\\)\\s*=|', 'r"""',
     "lift the name of a label() test"),
    (PARSER, 'return f"={params.setdefault(value, len(params))} "',
     'return f"={params.setdefault(value, len(params))}"',
     "a placeholder may run into the token after it"),
    (PARSER, "        return _parse(text)  # raises, quoting the caller's text\n",
     "        raise\n",
     "a refused text reports the shape, not the caller's text"),
    (PARSER, "    return shape.bind(tuple(params))\n",
     "    return shape.bind(tuple(reversed(params)))\n",
     "bind the constants in the wrong order"),
    (AST, "        return ExistsPath(filt.path.bind(params))\n",
     "        return filt\n",
     "leave constants under an existence filter unbound"),
    (DAG_EVAL,
     "            level: Seed(label, ValueEq(part.path, params[int(part.value)]), chain)\n",
     "            level: Seed(label, part, chain)\n",
     "leave a seed's value unbound"),
    (DAG_EVAL,
     "            (ops, value if value is None else params[int(value)])\n",
     "            (ops, value)\n",
     "leave path plans' values unbound"),
    (DAG_EVAL, "                if matched is self.topo:\n",
     "                if matched:\n",
     "skip the parents of every node the side-effect walk matched"),
    ("src/repro/dtd/validate.py",
     "        return self._reachable(path if path.shape is None else path.shape)\n",
     "        return self._reachable(path)\n",
     "key the schema cache on the path, not the shape"),
    (SEGMENT, '_HEX = re.compile(rb"[0-9a-f]*")',
     '_HEX = re.compile(rb"[ +_x0-9a-fA-F]*")',
     "accept what int(..., 16) accepts in a header"),
    (SEGMENT, "    if _HEX.fullmatch(header) is None:\n",
     "    if len(header) == _HEADER and _HEX.fullmatch(header) is None:\n",
     "drop any short tail as torn"),
]
TESTS = [
    "tests/test_prepared_paths.py",
    "tests/test_dag_eval_demand.py",
    "tests/test_sharing_insert.py",
    "tests/test_dag_eval.py",
    "tests/test_xpath_parser.py",
    "tests/test_wal.py",
    "tests/test_artifact_decode.py",
]


def failures(result):
    return [
        line.split(" - ")[0]
        for line in result.stdout.splitlines()
        if line.startswith(("FAILED", "ERROR"))
    ]


def main():
    env = dict(os.environ, PYTHONPATH="src")
    for path, old, new, name in MUTS:
        with open(path) as fh:
            source = fh.read()
        assert source.count(old) == 1, (name, old)
        with open(path, "w") as fh:
            fh.write(source.replace(old, new))
        try:
            result = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "--continue-on-collection-errors", *TESTS],
                env=env, capture_output=True, text=True,
            )
        finally:
            with open(path, "w") as fh:
                fh.write(source)
        failed = failures(result)
        if result.returncode not in (0, 1):
            sys.exit(f"pytest could not run: {result.stdout[-2000:]}")
        print(f"{'caught' if failed else 'MISSED'}: {name}", flush=True)
        for test in failed:
            print(f"    {test}", flush=True)


if __name__ == "__main__":
    main()
