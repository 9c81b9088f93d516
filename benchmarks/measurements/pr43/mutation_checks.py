"""Mutation checks of the artifact decoders and the closed service: run
from the root of a scratch copy of the change.

    python3 mutation_checks.py

Applies each mutation below to the copy's source in turn, runs the test
modules that guard it, restores the file, and prints whether a test
failed ("caught") with every failing test.  Never run it in the working
tree.
"""
import os
import subprocess
import sys

SNAPSHOT = "src/repro/replica/snapshot.py"
MUTS = [
    (SNAPSHOT,
     '        if text.startswith(b"\\x80"):  # pickle\'s PROTO opcode\n',
     '        if text.startswith(b"\\x80"):  # pickle\'s PROTO opcode\n'
     '            return cls.from_dict(__import__("pickle").loads(text))\n'
     '        if False:\n',
     "unpickle a pickle-era artifact again"),
    (SNAPSHOT,
     '            ("base", {} if base is None else base),\n',
     '',
     "accept any type under 'base'"),
    (SNAPSHOT,
     "        if not isinstance(store_state.get(\"nodes\", []), list) or not (\n",
     "        if False and not (\n",
     "accept malformed store_state rows"),
    ("src/repro/service/facade.py",
     "            self.pipeline.closed = True\n",
     "",
     "close() leaves the service writable"),
    ("src/repro/core/plan.py",
     "        self.updater.check_writable()\n",
     "",
     "a held plan commits after close()"),
]
TESTS = [
    "tests/test_artifact_decode.py",
    "tests/test_no_pickle_in_src.py",
    "tests/test_wal.py",
    "tests/test_replica.py",
]


def failures(result):
    return [
        line.split(" - ")[0]
        for line in result.stdout.splitlines() if line.startswith("FAILED")
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
                 *TESTS],
                env=env, capture_output=True, text=True,
            )
        finally:
            with open(path, "w") as fh:
                fh.write(source)
        failed = failures(result)
        print(f"{'caught' if failed else 'MISSED'}: {name}", flush=True)
        for test in failed:
            print(f"    {test}", flush=True)


if __name__ == "__main__":
    main()
