"""Mutation checks: each mutant of a copy of the change must fail a test.

    python3 mutation_checks.py CHANGE_COPY

Applies one edit at a time to CHANGE_COPY (a throwaway copy of the tree),
runs the tests named for it, and restores the file.  Prints one line per
mutant: CAUGHT (the tests failed) or SURVIVED.
"""
import pathlib
import subprocess
import sys

MUTANTS = [
    ("swap walks past nodes placed before u",
     "src/repro/core/topo.py",
     "if pos[child] >= low and child not in below:",
     "if child not in below:",
     ["tests/test_update_session.py::test_batched_sharing_insert_walks_only_what_it_moves"]),
    ("swap moves nodes in walk order",
     "src/repro/core/topo.py",
     "moving = [n for n in segment if n in below]",
     "moving = [n for n in below if n != u]",
     ["tests/test_topo_reach.py"]),
    ("swap walk misses grandchildren",
     "src/repro/core/topo.py",
     "                    stack.append(child)\n",
     "",
     ["tests/test_topo_reach.py"]),
    ("is_valid_for accepts an out-of-order edge",
     "src/repro/core/topo.py",
     "if pos.get(child, at) >= at:",
     "if pos.get(child, at) > at + 1:",
     ["tests/test_topo_reach.py"]),
    ("is_valid_for iterates the store's nodes",
     "src/repro/core/topo.py",
     "for node, at in pos.items():",
     "for node, at in ((n, self.position(n)) for n in store.nodes()):",
     ["tests/test_topo_reach.py"]),
    ("session defers with a descendants_of walk",
     "src/repro/core/session.py",
     "repair_topo_after_insert(store, topo, subtree, targets)",
     "store.descendants_of([subtree.root]); repair_topo_after_insert(store, topo, subtree, targets)",
     ["tests/test_update_session.py"]),
    ("manifest names are matched, not fullmatched",
     "src/repro/wal/log.py",
     "not pattern.fullmatch(value)",
     "not pattern.match(value)",
     ["tests/test_wal.py", "tests/test_artifact_decode.py"]),
    ("manifest generations may be bools",
     "src/repro/wal/log.py",
     "type(value) is not int or value < 0",
     "not isinstance(value, int) or value < 0",
     ["tests/test_wal.py"]),
    ("op JSON decode lets RecursionError escape",
     "src/repro/ops/algebra.py",
     "except (ValueError, RecursionError) as exc:\n        raise OpDecodeError",
     "except ValueError as exc:\n        raise OpDecodeError",
     ["tests/test_apply_cli.py", "tests/test_artifact_decode.py"]),
    ("event JSON decode lets RecursionError escape",
     "src/repro/subscribe/delta.py",
     "except (ValueError, RecursionError) as exc:",
     "except ValueError as exc:",
     ["tests/test_artifact_decode.py"]),
]


def main() -> None:
    root = pathlib.Path(sys.argv[1])
    for name, path, old, new, tests in MUTANTS:
        target = root / path
        original = target.read_text()
        assert original.count(old) == 1, (name, old)
        target.write_text(original.replace(old, new))
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                cwd=root, env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
                capture_output=True, text=True, timeout=900,
            )
        finally:
            target.write_text(original)
        verdict = "CAUGHT" if done.returncode != 0 else "SURVIVED"
        failed = [line for line in done.stdout.splitlines() if line.startswith("FAILED")]
        print(f"{verdict:8} {name}: {failed[0] if failed else done.stdout.splitlines()[-1:]}",
              flush=True)


if __name__ == "__main__":
    main()
