"""Mutation checks of the new tests: run from the root of a scratch copy.

    python3 mutation_checks.py

Applies each mutation below to the copy's ``src/`` in turn, runs the four
test modules that cover Δ(M,L)delete, ``L`` and ``M``'s bulk operations,
restores the file, and prints whether a test failed ("caught").  Never
run it in the working tree.
"""
import sys, subprocess, shutil
MUTS = [
 ("src/repro/index/bitset.py", "                if parent not in doomed:\n", "                if True:\n", "bitset: condemned parents not skipped"),
 ("src/repro/index/bitset.py", "            if not keep and node != root:\n", "            if not keep:\n", "bitset: root condemned"),
 ("src/repro/index/bitset.py", "                removed += (old ^ row).bit_count()\n", "                removed += row.bit_count()\n", "bitset: wrong removed count"),
 ("src/repro/baselines/set_index.py", "            for parent in store.parents.get(node, set()) - doomed:\n", "            for parent in store.parents.get(node, set()):\n", "sets: condemned parents not skipped"),
 ("src/repro/core/topo.py", "        if 2 * index < len(self._list) - 1:\n", "        if False:\n", "topo: insert_at always suffix"),
 ("src/repro/core/topo.py", "            self._reindex(slots[0])\n", "            self._reindex(0)\n", "topo: remove_many reindexes all"),
 ("src/repro/index/_bits.py", "            if node in seeds or get(node, 0) & mask:\n", "            if get(node, 0) & mask:\n", "Region.split misses the seeds"),
]
tests = ["tests/test_translate_maintenance.py", "tests/test_topo_reach.py", "tests/test_index_backends.py", "tests/test_property_index_backends.py"]
for path, old, new, name in MUTS:
    src = open(path).read()
    assert src.count(old) == 1, name
    open(path, "w").write(src.replace(old, new))
    r = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests], env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin:" + __import__("os").environ["PATH"]}, capture_output=True, text=True)
    open(path, "w").write(src)
    failed = [l for l in r.stdout.splitlines() if l.startswith("FAILED")]
    print(f"{name}: {'caught' if r.returncode else 'NOT CAUGHT'} {failed[:1]}", flush=True)
