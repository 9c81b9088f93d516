"""Scratch instrumentation (not part of src/): put this directory and the
checkout's src/ on PYTHONPATH and every Python process of a benchmark run
(run.py, stream generation, each worker.py) appends one JSON line of
row-access counters to $PR21_COUNTS at exit.

Counted: every `Table.lookup` call (and, on a checkout that still has the
scan branch, how many fell into it and how many rows they walked), every
index build, and every `Table.rows()` call keyed by the calling function and
line, which is how whole-table hash builds, cartesian products and the
sweep's `list(table.rows())` are told apart from an index build."""
import atexit, collections, json, os, sys

try:
    from repro.relational.database import Table
except ImportError:  # a process without src/ on its path: nothing to count
    Table = None

if Table is not None and os.environ.get("PR21_COUNTS"):
    counts = collections.Counter()
    _rows, _lookup = Table.rows, Table.lookup
    has_scan_branch = hasattr(Table, "has_index")

    def rows(self):
        frame = sys._getframe(1)
        counts[f"rows() from {frame.f_code.co_name}:{frame.f_lineno}"] += 1
        counts["rows() table rows handed out"] += len(self)
        return _rows(self)

    def lookup(self, attrs, values):
        counts["lookup calls"] += 1
        if has_scan_branch and tuple(attrs) not in self._indexes:
            counts["lookup: silent scans"] += 1
            counts["lookup: rows scanned"] += len(self)
        found = _lookup(self, attrs, values)
        if not found:
            counts["lookup: empty results"] += 1
        return found

    Table.rows, Table.lookup = rows, lookup
    if hasattr(Table, "prober"):
        _prober = Table.prober

        def prober(self, attrs):
            probe = _prober(self, attrs)
            counts["prober: " + ("None" if probe is None else "index")] += 1
            return probe

        Table.prober = prober

    @atexit.register
    def _dump():
        if counts:
            with open(os.environ["PR21_COUNTS"], "a", encoding="utf-8") as out:
                out.write(json.dumps(counts, sort_keys=True) + "\n")
