"""Compare two paper-report CSV directories on every non-timing column.

    python paper_csvs.py PARENT_CSV_DIR CHANGE_CSV_DIR

PARENT_CSV_DIR is what ``repro-bench --quick --csv DIR`` wrote at the
parent commit, CHANGE_CSV_DIR what ``python -m benchmarks.paper --quick
--csv DIR`` writes here.  A column whose name ends in ``_s`` is a
timing and is skipped; every other cell must be identical.  Exits 1
when a file set, a header or a compared cell differs.
"""

import csv
import pathlib
import sys


def rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def main(parent, change):
    parent, change = pathlib.Path(parent), pathlib.Path(change)
    names = sorted(p.name for p in parent.glob("*.csv"))
    if names != sorted(p.name for p in change.glob("*.csv")):
        print("the two directories hold different CSV files")
        return 1
    differing = 0
    for name in names:
        a, b = rows(parent / name), rows(change / name)
        columns = list(a[0]) if a else []
        if not b or list(b[0]) != columns:
            print(f"{name}: headers differ")
            differing += 1
            continue
        kept = [c for c in columns if not c.endswith("_s")]
        same = len(a) == len(b) and all(
            [x[c] for c in kept] == [y[c] for c in kept] for x, y in zip(a, b)
        )
        differing += not same
        print(f"{name:30} {len(a):2} rows, compared {kept}: "
              f"{'identical' if same else 'DIFFER'}")
    print(f"{len(names)} files, {differing} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:3]))
