"""Table 1 (incremental Δ(M,L) vs recomputation), repeated on two checkouts.

    python3 table1.py PARENT CHANGE N

Runs ``repro.bench.experiments.table1_incremental_vs_recompute(sizes=(100,
300))`` N times per checkout, each in a fresh process, the two checkouts
alternating which goes first.  Prints every run as one JSON line (ms, the
sum over the experiment's 5 ops per column), then the median of each
column per checkout and |C|.
"""
import json
import statistics
import subprocess
import sys

SNIPPET = (
    "import json, sys; sys.path.insert(0, 'src');"
    "from repro.bench.experiments import table1_incremental_vs_recompute as t;"
    "print(json.dumps(t(sizes=(100, 300), print_report=False)))"
)
COLUMNS = ("incremental_insert_s", "incremental_delete_s",
           "recompute_L_s", "recompute_M_s")


def run(checkout):
    done = subprocess.run(["python3", "-c", SNIPPET], cwd=checkout,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    parent, change, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
    runs = {"parent": [], "change": []}
    for i in range(n):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            rows = run(parent if side == "parent" else change)
            runs[side].append(rows)
            print(json.dumps({"side": side, "run": i, "rows": [
                {"C": r["C"], **{c[:-2] + "_ms": round(r[c] * 1e3, 4)
                                 for c in COLUMNS}} for r in rows]}),
                  flush=True)
    for side in ("parent", "change"):
        for index, size in enumerate((100, 300)):
            cells = "  ".join(
                f"{c[:-2]} {statistics.median(rows[index][c] for rows in runs[side]) * 1e3:7.3f} ms"
                for c in COLUMNS
            )
            print(f"median {side:6s} |C|={size}: {cells}")


if __name__ == "__main__":
    main()
