"""The paper report: ``python -m benchmarks.paper [--quick] [--csv DIR]``.

Regenerates every paper artifact (Fig. 10(b), Fig. 11(a)-(h), Table 1)
plus the ablations, printing paper-shaped tables.  ``--quick`` shrinks
sizes for CI smoke runs; ``--csv DIR`` additionally writes one CSV per
experiment into ``DIR`` (for external plotting).
"""

from __future__ import annotations

import argparse
import csv
import pathlib
import sys

from benchmarks.paper import experiments


def _write_csv(directory: str | None, name: str, rows: list[dict]) -> None:
    if directory is None or not rows:
        return
    path = pathlib.Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    with open(path / f"{name}.csv", "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.paper",
        description="Regenerate the paper's figures and tables.",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke sizes: |C| 100 and 300, 3 ops per class",
    )
    parser.add_argument(
        "--csv", metavar="DIR", help="also write one CSV per artifact into DIR"
    )
    args = parser.parse_args(argv)
    csv_dir = args.csv
    sizes = (100, 300) if args.quick else (300, 1000, 3000)
    ops = 3 if args.quick else 10

    print("=" * 72)
    _write_csv(csv_dir, "fig10b", experiments.fig10b_dataset_stats(sizes))
    print()
    _write_csv(
        csv_dir, "fig11_deletions",
        experiments.fig11_series("delete", sizes=sizes, ops_per_class=ops),
    )
    print()
    _write_csv(
        csv_dir, "fig11_insertions",
        experiments.fig11_series("insert", sizes=sizes, ops_per_class=ops),
    )
    print()
    _write_csv(
        csv_dir, "fig11g", experiments.fig11g_vary_selectivity(n_c=sizes[-1])
    )
    print()
    _write_csv(
        csv_dir, "fig11h", experiments.fig11h_vary_subtree(n_c=sizes[-1])
    )
    print()
    _write_csv(
        csv_dir, "table1",
        experiments.table1_incremental_vs_recompute(
            sizes=sizes, ops=max(3, ops // 2)
        ),
    )
    print()
    _write_csv(
        csv_dir, "ablation_reach", experiments.ablation_reach(sizes=sizes[:2])
    )
    print()
    _write_csv(
        csv_dir,
        "ablation_index_backends",
        experiments.ablation_index_backends(sizes=sizes[:2]),
    )
    print()
    _write_csv(
        csv_dir, "ablation_dag_vs_tree",
        experiments.ablation_dag_vs_tree(sizes=sizes[:2]),
    )
    print()
    _write_csv(
        csv_dir, "ablation_minimal_delete",
        experiments.ablation_minimal_delete(n_c=sizes[0]),
    )
    print()
    depths = (30, 80) if args.quick else (50, 150, 300)
    _write_csv(
        csv_dir, "ablation_chain_depth", experiments.ablation_chain_depth(depths)
    )
    print("=" * 72)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
