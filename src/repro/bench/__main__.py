"""Standalone benchmark report: ``python -m repro.bench [--quick] [--csv DIR]``.

Regenerates every paper artifact (Fig. 10(b), Fig. 11(a)-(h), Table 1)
plus the ablations, printing paper-shaped tables.  ``--quick`` shrinks
sizes for CI smoke runs; ``--csv DIR`` additionally writes one CSV per
experiment into ``DIR`` (for external plotting).

``repro-bench generate ...`` is a subcommand: it dispatches to the
workload generator (:mod:`repro.bench.workload_gen`), emitting a
reproducible op-stream JSONL with a provenance header — see
``docs/observability.md``.
"""

from __future__ import annotations

import csv
import pathlib
import sys


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
    if argv is None:  # console-script entry point
        argv = sys.argv[1:]
    if argv and argv[0] == "generate":
        from repro.bench.workload_gen import main as generate_main

        return generate_main(argv[1:])
    from repro.bench.experiments import (
        ablation_chain_depth,
        ablation_dag_vs_tree,
        ablation_index_backends,
        ablation_minimal_delete,
        ablation_reach,
        fig10b_dataset_stats,
        fig11_series,
        fig11g_vary_selectivity,
        fig11h_vary_subtree,
        table1_incremental_vs_recompute,
    )

    quick = "--quick" in argv
    csv_dir = None
    if "--csv" in argv:
        index = argv.index("--csv")
        if index + 1 >= len(argv):
            print("--csv requires a directory argument", file=sys.stderr)
            return 2
        csv_dir = argv[index + 1]
    sizes = (100, 300) if quick else (300, 1000, 3000)
    ops = 3 if quick else 10

    print("=" * 72)
    _write_csv(csv_dir, "fig10b", fig10b_dataset_stats(sizes))
    print()
    _write_csv(
        csv_dir, "fig11_deletions",
        fig11_series("delete", sizes=sizes, ops_per_class=ops),
    )
    print()
    _write_csv(
        csv_dir, "fig11_insertions",
        fig11_series("insert", sizes=sizes, ops_per_class=ops),
    )
    print()
    _write_csv(csv_dir, "fig11g", fig11g_vary_selectivity(n_c=sizes[-1]))
    print()
    _write_csv(csv_dir, "fig11h", fig11h_vary_subtree(n_c=sizes[-1]))
    print()
    _write_csv(
        csv_dir, "table1",
        table1_incremental_vs_recompute(sizes=sizes, ops=max(3, ops // 2)),
    )
    print()
    _write_csv(csv_dir, "ablation_reach", ablation_reach(sizes=sizes[:2]))
    print()
    _write_csv(
        csv_dir,
        "ablation_index_backends",
        ablation_index_backends(sizes=sizes[:2]),
    )
    print()
    _write_csv(
        csv_dir, "ablation_dag_vs_tree", ablation_dag_vs_tree(sizes=sizes[:2])
    )
    print()
    _write_csv(
        csv_dir, "ablation_minimal_delete",
        ablation_minimal_delete(n_c=sizes[0]),
    )
    print()
    depths = (30, 80) if quick else (50, 150, 300)
    _write_csv(csv_dir, "ablation_chain_depth", ablation_chain_depth(depths))
    print("=" * 72)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
