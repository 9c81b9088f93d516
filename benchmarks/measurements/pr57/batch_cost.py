"""A batch's whole wall against the same ops applied one by one.

    python3 batch_cost.py CHECKOUT [--repeats N] [--streams K]

Imports ``repro`` from CHECKOUT's ``src/`` and generates eight 200-op
streams with ``repro.bench.workload_gen.generate_ops`` at
``key_skew=0.8``: ``mixed`` on ``synthetic:600``, ``dense_dag`` on
``synthetic:300``, ``churn`` on ``synthetic:1000`` and ``mixed`` on
``synthetic:3000``, each with dataset and stream seed 0 and 1.  Every
op of such a stream is accepted when applied one by one (the
generator's shadow view checks it).

Each stream is applied three ways: one by one (``service.apply(op)``),
and in ``service.apply([...])`` batches of 10 and of 50.  The three
ways take turns, N rounds (default 5), so drift on a shared host
reaches them alike; each run is on a fresh service
(``ViewConfig(strict=False)``) opened before the clock starts, with
``gc.collect()`` right before the loop.  The best wall of each way is
printed, with the ops accepted and the store digest at the end.  A
line per stream says whether the three ways accepted the same ops and
ended on the same digest.  ``--streams K`` runs the first K streams
only.
"""

from __future__ import annotations

import argparse
import gc
import pathlib
import sys
from time import perf_counter

STREAMS = [
    (pattern, f"synthetic:{n_c}:{seed}", seed)
    for pattern, n_c in (
        ("mixed", 600), ("dense_dag", 300), ("churn", 1000), ("mixed", 3000)
    )
    for seed in (0, 1)
]
SIZES = (1, 10, 50)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--streams", type=int, default=len(STREAMS))
    args = parser.parse_args()
    sys.path.insert(0, str(pathlib.Path(args.checkout).resolve() / "src"))
    from repro import ViewConfig, open_view, op_from_dict
    from repro.bench.workload_gen import WorkloadSpec, generate_ops
    from repro.workloads import named_workload

    def run(workload, ops, size):
        service = open_view(
            *named_workload(workload), config=ViewConfig(strict=False)
        )
        gc.collect()
        start = perf_counter()
        if size == 1:
            outcomes = [service.apply(op) for op in ops]
        else:
            outcomes = []
            for first in range(0, len(ops), size):
                outcomes.extend(service.apply(ops[first:first + size]))
        wall = perf_counter() - start
        accepted = [outcome.accepted for outcome in outcomes]
        return wall, accepted, service.store.digest()

    for pattern, workload, seed in STREAMS[: args.streams]:
        spec = WorkloadSpec(
            workload=workload, ops=200, seed=seed, pattern=pattern,
            key_skew=0.8,
        )
        ops = [op_from_dict(op) for op in generate_ops(spec)]
        runs = {size: [] for size in SIZES}
        for _ in range(args.repeats):
            for size in SIZES:
                runs[size].append(run(workload, ops, size))
        results = {}
        for size, done in runs.items():
            _, accepted, digest = done[0]
            assert all(r[1:] == (accepted, digest) for r in done), size
            results[size] = (min(r[0] for r in done), accepted, digest)
        single = results[1]
        cells = "  ".join(
            f"{'one by one' if size == 1 else f'batches of {size}'}: "
            f"{wall * 1e3:8.1f} ms {sum(accepted):3d}/{len(ops)} "
            f"({wall / single[0]:.2f}x)"
            for size, (wall, accepted, _) in results.items()
        )
        same = all(
            (accepted, digest) == single[1:]
            for _, accepted, digest in results.values()
        )
        print(
            f"{pattern:9s} {workload:16s}  {cells}  "
            f"{'same ops and digest' if same else 'DIFFERENT'}",
            flush=True,
        )


if __name__ == "__main__":
    main()
