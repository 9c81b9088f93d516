"""``repro-bench generate ...``: the workload generator's command line.

Dispatches to :mod:`repro.bench.workload_gen`, which emits a
reproducible op-stream JSONL with a provenance header — see
``docs/observability.md``.  The paper's figures and tables are
regenerated from a checkout by ``python -m benchmarks.paper``.
"""

from __future__ import annotations

import sys

from repro.bench.workload_gen import main as generate_main


def main(argv: list[str] | None = None) -> int:
    if argv is None:  # console-script entry point
        argv = sys.argv[1:]
    if argv and argv[0] == "generate":
        return generate_main(argv[1:])
    print(
        "usage: repro-bench generate [options]  (the paper's figures and "
        "tables: python -m benchmarks.paper [--quick] [--csv DIR])",
        file=sys.stderr,
    )
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
