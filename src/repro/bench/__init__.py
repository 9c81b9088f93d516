"""The workload generator behind ``repro-bench generate``.

:mod:`repro.bench.workload_gen` writes reproducible op-stream JSONL with
a provenance header (see ``docs/observability.md``); the end-to-end
benchmark and ``python -m repro.apply`` read what it writes.  The
paper's figures and tables are experiments about the package, not part
of it: ``python -m benchmarks.paper`` regenerates them from a checkout.
"""
