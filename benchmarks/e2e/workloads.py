"""The four workloads, and their op streams as cached artifacts.

A workload is a fixed *pool* of independently generated streams: stream
``i`` targets its own dataset ``synthetic:<n_c>:<i>`` and is generated
by ``repro.bench.workload_gen`` from seed ``i``.  A run applies the
whole pool, each stream to a fresh service in a fresh process, in the
order ``--seed`` fixes.  The seed deliberately does not choose *which*
streams run: on this code one stream's throughput differs from the
next's by 15-25% (view shape, op mix), so any seeded subset of streams
would put several percent of input variance into every metric and hide
the regressions the bounds in ``BENCHMARK.json`` are there to catch.

Generation drives a shadow view and costs 1.5-2.5x the measured loop,
so streams are cached as JSONL under ``.cache/``.  The program under
test only ever receives a stream file's lines.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import random
import time

HERE = pathlib.Path(__file__).resolve().parent
CACHE_DIR = HERE / ".cache"
#: The program under test, built from source: ``<checkout>/src``.
SRC = HERE.parent.parent / "src"

#: Bumped when the layout of a cached stream file changes.
STREAM_FORMAT = 1

#: The ``--seconds`` at which a run applies a workload's whole pool; equal
#: to ``run_seconds`` in ``BENCHMARK.json``.  Pools are sized so that their
#: timed loops add up to about this long on 2 shared cores.
POOL_SECONDS = 15


@dataclasses.dataclass(frozen=True)
class Workload:
    """One row of the workload table (see README.md for the reasoning)."""

    name: str
    why: str
    n_c: int
    pattern: str
    ops: int
    """Writes per stream."""
    pool: int
    """Streams a run applies (at ``--seconds`` = :data:`POOL_SECONDS`)."""
    reads_per_write: int = 0
    queries: int = 0
    """Size of the seeded query set the reads are drawn from."""
    subscriptions: int = 0
    durable: bool = False
    """Callback changefeed + WAL (fsync=batch), then recovery and a
    replica bootstrap after the timed loop."""

    def dataset(self, stream: int) -> str:
        return f"synthetic:{self.n_c}:{stream}"

    def spec(self, stream: int):
        from repro.bench.workload_gen import WorkloadSpec

        return WorkloadSpec(
            workload=self.dataset(stream),
            ops=self.ops,
            seed=stream,
            pattern=self.pattern,
            key_skew=0.8,
            subscriptions=self.subscriptions,
        )

    def smoke(self) -> "Workload":
        """The same shape at a size that runs in a second."""
        return dataclasses.replace(self, n_c=120, ops=20, pool=1)


WORKLOADS = (
    Workload(
        name="mixed",
        why="insert/delete/replace blend with 20% new-key SAT inserts: "
        "plan-bound (relview.insert + relational + sat), heavy tail",
        n_c=600, pattern="mixed", ops=200, pool=5,
    ),
    Workload(
        name="dense_dag",
        why="sharing inserts onto a hot set: maintenance and DAG XPath "
        "dominate, so a plan-side change must show nothing here",
        n_c=300, pattern="dense_dag", ops=400, pool=6,
    ),
    Workload(
        name="read_mostly",
        why="9 xpath reads per churn write on the large view: the read "
        "path is most of the wall, so evaluator changes that cost readers "
        "show here",
        n_c=1000, pattern="churn", ops=40, pool=3,
        reads_per_write=9, queries=16,
    ),
    Workload(
        name="subscribed_durable",
        why="32 standing subscriptions, a callback changefeed and a WAL: "
        "the only workload where subscribe, changefeed, wal and replica "
        "do real work",
        n_c=200, pattern="churn", ops=200, pool=5,
        subscriptions=32, durable=True,
    ),
)


def by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(name)


def streams_of_run(workload: Workload, seed: int, seconds: float) -> list[int]:
    """The pool indices a run applies, in the order ``seed`` fixes.

    The work is fixed, not the time: at :data:`POOL_SECONDS` a run
    applies the whole pool, and a shorter ``--seconds`` a proportional
    prefix of the seeded order.
    """
    order = list(range(workload.pool))
    random.Random(seed).shuffle(order)
    count = round(workload.pool * seconds / POOL_SECONDS)
    return order[: max(1, count)]


def _header(workload: Workload, stream: int) -> dict:
    from repro.bench.workload_gen import make_header

    header = make_header(workload.spec(stream), argv=["benchmarks/e2e"])
    header["bench"] = {
        "format": STREAM_FORMAT,
        "reads_per_write": workload.reads_per_write,
        "queries": workload.queries,
    }
    return header


def _cache_key(header: dict) -> str:
    identity = {
        "params": header["params"],
        "version": header["version"],
        "bench": header["bench"],
    }
    blob = json.dumps(identity, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _generate_lines(workload: Workload, stream: int, header: dict):
    """Header first, then the calls the client makes, in order."""
    from repro.bench.workload_gen import generate_ops
    from repro.workloads.queries import make_query_set
    from repro.workloads.synthetic import SyntheticConfig, build_synthetic

    yield header
    queries: list[str] = []
    rng = random.Random(stream)
    if workload.reads_per_write:
        dataset = build_synthetic(
            SyntheticConfig(n_c=workload.n_c, seed=stream)
        )
        queries = make_query_set(
            dataset, count=workload.queries, seed=stream
        )
    for op in generate_ops(workload.spec(stream)):
        for _ in range(workload.reads_per_write):
            yield {"op": "read", "path": rng.choice(queries)}
        yield op


def ensure_stream(workload: Workload, stream: int) -> tuple[pathlib.Path, float]:
    """The stream's JSONL file and the seconds spent generating it.

    A cache hit costs 0.0 generation seconds.  It is validated by
    re-deriving the header (parameters, library version, derived
    subscription paths), so a file left behind by other parameters or
    another ``repro`` version is regenerated, never replayed.
    """
    header = _header(workload, stream)
    path = CACHE_DIR / f"{workload.name}-{stream:02d}-{_cache_key(header)[:16]}.jsonl"
    if path.exists():
        with open(path, encoding="utf-8") as handle:
            if json.loads(handle.readline()) == header:
                return path, 0.0
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    scratch = path.with_suffix(f".{os.getpid()}.tmp")
    try:
        with open(scratch, "w", encoding="utf-8") as handle:
            for record in _generate_lines(workload, stream, header):
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        os.replace(scratch, path)
    finally:
        scratch.unlink(missing_ok=True)
    return path, time.perf_counter() - start
