"""Every metric the benchmark reports: name, unit, and how it is derived.

``BENCHMARK.json`` lists the same names and units (``run.py --smoke``
fails when the two disagree).  End-to-end metrics are measured with
tracing off; per-layer metrics come from a traced run of the same
streams.  An *op* is one timed client call — ``service.apply(op)`` or
``service.xpath(q)``.
"""

from __future__ import annotations

import math
import statistics

from trace import LAYERS

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

#: ``index`` is entered through ``build_index`` at set-up only; inside
#: the timed loop its methods are called per node by ``core.maintenance``
#: and ``core.dag_eval`` (too fine to wrap at a 1.15 overhead budget), so
#: its loop time is part of those layers' self time.
SELF_TIME_LAYERS = tuple(layer for layer in LAYERS if layer != "index")

WORK = {
    "core.dag_eval.evals_per_op": "count",
    "core.dag_eval.ms_per_eval": "ms",
    "relational.spj_evals_per_op": "count",
    "relational.ms_per_eval": "ms",
    "relational.rows_out_per_eval": "count",
    "relational.delta_r_rows_per_op": "count",
    "views.rows_referencing_per_op": "count",
    "views.nodes": "count",
    "views.edges": "count",
    "core.translate.delta_v_edges_per_op": "count",
    "relview.insert.ms_per_call": "ms",
    "relview.delete.ms_per_call": "ms",
    "sat.solves_per_op": "count",
    "sat.ms_per_solve": "ms",
    "core.maintenance.runs_per_op": "count",
    "core.maintenance.ms_per_run": "ms",
    "index.reach_pairs": "count",
    "index.build_ms": "ms",
    "subscribe.ms_per_commit": "ms",
    "subscribe.inclusive_share": "ratio",
    "subscribe.skip_ratio": "ratio",
    "subscribe.full_refresh_per_commit": "count",
    "service.lock_hold_ms_per_commit": "ms",
    "changefeed.events_per_commit": "count",
    "wal.bytes_per_op": "B",
    "wal.fsyncs_per_op": "count",
    "wal.checkpoint_ms": "ms",
    "wal.recover_ms": "ms",
    "wal.records_replayed": "count",
    "replica.snapshot_ms": "ms",
    "replica.bootstrap_ms": "ms",
    "atg.publish_store_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.attributed_share": "ratio",
}

PER_LAYER = {
    **{
        f"{layer}.{suffix}": unit
        for layer in SELF_TIME_LAYERS
        for suffix, unit in (("self_ms_per_op", "ms"), ("self_share", "ratio"))
    },
    **WORK,
}


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def spread(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median (the driver's
    steadiness measure); ``None`` below two values."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def slow_mean(values: list[float]) -> float:
    """Mean of the values between the 90th and the 99th percentile.

    A steadier description of the slow ops than one order statistic:
    every workload has a cliff somewhere in its latency distribution and
    a rank sitting on one flips between its two sides (p99 on
    ``dense_dag``: some twenty ops per run, the same ones every run, cost
    11-20 ms, the rest at most 9 ms; 34% spread over 24 runs of identical
    input).  The slowest 1% is left out because that is where the
    sandbox's stalls land.
    """
    ordered = sorted(values)
    count = len(ordered)
    return statistics.mean(
        ordered[math.floor(0.90 * count): math.ceil(0.99 * count)]
    )


def latency_ms(streams: list[dict], *keys: str) -> list[float]:
    """Latencies of the named call kinds, pooled over the streams."""
    return [
        seconds * 1e3 for s in streams for key in keys for seconds in s[key]
    ]


def end_to_end(streams: list[dict]) -> dict[str, float]:
    """The end-to-end metrics of one run from its untraced streams."""
    pooled = latency_ms(streams, "write_s", "read_s")
    return {
        "ops_per_s": 1e3 * len(pooled) / sum(pooled),
        "op_p50_ms": percentile(pooled, 0.50),
        "setup_s": statistics.median(s["setup_s"] for s in streams),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in streams),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(plain: list[dict], traced: list[dict], trace: dict) -> dict:
    """The per-layer metrics of one traced run.

    ``trace`` is the merged :meth:`trace.Tracer.aggregate` of the traced
    streams, ``plain`` the same streams run untraced (for the overhead).
    """
    loop, setup, post = trace["loop"], trace["setup"], trace["post"]
    wall = sum(s["raw_s"] for s in traced)
    ops = sum(len(s["write_s"]) + len(s["read_s"]) for s in traced)
    counters = {
        key: sum(s["counters"][key] for s in traced)
        for key in traced[0]["counters"]
    }
    sizes = {
        key: sum(s["sizes"][key] for s in traced) for key in traced[0]["sizes"]
    }
    commits = counters["commits"]

    def calls(phase, *names) -> int:
        return sum(phase.get(name, (0,))[0] for name in names)

    def total_ms(phase, *names) -> float:
        return 1e3 * sum(phase.get(name, (0, 0.0))[1] for name in names)

    def rows(phase, name) -> int:
        return phase.get(name, (0, 0, 0, 0))[3]

    def ms_per_call(phase, *names) -> float:
        return _ratio(total_ms(phase, *names), calls(phase, *names))

    out: dict[str, float] = {}
    for layer in SELF_TIME_LAYERS:
        self_s = sum(
            row[2] for name, row in loop.items()
            if name.partition(":")[0] == layer
        )
        out[f"{layer}.self_ms_per_op"] = _ratio(1e3 * self_s, ops)
        out[f"{layer}.self_share"] = _ratio(self_s, wall)

    evals = ("core.dag_eval:DagXPathEvaluator.evaluate",
             "core.dag_eval:DagXPathEvaluator.evaluate_from")
    spj = "relational:SPJQuery.evaluate"
    solvers = ("sat:walksat_solve", "sat:dpll_solve")
    maintain = ("core.maintenance:maintain_insert",
                "core.maintenance:maintain_delete")
    relview_delete = ("relview.delete:expand_view_deletions",
                      "relview.delete:translate_deletions")
    registry = ("subscribe:SubscriptionRegistry.apply_batched",
                "subscribe:SubscriptionRegistry.handle")
    service = ("service:ViewService.apply", "service:ViewService.xpath")
    checkpoint = "wal:WriteAheadLog.write_checkpoint"
    decisions = (
        counters["sub_skips"] + counters["sub_suffix"] + counters["sub_full"]
    )
    streams = len(traced)
    out.update({
        "core.dag_eval.evals_per_op": _ratio(calls(loop, *evals), ops),
        "core.dag_eval.ms_per_eval": ms_per_call(loop, *evals),
        "relational.spj_evals_per_op": _ratio(calls(loop, spj), ops),
        "relational.ms_per_eval": ms_per_call(loop, spj),
        "relational.rows_out_per_eval": _ratio(
            rows(loop, spj), calls(loop, spj)
        ),
        "relational.delta_r_rows_per_op": _ratio(sizes["delta_r_rows"], ops),
        "views.rows_referencing_per_op": _ratio(
            calls(loop, "views:EdgeView.rows_referencing"), ops
        ),
        "views.nodes": sizes["nodes"] / streams,
        "views.edges": sizes["edges"] / streams,
        "core.translate.delta_v_edges_per_op": _ratio(
            sizes["delta_v_edges"], ops
        ),
        "relview.insert.ms_per_call": ms_per_call(
            loop, "relview.insert:translate_insertions"
        ),
        "relview.delete.ms_per_call": ms_per_call(loop, *relview_delete),
        "sat.solves_per_op": _ratio(calls(loop, *solvers), ops),
        "sat.ms_per_solve": ms_per_call(loop, *solvers),
        "core.maintenance.runs_per_op": _ratio(
            counters["maintenance_runs"], ops
        ),
        "core.maintenance.ms_per_run": _ratio(
            total_ms(loop, *maintain), counters["maintenance_runs"]
        ),
        "index.reach_pairs": sizes["reach_pairs"] / streams,
        "index.build_ms": ms_per_call(setup, "index:build_index"),
        "subscribe.ms_per_commit": _ratio(total_ms(loop, *registry), commits),
        "subscribe.inclusive_share": _ratio(
            total_ms(loop, *registry) / 1e3, wall
        ),
        "subscribe.skip_ratio": _ratio(counters["sub_skips"], decisions),
        "subscribe.full_refresh_per_commit": _ratio(
            counters["sub_full"], commits
        ),
        "service.lock_hold_ms_per_commit": _ratio(
            1e3 * counters["lock_hold_s"], commits
        ),
        "changefeed.events_per_commit": _ratio(
            counters["events_published"], commits
        ),
        "wal.bytes_per_op": _ratio(sizes["wal_bytes"], ops),
        "wal.fsyncs_per_op": _ratio(counters["wal_fsyncs"], ops),
        "wal.checkpoint_ms": _ratio(
            sum(total_ms(phase, checkpoint) for phase in trace.values()),
            sum(calls(phase, checkpoint) for phase in trace.values()),
        ),
        "wal.recover_ms": ms_per_call(post, "wal:recover_state"),
        "wal.records_replayed": sizes["wal_records_replayed"] / streams,
        "replica.snapshot_ms": ms_per_call(post, "replica:Snapshot.capture"),
        "replica.bootstrap_ms": ms_per_call(
            post, "replica:ReplicaView.from_snapshot"
        ),
        "atg.publish_store_ms": ms_per_call(setup, "atg:publish_store"),
        "trace.overhead_ratio": _ratio(
            sum(latency_ms(traced, "write_s", "read_s")),
            sum(latency_ms(plain, "write_s", "read_s")),
        ),
        "trace.attributed_share": _ratio(
            sum(row[1] - row[2] for name, row in loop.items()
                if name in service),
            wall,
        ),
    })
    return out
