"""Tests for the metrics surface: registry, renderer, and exactness.

Three layers:

- unit tests of :mod:`repro.metrics` primitives (counters, gauges,
  fixed-bucket histograms, family labeling, the Prometheus renderer);
- wiring tests — ``service.metrics()`` / ``metrics_text()`` exist and
  are validator-clean, and a component built without a service counts
  into a registry of its own;
- **exactness** — the registry is the only store of what it counts
  (``stats()`` reads it back), so every number is pinned to a fact
  observed from outside: the write scopes the test opened, the
  ``UpdateOutcome`` payloads, the events a callback changefeed
  received, and the operations seen at the WAL's file-system seam.
"""

import json
import math
import os
import time
from types import SimpleNamespace

import pytest

from faults import CrashPointFS
from repro.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    render_prometheus,
    validate_exposition,
)
from repro.ops import DeleteOp, InsertOp, ReplaceOp
from repro.service import ViewConfig, open_view
from repro.workloads.registrar import build_registrar
from repro.workloads.synthetic import SyntheticConfig, build_synthetic

# -- registry primitives -----------------------------------------------------------


class TestRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_test_total", "help")
        c.inc()
        c.inc(4)
        assert reg.counter("repro_test_total", "help").value == 5.0

    def test_counter_rejects_negative(self):
        c = MetricsRegistry().counter("repro_test_total", "help")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set_inc_dec(self):
        g = MetricsRegistry().gauge("repro_test", "help")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == 7.0

    def test_histogram_buckets_cumulative(self):
        h = MetricsRegistry().histogram(
            "repro_test_seconds", "help", buckets=(0.1, 1.0)
        )
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(6.05)
        assert snap["buckets"]["0.1"] == 1
        assert snap["buckets"]["1.0"] == 3  # cumulative
        assert snap["buckets"]["+Inf"] == 4

    def test_histogram_boundary_is_le(self):
        h = MetricsRegistry().histogram(
            "repro_test_seconds", "help", buckets=(1.0,)
        )
        h.observe(1.0)  # le="1.0" includes the boundary
        assert h.snapshot()["buckets"]["1.0"] == 1

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(
            DEFAULT_LATENCY_BUCKETS
        )

    def test_labels_create_distinct_series(self):
        reg = MetricsRegistry()
        fam = reg.counter("repro_test_total", "help")
        fam.labels(kind="a").inc()
        fam.labels(kind="b").inc(2)
        d = reg.to_dict()
        assert d["counters"]['repro_test_total{kind="a"}'] == 1.0
        assert d["counters"]['repro_test_total{kind="b"}'] == 2.0

    def test_reregister_same_type_returns_same_family(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_test_total", "help")
        b = reg.counter("repro_test_total", "help")
        a.inc()
        assert b.value == 1.0

    def test_reregister_different_type_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_test_total", "help")
        with pytest.raises(ValueError):
            reg.gauge("repro_test_total", "help")


# -- renderer ----------------------------------------------------------------------


class TestRender:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("repro_b_total", "b counter").labels(kind="x").inc(2)
        reg.counter("repro_a_total", "a counter").inc(1)
        reg.gauge("repro_g", "a gauge").set(1.5)
        h = reg.histogram("repro_h_seconds", "a histogram", buckets=(0.5,))
        h.observe(0.25)
        h.observe(0.75)
        return reg

    def test_renders_families_in_name_order(self):
        text = render_prometheus(self._registry())
        order = [
            line.split()[2]
            for line in text.splitlines()
            if line.startswith("# TYPE")
        ]
        assert order == sorted(order)

    def test_help_and_type_per_family(self):
        text = render_prometheus(self._registry())
        assert "# HELP repro_a_total a counter" in text
        assert "# TYPE repro_a_total counter" in text
        assert "# TYPE repro_g gauge" in text
        assert "# TYPE repro_h_seconds histogram" in text

    def test_histogram_expansion(self):
        text = render_prometheus(self._registry())
        assert 'repro_h_seconds_bucket{le="0.5"} 1' in text
        assert 'repro_h_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_h_seconds_sum 1" in text
        assert "repro_h_seconds_count 2" in text

    def test_byte_deterministic(self):
        assert render_prometheus(self._registry()) == render_prometheus(
            self._registry()
        )

    def test_renderer_output_passes_validator(self):
        assert validate_exposition(render_prometheus(self._registry())) == []


# -- service wiring ---------------------------------------------------------------


def registrar_service(**config):
    atg, db = build_registrar()
    return open_view(atg, db, config=ViewConfig(**config))


class TestServiceSurface:
    def test_metrics_text_is_validator_clean(self):
        service = registrar_service()
        service.apply(
            InsertOp(".", "course", ("CS900", "Metrics"))
        )
        service.xpath("//course")
        assert validate_exposition(service.metrics_text()) == []

    def test_metrics_dict_shape(self):
        service = registrar_service()
        service.apply(InsertOp(".", "course", ("CS901", "Shapes")))
        m = service.metrics()
        assert set(m) == {"counters", "gauges", "histograms"}
        assert m["counters"]["repro_commits_total"] == 1.0
        assert m["gauges"]["repro_generation"] == service.stats()["generation"]

    def test_gauges_track_live_state(self):
        service = registrar_service()
        sub = service.subscribe("//course")
        consumer = service.changefeed()
        m = service.metrics()
        assert m["gauges"]["repro_subscriptions_active"] == 1.0
        assert m["gauges"]["repro_changefeed_consumers"] == 1.0
        assert m["gauges"]["repro_view_nodes"] == service.stats()["nodes"]
        assert m["gauges"]["repro_view_edges"] == service.stats()["edges"]
        consumer.close()
        sub.close()
        assert service.metrics()["gauges"]["repro_changefeed_consumers"] == 0.0

    def test_counters_monotonic_across_scrapes(self):
        service = registrar_service()
        first = service.metrics_text()
        service.apply(InsertOp(".", "course", ("CS902", "Monotone")))
        second = service.metrics_text()
        assert validate_exposition(second, previous=first) == []

    def test_bare_components_count_into_their_own_registry(self, tmp_path):
        # A hub / registry / WAL built without metrics= (no service
        # around it) counts into a private registry; stats() reports it
        # and two bare components share nothing.
        from repro.changefeed.hub import ChangefeedHub
        from repro.core.updater import XMLViewUpdater
        from repro.subscribe.engine import SubscriptionRegistry
        from repro.views.events import ViewEvent
        from repro.wal.log import WriteAheadLog

        atg, db = build_registrar()
        updater = XMLViewUpdater(atg, db)
        event = ViewEvent(generation=1, coarse=True, reason="test")
        hub, idle_hub = ChangefeedHub(updater), ChangefeedHub(updater)
        hub.open()
        assert hub.stage(event) is not None
        assert hub.stats()["events_published"] == 1
        assert idle_hub.stats()["events_published"] == 0
        registry = SubscriptionRegistry(updater)
        registry.subscribe("//course")
        registry.apply_batched(event)
        assert registry.stats()["events_processed"] == 1
        assert SubscriptionRegistry(updater).stats()["events_processed"] == 0
        wal = WriteAheadLog(str(tmp_path / "wal"), fsync="always")
        wal.append(event)
        wal.close()
        stats = wal.stats()
        assert (stats["records_appended"], stats["fsyncs"]) == (1, 1)
        reopened = WriteAheadLog(str(tmp_path / "wal"), readonly=True)
        assert reopened.stats()["records"] == 1
        assert reopened.stats()["records_appended"] == 0  # this handle's
        reopened.close()


# -- exactness against facts observed from outside -------------------------------


def _loaded_service(tmp_path):
    """A WAL-backed, subscribed service after four write scopes
    (three accepted ops, one rejected) and two reads, plus what the
    test saw from outside while driving it."""
    wal_dir = str(tmp_path / "wal")
    dataset = build_synthetic(SyntheticConfig(n_c=80, seed=5))
    fs = CrashPointFS(wal_dir, count_fsync=True)  # counts, never crashes
    service = open_view(
        dataset.atg,
        dataset.db,
        config=ViewConfig(
            strict=False,
            wal_dir=wal_dir,
            wal_fsync="always",
        ),
        wal_fs=fs,
    )
    # ``M`` has one implementation; the key stays for
    # ``benchmarks/e2e/worker.py``, which reads it.
    assert service.stats()["index_backend"] == "bitset"
    service.subscribe("//cnode")
    pulled = service.changefeed()
    pushed = []
    service.changefeed(on_event=pushed.append)
    keys = sorted(
        service.store.node_sem[n][0]
        for n in service.xpath("//cnode").targets
    )
    ops = [
        InsertOp(f"//cnode[key={keys[0]}]/sub", "cnode", (9001, "w1")),
        DeleteOp(f"//cnode[key={keys[1]}]"),
        ReplaceOp(f"//cnode[key={keys[2]}]", "cnode", (9002, "w2")),
        DeleteOp("//cnode[key=123456]"),  # rejected: selects nothing
    ]
    start = time.perf_counter()
    outcomes = [service.apply(op) for op in ops]  # one scope each
    elapsed = time.perf_counter() - start
    service.xpath("//cnode")
    service.xpath("//cnode/sub")
    return SimpleNamespace(
        service=service, scopes=len(ops), outcomes=outcomes,
        pulled=pulled, pushed=pushed, elapsed=elapsed,
        wal_dir=wal_dir, fs=fs,
    )


class TestCountersAreExact:
    """Counters against what the test saw from outside: commits, ops,
    events and WAL operations."""

    def test_commits_match_pipeline_stats(self, tmp_path):
        run = _loaded_service(tmp_path)
        m = run.service.metrics()["counters"]
        pipeline = run.service.stats()["pipeline"]
        accepted = sum(1 for o in run.outcomes if o.accepted)
        assert len(run.pushed) == accepted == 3
        assert m["repro_commits_total"] == pipeline["commits"] == run.scopes
        assert (
            m["repro_commit_records_sealed_total"]
            == pipeline["records_sealed"]
            == len(run.pushed)
        )
        assert type(pipeline["commits"]) is int
        assert type(pipeline["records_sealed"]) is int

    def test_ops_counter_matches_outcomes(self, tmp_path):
        run = _loaded_service(tmp_path)
        m = run.service.metrics()["counters"]
        for kind in ("insert", "delete", "replace"):
            for accepted in ("true", "false"):
                series = f'repro_ops_total{{accepted="{accepted}",kind="{kind}"}}'
                expected = sum(
                    1
                    for o in run.outcomes
                    if o.kind == kind
                    and o.accepted == (accepted == "true")
                )
                assert m.get(series, 0.0) == expected, series

    def test_event_counters_match_hub_and_registry(self, tmp_path):
        run = _loaded_service(tmp_path)
        m = run.service.metrics()["counters"]
        stats = run.service.stats()
        events = len(run.pushed)
        assert run.pulled.delivered == events
        assert [e.generation for e in run.pulled.events()] == [
            e.generation for e in run.pushed
        ]
        assert (
            m["repro_events_published_total"]
            == stats["changefeed"]["events_published"]
            == events
        )
        assert (
            m["repro_subscription_events_total"]
            == stats["subscriptions"]["events_processed"]
            == events
        )
        for key in ("overflows", "parks", "callback_errors"):
            assert stats["changefeed"][key] == 0
            assert m[f"repro_consumer_{key}_total"] == 0.0

    def test_wal_counters_match_stats(self, tmp_path):
        run = _loaded_service(tmp_path)
        m = run.service.metrics()["counters"]
        wal = run.service.stats()["wal"]
        count = run.fs.count  # operations seen at the WAL's fs seam
        appends = count("append", "seg-")
        assert appends == len(run.pushed)  # one record per published event
        assert appends == len(run.service.wal.records_since(0))
        assert m["repro_wal_records_total"] == wal["records_appended"] == appends
        # wal_fsync="always": one segment fsync per append.
        assert m["repro_wal_fsyncs_total"] == wal["fsyncs"] == appends
        assert count("fsync", "seg-") == appends
        # Checkpoints land by renaming tmp-ckpt-* into place (here only
        # the initial one); segments are what the directory holds.
        cuts = count("rename", "tmp-ckpt-")
        assert m["repro_wal_checkpoints_total"] == wal["checkpoints_written"]
        assert wal["checkpoints_written"] == cuts == 1
        files = os.listdir(run.wal_dir)
        segments = [f for f in files if f.startswith("seg-")]
        assert len([f for f in files if f.startswith("ckpt-")]) == cuts
        assert wal["segments"] == len(segments) == 1
        with open(os.path.join(run.wal_dir, "manifest.json")) as fh:
            active = json.load(fh)["active"]
        assert m["repro_wal_rotations_total"] == wal["rotations"]
        assert wal["rotations"] == int(active[4:12]) - 1 == 0
        assert m["repro_wal_bytes_total"] == sum(
            os.path.getsize(os.path.join(run.wal_dir, f)) for f in segments
        )


class TestHistogramsAndExposition:
    """Histograms against the pipeline's totals and the reads the test
    made; the exposition and ``stats()`` under the same load."""

    def test_phase_histogram_counts(self, tmp_path):
        run = _loaded_service(tmp_path)
        m = run.service.metrics()["histograms"]
        seconds = run.service.stats()["pipeline"]["phase_seconds"]
        # plan and mutate are timed in every scope, maintain only where
        # an event was sealed, publish only where a consumer was staged.
        for phase, count in (
            ("plan", run.scopes),
            ("mutate", run.scopes),
            ("maintain", len(run.pushed)),
            ("publish", len(run.pushed)),
        ):
            series = m[f'repro_commit_phase_seconds{{phase="{phase}"}}']
            assert series["count"] == count, phase
            assert 0.0 < series["sum"] == seconds[phase], phase
        # The phases are disjoint slices of the wall clock the test
        # measured around its four applies.
        assert sum(seconds.values()) <= run.elapsed

    def test_lock_histograms_match_pipeline_totals(self, tmp_path):
        run = _loaded_service(tmp_path)
        m = run.service.metrics()["histograms"]
        pipeline = run.service.stats()["pipeline"]
        assert m["repro_lock_wait_seconds"]["count"] == run.scopes
        assert m["repro_lock_hold_seconds"]["count"] == run.scopes
        wait, hold = pipeline["lock_wait_seconds"], pipeline["lock_hold_seconds"]
        assert m["repro_lock_wait_seconds"]["sum"] == wait
        assert m["repro_lock_hold_seconds"]["sum"] == hold
        # One uncontended writer: the lock was held for most of the
        # four applies and never longer than they took.
        assert 0.0 < hold <= run.elapsed
        assert 0.0 <= wait <= run.elapsed - hold
        seconds = pipeline["phase_seconds"]
        assert hold == pytest.approx(
            seconds["plan"] + seconds["mutate"] + seconds["maintain"]
        )

    def test_xpath_histogram_counts_reads(self, tmp_path):
        service = _loaded_service(tmp_path).service
        before = service.metrics()["histograms"]["repro_xpath_seconds"][
            "count"
        ]
        assert before == 3  # the key lookup + the two reads
        service.xpath("//cnode")
        after = service.metrics()["histograms"]["repro_xpath_seconds"][
            "count"
        ]
        assert after == before + 1
        assert math.isfinite(
            service.metrics()["histograms"]["repro_xpath_seconds"]["sum"]
        )

    def test_exposition_valid_under_load(self, tmp_path):
        service = _loaded_service(tmp_path).service
        assert validate_exposition(service.metrics_text()) == []

    def test_stats_read_adds_no_series(self, tmp_path):
        fresh = registrar_service()
        idle = fresh.metrics_text()
        fresh.stats()
        assert fresh.metrics_text() == idle
        service = _loaded_service(tmp_path).service
        before = service.metrics_text()
        service.stats()
        assert service.metrics_text() == before
