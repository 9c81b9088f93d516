"""Tests for the metrics surface: registry, renderer, and exactness.

Three layers:

- unit tests of :mod:`repro.metrics` primitives (counters, gauges,
  fixed-bucket histograms, family labeling, the Prometheus renderer);
- wiring tests — ``service.metrics()`` / ``metrics_text()`` exist, are
  validator-clean, and cost nothing when components run unthreaded
  (the ``NULL_METRICS`` null object);
- **cross-surface exactness** — every counter must equal the ground
  truth already exposed elsewhere (``UpdateOutcome`` payloads,
  ``stats()["pipeline"]``, ``stats()["wal"]``, hub/registry counters).
"""

import math

import pytest

from repro.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    NULL_METRICS,
    MetricsRegistry,
    render_prometheus,
    validate_exposition,
)
from repro.ops import DeleteOp, InsertOp, ReplaceOp
from repro.service import ViewConfig, open_view
from repro.workloads.registrar import build_registrar
from repro.workloads.synthetic import SyntheticConfig, build_synthetic

BACKENDS = ["bitset"]


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

    def test_null_registry_is_inert(self):
        c = NULL_METRICS.counter("x", "y")
        c.inc()
        c.labels(kind="a").inc(5)
        h = NULL_METRICS.histogram("z", "y")
        h.observe(1.0)
        g = NULL_METRICS.gauge("g", "y")
        g.set(3)
        g.dec()


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

    def test_unthreaded_components_stay_silent(self):
        # A bare updater-backed hub/registry/WAL constructed without
        # metrics= must not blow up and must not register anything.
        from repro.changefeed.hub import ChangefeedHub
        from repro.core.updater import XMLViewUpdater
        from repro.subscribe.engine import SubscriptionRegistry

        atg, db = build_registrar()
        updater = XMLViewUpdater(atg, db)
        hub = ChangefeedHub(updater)
        registry = SubscriptionRegistry(updater)
        assert hub.stats()["events_published"] == 0
        assert registry.stats()["events_processed"] == 0


# -- cross-surface exactness -------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
class TestExactness:
    def _loaded_service(self, backend, tmp_path):
        dataset = build_synthetic(SyntheticConfig(n_c=80, seed=5))
        service = open_view(
            dataset.atg,
            dataset.db,
            config=ViewConfig(
                index_backend=backend,
                strict=False,
                wal_dir=str(tmp_path / "wal"),
            ),
        )
        sub = service.subscribe("//cnode")
        consumer = service.changefeed()
        keys = sorted(
            service.store.node_sem[n][0]
            for n in service.xpath("//cnode").targets
        )
        outcomes = []
        outcomes.append(
            service.apply(
                InsertOp(
                    f"//cnode[key={keys[0]}]/sub", "cnode", (9001, "w1")
                )
            )
        )
        outcomes.append(
            service.apply(DeleteOp(f"//cnode[key={keys[1]}]"))
        )
        outcomes.append(
            service.apply(
                ReplaceOp(f"//cnode[key={keys[2]}]", "cnode", (9002, "w2"))
            )
        )
        # One rejected op: path selects nothing.
        outcomes.append(service.apply(DeleteOp("//cnode[key=123456]")))
        service.xpath("//cnode")
        service.xpath("//cnode/sub")
        return service, sub, consumer, outcomes

    def test_commits_match_pipeline_stats(self, backend, tmp_path):
        service, _, _, outcomes = self._loaded_service(backend, tmp_path)
        m = service.metrics()
        pipeline = service.stats()["pipeline"]
        assert m["counters"]["repro_commits_total"] == pipeline["commits"]
        assert (
            m["counters"]["repro_commit_records_sealed_total"]
            == pipeline["records_sealed"]
        )

    def test_ops_counter_matches_outcomes(self, backend, tmp_path):
        service, _, _, outcomes = self._loaded_service(backend, tmp_path)
        m = service.metrics()["counters"]
        for kind in ("insert", "delete", "replace"):
            for accepted in ("true", "false"):
                series = f'repro_ops_total{{accepted="{accepted}",kind="{kind}"}}'
                expected = sum(
                    1
                    for o in outcomes
                    if o.kind == kind
                    and o.accepted == (accepted == "true")
                )
                assert m.get(series, 0.0) == expected, series

    def test_phase_histogram_counts(self, backend, tmp_path):
        service, _, _, _ = self._loaded_service(backend, tmp_path)
        m = service.metrics()["histograms"]
        pipeline = service.stats()["pipeline"]
        mutate = m['repro_commit_phase_seconds{phase="mutate"}']
        assert mutate["count"] == pipeline["commits"]
        maintain = m['repro_commit_phase_seconds{phase="maintain"}']
        assert maintain["count"] == pipeline["records_sealed"]
        # The histogram sums accumulate the identical float sequence the
        # pipeline's own phase_seconds totals do — exact equality.
        assert mutate["sum"] == pipeline["phase_seconds"]["mutate"]
        assert maintain["sum"] == pipeline["phase_seconds"]["maintain"]

    def test_lock_histograms_match_pipeline_totals(self, backend, tmp_path):
        service, _, _, _ = self._loaded_service(backend, tmp_path)
        m = service.metrics()["histograms"]
        pipeline = service.stats()["pipeline"]
        assert m["repro_lock_wait_seconds"]["sum"] == pipeline[
            "lock_wait_seconds"
        ]
        assert m["repro_lock_hold_seconds"]["sum"] == pipeline[
            "lock_hold_seconds"
        ]
        assert m["repro_lock_hold_seconds"]["count"] == pipeline["commits"]

    def test_event_counters_match_hub_and_registry(self, backend, tmp_path):
        service, _, consumer, _ = self._loaded_service(backend, tmp_path)
        m = service.metrics()["counters"]
        stats = service.stats()
        assert (
            m["repro_events_published_total"]
            == stats["changefeed"]["events_published"]
        )
        assert (
            m["repro_subscription_events_total"]
            == stats["subscriptions"]["events_processed"]
        )
        assert consumer.delivered == stats["changefeed"]["events_published"]

    def test_wal_counters_match_stats(self, backend, tmp_path):
        service, _, _, _ = self._loaded_service(backend, tmp_path)
        m = service.metrics()["counters"]
        wal = service.stats()["wal"]
        assert m["repro_wal_records_total"] == wal["records_appended"]
        assert m["repro_wal_fsyncs_total"] == wal["fsyncs"]
        assert m["repro_wal_checkpoints_total"] == wal["checkpoints_written"]
        assert m["repro_wal_rotations_total"] == wal["rotations"]
        assert m["repro_wal_bytes_total"] > 0

    def test_xpath_histogram_counts_reads(self, backend, tmp_path):
        service, _, _, _ = self._loaded_service(backend, tmp_path)
        before = service.metrics()["histograms"]["repro_xpath_seconds"][
            "count"
        ]
        service.xpath("//cnode")
        after = service.metrics()["histograms"]["repro_xpath_seconds"][
            "count"
        ]
        assert after == before + 1
        assert math.isfinite(
            service.metrics()["histograms"]["repro_xpath_seconds"]["sum"]
        )

    def test_exposition_valid_under_load(self, backend, tmp_path):
        service, _, _, _ = self._loaded_service(backend, tmp_path)
        assert validate_exposition(service.metrics_text()) == []
