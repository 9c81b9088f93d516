"""Soak harness: generated workloads under concurrent read load.

Endurance-style runs (marked ``soak``) drive a durable service with
``repro-bench generate`` streams — the header's derived subscriptions
stand live, reader threads hammer the header's query set while the
writer applies the ops in the header's batch shape — then assert the
three invariants the paper's maintenance algorithm promises and the
observability surface claims to measure:

- **convergence** — every standing subscription equals a fresh XPath
  evaluation of its own path;
- **consistency** — ``check_consistency()`` against a full republish
  returns no problems;
- **metrics exactness** — the counters are not approximations: every
  total (on ``metrics()`` and on the ``stats()`` that reads the same
  registry) equals a fact the harness observed from outside — the write
  scopes it opened, the ``UpdateOutcome`` payloads, the events its
  consumers received, the operations seen at the WAL's file-system
  seam.

CI runs ``pytest -m soak`` as a timeout-wrapped smoke leg on both the
NumPy and no-NumPy jobs (see ``.github/workflows/ci.yml``); the full
suite includes these tests too, sized to stay cheap.
"""

import json
import os
import threading

import pytest

from faults import CrashPointFS
from repro.bench.workload_gen import WorkloadSpec, generate_records
from repro.metrics import validate_exposition
from repro.service import ViewConfig, open_view
from repro.workloads import named_workload

pytestmark = pytest.mark.soak


class SoakRun:
    """One finished soak run: the service plus everything to check."""

    def __init__(self, service, header, outcomes, subs, pulled, pushed,
                 scopes, wal_dir, fs):
        self.service = service
        self.header = header
        self.outcomes = outcomes
        self.subs = subs
        self.pulled = pulled
        self.pushed = pushed
        self.scopes = scopes
        """Write scopes the writer opened (one per ``apply`` call)."""
        self.wal_dir = wal_dir
        self.fs = fs
        """The counting wrapper at the WAL's file-system seam."""


def run_soak(tmp_path, spec: WorkloadSpec, readers: int = 2) -> SoakRun:
    """Generate ``spec``'s stream and drive a durable service with it.

    The writer applies ops grouped by the header's ``batch_size``
    (each batch is one ``service.apply([...])`` write scope) while
    ``readers`` threads evaluate the header's derived query set
    concurrently; a pull consumer and a callback consumer ride the
    changefeed throughout.  Reader exceptions propagate.
    """
    records = list(generate_records(spec))
    header, ops = records[0], records[1:]
    atg, db = named_workload(spec.workload)
    wal_dir = str(tmp_path / "wal")
    fs = CrashPointFS(wal_dir, count_fsync=True)  # counts, never crashes
    service = open_view(
        atg,
        db,
        # Small segments, so the run rotates the log a few times.
        config=ViewConfig(
            strict=False, wal_dir=wal_dir, wal_segment_bytes=16384
        ),
        wal_fs=fs,
    )
    subs = {
        path: service.subscribe(path) for path in header["subscriptions"]
    }
    pulled = service.changefeed()
    pushed = []
    callback = service.changefeed(on_event=pushed.append)

    stop = threading.Event()
    failures: list[BaseException] = []

    def read_loop(offset: int) -> None:
        queries = header["queries"] or ["//cnode"]
        index = offset
        try:
            while True:  # at least one pass even if the writer is faster
                service.xpath(queries[index % len(queries)])
                for sub in subs.values():
                    sub.result()
                index += 1
                if stop.is_set():
                    return
        except BaseException as exc:  # noqa: BLE001 - reraised below
            failures.append(exc)

    threads = [
        threading.Thread(target=read_loop, args=(i,), daemon=True)
        for i in range(readers)
    ]
    for thread in threads:
        thread.start()
    try:
        outcomes = []
        scopes = 0
        batch = max(1, spec.batch_size)
        for start in range(0, len(ops), batch):
            chunk = ops[start:start + batch]
            scopes += 1
            if len(chunk) == 1:
                outcomes.append(service.apply(chunk[0]))
            else:
                outcomes.extend(service.apply(chunk))
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
    assert not failures, failures
    assert not any(thread.is_alive() for thread in threads)
    callback.close()
    return SoakRun(
        service, header, outcomes, subs, pulled, pushed,
        scopes, wal_dir, fs,
    )


MIXED = WorkloadSpec(
    workload="synthetic:100",
    ops=120,
    seed=17,
    pattern="mixed",
    key_skew=0.8,
    read_ratio=0.5,
    batch_size=4,
    subscriptions=3,
)

CHURN = WorkloadSpec(
    workload="synthetic:80",
    ops=80,
    seed=23,
    pattern="churn",
    key_skew=1.2,
    read_ratio=0.25,
    batch_size=1,
    subscriptions=2,
)


@pytest.fixture(scope="module", params=["mixed", "churn"])
def soak(request, tmp_path_factory):
    spec = {"mixed": MIXED, "churn": CHURN}[request.param]
    run = run_soak(tmp_path_factory.mktemp(request.param), spec)
    yield run
    run.service.close()


class TestSoak:
    def test_generated_ops_accepted(self, soak):
        # The generator's shadow view guarantees a clean stream under
        # sequential application, and a batch applies its ops exactly
        # so (each op's repair runs at its commit): every batch size
        # accepts every op.
        assert len(soak.outcomes) == soak.header["params"]["ops"]
        rejected = [o.reason for o in soak.outcomes if not o.accepted]
        assert rejected == []

    def test_subscriptions_converged(self, soak):
        for path, sub in soak.subs.items():
            fresh = tuple(sorted(soak.service.xpath(path).targets))
            assert sub.result() == fresh, path

    def test_consistency(self, soak):
        assert soak.service.check_consistency() == []

    def test_ops_counter_is_exact(self, soak):
        counters = soak.service.metrics()["counters"]
        by_series: dict[str, int] = {}
        for outcome in soak.outcomes:
            accepted = "true" if outcome.accepted else "false"
            series = (
                f'repro_ops_total{{accepted="{accepted}",'
                f'kind="{outcome.kind}"}}'
            )
            by_series[series] = by_series.get(series, 0) + 1
        measured = {
            name: value
            for name, value in counters.items()
            if name.startswith("repro_ops_total{")
        }
        assert measured == by_series

    def test_pipeline_counters_are_exact(self, soak):
        m = soak.service.metrics()
        pipeline = soak.service.stats()["pipeline"]
        commits, sealed = soak.scopes, len(soak.pushed)
        assert 0 < sealed <= commits
        assert m["counters"]["repro_commits_total"] == commits
        assert pipeline["commits"] == commits
        assert m["counters"]["repro_commit_records_sealed_total"] == sealed
        assert pipeline["records_sealed"] == sealed
        phases = m["histograms"]
        for phase, count in (("mutate", commits), ("maintain", sealed)):
            series = phases[f'repro_commit_phase_seconds{{phase="{phase}"}}']
            assert series["count"] == count, phase
            assert series["sum"] == pipeline["phase_seconds"][phase] > 0.0

    def test_event_delivery_is_exact(self, soak):
        stats = soak.service.stats()["changefeed"]
        counters = soak.service.metrics()["counters"]
        # Both consumers attached before the first write and kept up:
        # no queue overflowed.
        events = len(soak.pushed)
        assert soak.pulled.delivered == events
        assert counters["repro_events_published_total"] == events
        assert stats["events_published"] == events
        assert [e.generation for e in soak.pushed] == sorted(
            e.generation for e in soak.pushed
        )
        assert counters["repro_consumer_overflows_total"] == 0.0
        assert stats["overflows"] == 0

    def test_wal_counters_are_exact(self, soak):
        wal = soak.service.stats()["wal"]
        counters = soak.service.metrics()["counters"]
        seen = soak.fs.count  # operations at the WAL's fs seam

        def both(metric, key):
            assert counters[metric] == wal[key], key
            return wal[key]

        # One record per published event, one fs append per record.
        appends = both("repro_wal_records_total", "records_appended")
        assert appends == len(soak.pushed) == seen("append", "seg-")
        if wal["floor"] == 0:  # nothing compacted away yet
            assert appends == len(soak.service.wal.records_since(0))
        assert both("repro_wal_fsyncs_total", "fsyncs") == seen("fsync", "seg-")
        assert both(
            "repro_wal_checkpoints_total", "checkpoints_written"
        ) == seen("rename", "tmp-ckpt-")
        # Rotation names the next segment in sequence; the manifest on
        # disk and the directory listing say how far that got.
        with open(os.path.join(soak.wal_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        rotations = both("repro_wal_rotations_total", "rotations")
        assert rotations == int(manifest["active"][4:12]) - 1 > 0
        on_disk = {
            f for f in os.listdir(soak.wal_dir) if f.startswith("seg-")
        }
        sealed = {entry["name"] for entry in manifest["sealed"]}
        assert sealed <= on_disk <= sealed | {manifest["active"]}
        assert wal["segments"] == len(sealed) + 1

    def test_reader_traffic_reached_the_histogram(self, soak):
        histograms = soak.service.metrics()["histograms"]
        # Each reader thread completes at least one query pass; every
        # read lands in the latency histogram.
        assert histograms["repro_xpath_seconds"]["count"] >= 2

    def test_exposition_valid_after_soak(self, soak):
        assert validate_exposition(soak.service.metrics_text()) == []


class TestSoakDurability:
    def test_recovery_after_soak_matches(self, tmp_path):
        spec = WorkloadSpec(
            workload="synthetic:60",
            ops=40,
            seed=31,
            pattern="replace_storm",
            key_skew=0.5,
            subscriptions=1,
        )
        run = run_soak(tmp_path, spec, readers=1)
        stats = run.service.stats()
        run.service.close()
        atg, db = named_workload(spec.workload)
        recovered = open_view(
            atg,
            db,
            config=ViewConfig(strict=False, wal_dir=str(tmp_path / "wal")),
        )
        try:
            again = recovered.stats()
            assert again["generation"] == stats["generation"]
            assert again["nodes"] == stats["nodes"]
            assert again["edges"] == stats["edges"]
            assert recovered.check_consistency() == []
        finally:
            recovered.close()
