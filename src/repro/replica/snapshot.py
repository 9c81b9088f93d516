"""Kept for ``benchmarks/e2e/trace.py``, which patches ``Snapshot.capture`` here."""

from repro.views.snapshot import SNAPSHOT_SCHEMA_VERSION, Snapshot, atg_fingerprint  # noqa: F401
