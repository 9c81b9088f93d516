"""One immutable configuration value for a view service.

:class:`ViewConfig` consolidates the knobs that were previously
scattered over the :class:`~repro.core.updater.XMLViewUpdater`
constructor (side-effect policy, strictness)
and the service's own (changefeed retention, the WAL) into a single
frozen, serializable dataclass — the shape a deployment config or a
service registry wants.  Nothing selects a SAT solver or seeds an RNG:
insertion translation runs DPLL, which is complete and deterministic.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from repro.changefeed.hub import DEFAULT_RETENTION
from repro.core.updater import SideEffectPolicy
from repro.errors import ReproError


@dataclass(frozen=True)
class ViewConfig:
    """How a :class:`~repro.service.facade.ViewService` behaves.

    Attributes
    ----------
    side_effects:
        ``'abort'`` (default) rejects updates with XML side effects;
        ``'propagate'`` applies them at every occurrence (the paper's
        revised semantics).
    strict:
        When True (default) rejections raise; when False they come back
        as unaccepted outcomes (the benchmark setting).
    changefeed_retention:
        How many published events the changefeed's replay buffer keeps
        (``service.changefeed(since=...)`` can resume from any retained
        generation; older resume points raise
        :class:`~repro.errors.ReplayGapError`).
    wal_dir:
        Directory of the durable changefeed log (:mod:`repro.wal`), or
        ``None`` (default) for a purely in-memory service.  When set,
        every committed event is appended to the log, periodic
        checkpoints are cut, and ``open_view`` against a non-empty
        directory *recovers* the exact last-durable state instead of
        building the view from the base tables.  See
        ``docs/durability.md``.
    wal_fsync:
        The log's fsync policy: ``'always'`` (fsync per commit),
        ``'batch'`` (default: fsync every
        :data:`~repro.wal.log.BATCH_FSYNC_INTERVAL` commits and at every
        rotation/checkpoint/close) or ``'os'`` (leave flushing to the
        OS page cache).
    wal_segment_bytes:
        Segment rotation threshold in bytes.
    wal_checkpoint_every:
        Committed events between periodic WAL checkpoints.
    wal_keep_checkpoints:
        Checkpoints retained before compaction advances the replay
        floor and deletes fully-covered segments.
    """

    side_effects: str = "abort"
    strict: bool = True
    changefeed_retention: int = DEFAULT_RETENTION
    wal_dir: str | None = None
    wal_fsync: str = "batch"
    wal_segment_bytes: int = 1 << 20
    wal_checkpoint_every: int = 256
    wal_keep_checkpoints: int = 2

    def __post_init__(self):
        if self.side_effects not in ("abort", "propagate"):
            raise ReproError(
                f"side_effects must be 'abort' or 'propagate', "
                f"got {self.side_effects!r}"
            )
        if self.changefeed_retention < 1:
            raise ReproError(
                f"changefeed_retention must be >= 1, "
                f"got {self.changefeed_retention!r}"
            )
        if self.wal_dir is not None and not isinstance(self.wal_dir, str):
            raise ReproError(
                f"wal_dir must be a string path or None, "
                f"got {self.wal_dir!r}"
            )
        if self.wal_fsync not in ("always", "batch", "os"):
            raise ReproError(
                f"wal_fsync must be 'always', 'batch' or 'os', "
                f"got {self.wal_fsync!r}"
            )
        if self.wal_segment_bytes < 1024:
            raise ReproError(
                f"wal_segment_bytes must be >= 1024, "
                f"got {self.wal_segment_bytes!r}"
            )
        if self.wal_checkpoint_every < 1:
            raise ReproError(
                f"wal_checkpoint_every must be >= 1, "
                f"got {self.wal_checkpoint_every!r}"
            )
        if self.wal_keep_checkpoints < 1:
            raise ReproError(
                f"wal_keep_checkpoints must be >= 1, "
                f"got {self.wal_keep_checkpoints!r}"
            )

    @property
    def policy(self) -> SideEffectPolicy:
        """The ``side_effects`` string as the updater's enum."""
        return (
            SideEffectPolicy.ABORT
            if self.side_effects == "abort"
            else SideEffectPolicy.PROPAGATE
        )

    # -- wire format --------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe form (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ViewConfig":
        """Decode :meth:`to_dict` output; unknown keys raise."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ReproError(f"unknown ViewConfig field(s): {unknown}")
        return cls(**payload)
