"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  The hierarchy mirrors the paper's
processing pipeline: schema/engine errors, parsing errors, validation
rejections, side-effect aborts, and untranslatable updates.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class SchemaError(ReproError):
    """A relational schema was malformed or used inconsistently."""


class KeyConstraintError(ReproError):
    """A primary-key constraint was violated by an insertion."""


class UnknownRelationError(ReproError):
    """A query or update referenced a relation not present in the database."""


class QueryError(ReproError):
    """An SPJ query was malformed (unknown alias/attribute, bad predicate)."""


class DTDError(ReproError):
    """A DTD was malformed or could not be parsed."""


class XPathSyntaxError(ReproError):
    """An XPath expression in the supported fragment failed to parse."""


class ATGError(ReproError):
    """An attribute translation grammar definition is inconsistent."""


class ValidationError(ReproError):
    """Static DTD validation rejected an update (paper, Section 2.4)."""


class SideEffectError(ReproError):
    """An update has XML side effects and the policy is to abort.

    The offending nodes are available on :attr:`affected`.
    """

    def __init__(self, message: str, affected: frozenset[int] = frozenset()):
        super().__init__(message)
        self.affected = affected


class UpdateRejectedError(ReproError):
    """The relational translation rejected the view update.

    Raised when Algorithm delete finds no side-effect-free source for some
    view tuple, or when Algorithm insert's encoding is unsatisfiable (or
    detects an unconditional side effect).
    """


class OpDecodeError(ReproError):
    """A wire-format update operation (dict / JSON) was malformed."""


class PlanError(ReproError):
    """The plan/commit protocol was violated.

    Raised when a second plan is opened while one is outstanding, or when
    ``commit()``/``abort()`` is called on a plan that is not in the
    required state.
    """


class StalePlanError(PlanError):
    """The view changed between ``plan()`` and ``commit()``.

    A plan captures ΔV/ΔR against one store snapshot; any intervening
    mutation (another update, a base-table propagation, a failed
    commit) invalidates it.  Re-plan against the current state.
    """


class ServiceClosedError(ReproError):
    """A write reached a ``ViewService`` after its ``close()`` (reads
    and ``snapshot()`` still work)."""


class CycleError(ReproError):
    """The published view graph contains a cycle (cannot unfold to a tree)."""


class ChangefeedError(ReproError):
    """The changefeed consumer protocol was violated.

    Raised for malformed ``since`` arguments (a generation ahead of the
    feed), pull calls on a callback-mode consumer, and reads from a
    closed consumer where an error (rather than an end-of-stream
    sentinel) is the contract.
    """


class ReplayGapError(ChangefeedError):
    """A changefeed resume point is older than the retained history.

    The replay buffer is bounded: once events are evicted, a consumer
    asking to resume from a generation before :attr:`floor` cannot be
    given a complete stream, and silently skipping events would corrupt
    any replica folding them.  Catch this and re-bootstrap from a fresh
    snapshot instead.

    The boundary is machine-readable: :attr:`oldest_available` (an alias
    of :attr:`floor`) is the oldest generation a fresh
    ``changefeed(since=...)`` can still resume from, so a replica's
    re-bootstrap path can request "a snapshot at generation >=
    oldest_available" without parsing the message.
    """

    def __init__(self, since: int, floor: int):
        super().__init__(
            f"cannot replay from generation {since}: events up to "
            f"generation {floor} have been evicted from the replay "
            f"buffer; re-bootstrap from a snapshot and resume from "
            f"generation {floor} or later"
        )
        self.since = since
        self.floor = floor
        self.oldest_available = floor
        """Oldest generation still resumable via replay — a snapshot at
        this generation or newer closes the gap."""


class EventDecodeError(ReproError):
    """A wire-format changefeed event (dict / JSON) was malformed."""


class WalError(ReproError):
    """Base class for the durable changefeed log (:mod:`repro.wal`)."""


class WalCorruptionError(WalError):
    """A WAL segment or manifest failed an integrity check.

    Raised for a CRC/framing failure *inside* a segment (a torn record
    at the very tail of the log is truncated silently instead — only a
    crash mid-append can produce one, and the record was never
    acknowledged), for a sealed segment the manifest references but the
    directory does not contain, and for an unreadable manifest.  The
    failure site is machine-readable: :attr:`segment` names the file
    and :attr:`offset` is the byte offset of the failed record
    (``None`` when the failure is not record-granular).  Recovery from
    interior corruption is manual by design — silently skipping a
    record would replay a stream with a hole in it.
    """

    def __init__(
        self,
        message: str,
        segment: str | None = None,
        offset: int | None = None,
    ):
        super().__init__(message)
        self.segment = segment
        """Name of the segment (or manifest) file that failed."""
        self.offset = offset
        """Byte offset of the failed record within :attr:`segment`
        (``None`` for file-level failures)."""


class WalCheckpointError(WalError):
    """A checkpoint the manifest references is missing or unreadable.

    Checkpoints are written atomically (tmp + fsync + rename) *before*
    the manifest starts referencing them, so a mismatch means the
    directory was tampered with or the files landed on storage that
    reorders renames across sync boundaries.  Replay cannot start
    without its base state; recovery is manual.
    """


class ReplicaError(ReproError):
    """Base class for the replication subsystem (:mod:`repro.replica`)."""


class SnapshotError(ReplicaError):
    """A snapshot artifact was malformed, unreadable, or inconsistent."""


class SnapshotSchemaError(SnapshotError):
    """A snapshot artifact speaks a different snapshot-schema version.

    Loading refuses rather than guessing; re-create the snapshot with the
    library version that will load it.  The versions involved ride on
    :attr:`found` and :attr:`expected`.
    """

    def __init__(self, found, expected: int):
        super().__init__(
            f"snapshot artifact has schema version {found!r}; this "
            f"library speaks snapshot schema version {expected}"
        )
        self.found = found
        self.expected = expected


class SnapshotMismatchError(SnapshotError):
    """A snapshot was produced against a different view definition.

    The artifact embeds a fingerprint of the ATG (DTD + signatures +
    rules) it was taken from; bootstrapping a replica whose own ATG
    fingerprint differs would fold events into the wrong schema.
    """


class ReplicaStaleError(ReplicaError):
    """The replica can no longer fold the feed and must re-bootstrap.

    Raised when a coarse event is folded (its edge list does not
    describe the change) or when bootstrapping kept trailing the
    writer's replay floor.  Recovery is always the same: fetch a fresh
    snapshot and re-attach (``ReplicaView.bootstrap()``).
    """


class ReplicaDivergedError(ReplicaError):
    """An event referenced state the replica does not have.

    Folding is strict: an insert for an unknown node id, or a delete for
    an edge that is not present, means the replica's mirror has drifted
    from the writer (a skipped event, a bug) — carrying on would corrupt
    reads silently.  Re-bootstrap from a fresh snapshot.
    """
