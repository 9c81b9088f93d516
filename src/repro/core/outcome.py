"""What an update reports: the outcome record, its phase timer, the
side-effect policy and the plan lifecycle states.

Pure values — nothing here touches ``V``, ``L``, ``M`` or the base
database.  :class:`UpdateOutcome` is what every write returns (and what
the paper's evaluation section plots: one wall time per phase);
:meth:`UpdateOutcome.timed` is the one way a phase gets onto it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from time import perf_counter

from repro.relational.database import RelationalDelta
from repro.views.store import ViewDelta


class PhaseTimer:
    """Adds a ``with`` body's wall time to ``timings[phase]``: the one phase
    timer, behind ``UpdateOutcome.timed`` and ``CommitRecord.phase``."""

    __slots__ = ("timings", "phase", "start")

    def __init__(self, timings: dict[str, float], phase: str):
        self.timings, self.phase = timings, phase

    def __enter__(self) -> None:
        self.start = perf_counter()

    def __exit__(self, *exc) -> None:
        timings, phase = self.timings, self.phase
        timings[phase] = timings.get(phase, 0.0) + perf_counter() - self.start


class SideEffectPolicy(enum.Enum):
    """What to do when an update has XML side effects (Section 2.1)."""

    ABORT = "abort"
    PROPAGATE = "propagate"


@dataclass
class UpdateOutcome:
    """Everything a caller (or benchmark) wants to know about one update."""

    kind: str
    accepted: bool
    reason: str | None = None
    side_effects: set[int] = field(default_factory=set)
    targets: list[int] = field(default_factory=list)
    delta_v: ViewDelta | None = None
    delta_r: RelationalDelta | None = None
    timings: dict[str, float] = field(default_factory=dict)
    stats: dict[str, float] = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        return sum(self.timings.values())

    @property
    def foreground_time(self) -> float:
        """Everything except the background maintenance phase."""
        return sum(t for k, t in self.timings.items() if k != "maintain")

    def timed(self, phase: str) -> PhaseTimer:
        """Add the wall time of the ``with`` body to ``timings[phase]``."""
        return PhaseTimer(self.timings, phase)

    def to_dict(self, include_deltas: bool = False) -> dict:
        """A JSON-safe summary (wire format, bench records, CLI output).

        ``include_deltas=True`` additionally embeds the full ΔV/ΔR op
        lists; by default only their insert/delete counts are included.
        """

        def delta_summary(delta, encode) -> dict | None:
            if delta is None:
                return None
            ops = list(delta)
            summary: dict = {
                "insertions": sum(1 for op in ops if op.kind == "insert"),
                "deletions": sum(1 for op in ops if op.kind == "delete"),
            }
            if include_deltas:
                summary["ops"] = [encode(op) for op in ops]
            return summary

        return {
            "kind": self.kind,
            "accepted": self.accepted,
            "reason": self.reason,
            "targets": [int(t) for t in self.targets],
            "side_effects": sorted(int(n) for n in self.side_effects),
            "timings": {k: float(v) for k, v in self.timings.items()},
            "total_time": float(self.total_time),
            "foreground_time": float(self.foreground_time),
            "stats": {k: v for k, v in self.stats.items()},
            "delta_v": delta_summary(
                self.delta_v,
                lambda op: [
                    op.kind, op.parent_type, op.child_type, op.parent, op.child
                ],
            ),
            "delta_r": delta_summary(
                self.delta_r,
                lambda op: [op.kind, op.relation, list(op.row)],
            ),
        }


class PlanState(enum.Enum):
    """Lifecycle of an :class:`UpdatePlan`."""

    PLANNED = "planned"
    REJECTED = "rejected"
    COMMITTED = "committed"
    ABORTED = "aborted"
    FAILED = "failed"
    """Commit raised mid-apply; the plan is dead and cannot be aborted
    (ΔR/ΔV may be partially applied — the exception carries the cause)."""
