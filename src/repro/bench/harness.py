"""Timing accumulation and table formatting for the benchmark harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.updater import UpdateOutcome


@dataclass
class PhaseAccumulator:
    """Aggregates per-phase timings over a workload of updates.

    Phases mirror the paper's breakdown: (a) XPath evaluation,
    (b) translation + execution, (c) auxiliary-structure maintenance.
    """

    xpath: float = 0.0
    translate: float = 0.0
    maintain: float = 0.0
    count: int = 0
    accepted: int = 0
    rejected: int = 0
    extra: dict[str, float] = field(default_factory=dict)

    def add(self, outcome: UpdateOutcome) -> None:
        # Hot path (once per benchmark op): read the fields directly
        # rather than materializing the full to_dict() wire payload.
        timings = outcome.timings
        self.xpath += timings.get("validate", 0.0) + timings.get("xpath", 0.0)
        self.translate += (
            timings.get("translate_v", 0.0)
            + timings.get("translate_r", 0.0)
            + timings.get("apply", 0.0)
        )
        self.maintain += timings.get("maintain", 0.0)
        self.count += 1
        if outcome.accepted:
            self.accepted += 1
        else:
            self.rejected += 1

    @property
    def total(self) -> float:
        return self.xpath + self.translate + self.maintain

    @property
    def foreground(self) -> float:
        return self.xpath + self.translate

    def as_row(self) -> dict[str, float]:
        return {
            "xpath_s": self.xpath,
            "translate_s": self.translate,
            "maintain_s": self.maintain,
            "total_s": self.total,
            "ops": self.count,
            "accepted": self.accepted,
        }


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Fixed-width text table (the harness's terminal report format)."""
    materialized = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in materialized:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) < 0.001:
            return f"{cell:.2e}"
        return f"{cell:.4f}"
    return str(cell)
