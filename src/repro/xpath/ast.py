"""Normalized AST for the paper's XPath fragment.

A path is a sequence of *steps* in the paper's normal form; filters are a
small Boolean algebra over relative paths, value comparisons and label
tests.  All nodes are frozen dataclasses, hence hashable — the DAG
evaluator memoizes truth values keyed by (filter-expression, node).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union


# ---------------------------------------------------------------------------
# Steps (η in the paper's normal form)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabelStep:
    """Child step selecting children with a given element type: ``A``."""

    label: str

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class WildcardStep:
    """Child step selecting all children: ``*``."""

    def __str__(self) -> str:
        return "*"


@dataclass(frozen=True)
class DescendantStep:
    """Descendant-or-self step: ``//``."""

    def __str__(self) -> str:
        return "//"


@dataclass(frozen=True)
class FilterStep:
    """Self step with a filter: ``ε[q]``."""

    filter: "Filter"

    def __str__(self) -> str:
        return f".[{self.filter}]"


Step = Union[LabelStep, WildcardStep, DescendantStep, FilterStep]


# ---------------------------------------------------------------------------
# Filters (q)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabelTest:
    """``label() = A``."""

    label: str

    def __str__(self) -> str:
        return f"label()={self.label}"


@dataclass(frozen=True)
class ExistsPath:
    """Existential path filter: ``q ::= p`` (some node is reachable via p)."""

    path: "XPath"

    def __str__(self) -> str:
        return str(self.path)


def quote_literal(value: str) -> str:
    """Quote a string constant so the parser round-trips it exactly.

    Prefers double quotes; a value containing ``"`` switches to single
    quotes, and a value containing both styles doubles the delimiter
    (standard XPath escaping).
    """
    if '"' not in value:
        return f'"{value}"'
    if "'" not in value:
        return f"'{value}'"
    return '"' + value.replace('"', '""') + '"'


@dataclass(frozen=True)
class ValueEq:
    """Value filter ``p = "s"``: some node reached via p has string value s.

    An empty path compares the context node's own value.
    """

    path: "XPath"
    value: str

    def __str__(self) -> str:
        prefix = str(self.path) if self.path.steps else "."
        return f"{prefix}={quote_literal(self.value)}"


@dataclass(frozen=True)
class FAnd:
    parts: tuple["Filter", ...]

    def __str__(self) -> str:
        return " and ".join(f"({p})" for p in self.parts)


@dataclass(frozen=True)
class FOr:
    parts: tuple["Filter", ...]

    def __str__(self) -> str:
        return " or ".join(f"({p})" for p in self.parts)


@dataclass(frozen=True)
class FNot:
    part: "Filter"

    def __str__(self) -> str:
        return f"not({self.part})"


Filter = Union[LabelTest, ExistsPath, ValueEq, FAnd, FOr, FNot]


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XPath:
    """A normalized path: a tuple of steps.

    A parsed path with constants also has its *shape* (its ``k``-th
    distinct constant replaced by ``"k"``) and ``params``, the constants:
    ``shape.bind(params) == self``; ``==`` and ``hash`` ignore both.
    """

    steps: tuple[Step, ...]
    shape: "XPath | None" = field(default=None, compare=False, repr=False)
    params: tuple[str, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        # Paths key the parse, schema and program caches: hash them once.
        object.__setattr__(self, "_hash", hash(self.steps))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # rebuilt, so the hash is taken afresh
        return XPath, (self.steps, self.shape, self.params)

    def bind(self, params: tuple[str, ...]) -> "XPath":
        """This shape with placeholder ``k`` compared to ``params[k]``."""
        if not params or FilterStep not in map(type, self.steps):
            return self  # no filter, no constant
        steps = tuple([
            FilterStep(_bind(step.filter, params))
            if type(step) is FilterStep else step
            for step in self.steps
        ])
        return XPath(steps, self, params)

    def __str__(self) -> str:
        parts: list[str] = []
        pending_sep = False
        for step in self.steps:
            if isinstance(step, DescendantStep):
                parts.append("//")
                pending_sep = False
                continue
            if isinstance(step, FilterStep):
                # Attach filters to the previous rendered step when possible.
                if parts and parts[-1] not in ("/", "//"):
                    parts[-1] = f"{parts[-1]}[{step.filter}]"
                else:
                    parts.append(f".[{step.filter}]")
                continue
            if pending_sep:
                parts.append("/")
            parts.append(str(step))
            pending_sep = True
        out = ""
        for part in parts:
            out += part
        return out

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def last_child_step_index(self) -> int | None:
        """Index of the final non-filter step, or ``None`` for pure filters."""
        for i in range(len(self.steps) - 1, -1, -1):
            if not isinstance(self.steps[i], FilterStep):
                return i
        return None

    def size(self) -> int:
        """|p|: total number of steps plus filter sub-expressions."""
        total = 0
        for step in self.steps:
            total += 1
            if isinstance(step, FilterStep):
                total += _filter_size(step.filter)
        return total


def _bind(filt: Filter, params: tuple[str, ...]) -> Filter:
    if isinstance(filt, ValueEq):
        return ValueEq(filt.path.bind(params), params[int(filt.value)])
    if isinstance(filt, ExistsPath):
        return ExistsPath(filt.path.bind(params))
    if isinstance(filt, (FAnd, FOr)):
        return type(filt)(tuple([_bind(part, params) for part in filt.parts]))
    if isinstance(filt, FNot):
        return FNot(_bind(filt.part, params))
    return filt  # a label test holds no constant


def _filter_size(filt: Filter) -> int:
    if isinstance(filt, (LabelTest,)):
        return 1
    if isinstance(filt, ExistsPath):
        return filt.path.size()
    if isinstance(filt, ValueEq):
        return 1 + filt.path.size()
    if isinstance(filt, (FAnd, FOr)):
        return 1 + sum(_filter_size(p) for p in filt.parts)
    if isinstance(filt, FNot):
        return 1 + _filter_size(filt.part)
    raise TypeError(f"unknown filter {filt!r}")


def normalize_steps(steps: list[Step]) -> tuple[Step, ...]:
    """Apply the paper's normal-form rewrites.

    - fuse consecutive filter steps: ``ε[q1]/ε[q2] → ε[q1 ∧ q2]``;
    - collapse consecutive ``//`` steps (``// // ≡ //``).
    """
    out: list[Step] = []
    for step in steps:
        if isinstance(step, DescendantStep) and out and isinstance(
            out[-1], DescendantStep
        ):
            continue
        if isinstance(step, FilterStep) and out and isinstance(out[-1], FilterStep):
            prev = out.pop()
            out.append(FilterStep(fand(prev.filter, step.filter)))
            continue
        out.append(step)
    return tuple(out)


def fand(*filters: Filter) -> Filter:
    """Conjunction smart-constructor (flattens, drops duplicates)."""
    parts: list[Filter] = []
    for filt in filters:
        if isinstance(filt, FAnd):
            parts.extend(filt.parts)
        else:
            parts.append(filt)
    if len(parts) == 1:
        return parts[0]
    return FAnd(tuple(parts))
