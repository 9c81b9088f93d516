"""Terms and predicates for SPJ selection conditions.

The grammar mirrors what the paper's SPJ views need (Section 4):
conjunctions of (in)equalities between columns, constants and query
parameters, plus Boolean combinators used by XPath filters once they are
pushed into relational form.

Terms
-----
- :class:`Col` — an ``alias.attribute`` reference into one of the query's
  table occurrences.
- :class:`Const` — a literal value.
- :class:`Param` — a named query parameter, bound at evaluation time (ATG
  rules are parameterized by the parent's semantic attribute, e.g.
  ``Q_prereq_course($prereq)``).

Predicates
----------
:class:`Eq`, :class:`Ne`, :class:`Lt`, :class:`Le`, :class:`Gt`,
:class:`Ge` over two terms; :class:`And`, :class:`Or`, :class:`Not`;
:data:`TRUE` for the empty condition.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.errors import QueryError

# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Col:
    """Reference to a column of a table occurrence: ``alias.attr``."""

    alias: str
    attr: str

    def __str__(self) -> str:
        return f"{self.alias}.{self.attr}"


@dataclass(frozen=True)
class Const:
    """A literal value."""

    value: object

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Param:
    """A named parameter, bound via ``bindings`` at evaluation time."""

    name: str

    def __str__(self) -> str:
        return f":{self.name}"


Term = Col | Const | Param


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------


class Predicate:
    """Base class of all selection predicates."""

    def columns(self) -> Iterator[Col]:
        """Yield every column reference appearing in the predicate."""
        raise NotImplementedError

    def conjuncts(self) -> Iterator["Predicate"]:
        """Flatten top-level conjunction into atomic conjuncts."""
        yield self


@dataclass(frozen=True)
class _Comparison(Predicate):
    left: Term
    right: Term

    op: Callable[[object, object], bool] = operator.eq
    symbol: str = "?"

    def columns(self) -> Iterator[Col]:
        for term in (self.left, self.right):
            if isinstance(term, Col):
                yield term

    def evaluate(self, left_value: object, right_value: object) -> bool:
        return self.op(left_value, right_value)

    def __str__(self) -> str:
        return f"{self.left} {self.symbol} {self.right}"


@dataclass(frozen=True)
class Eq(_Comparison):
    op: Callable[[object, object], bool] = operator.eq
    symbol: str = "="


@dataclass(frozen=True)
class Ne(_Comparison):
    op: Callable[[object, object], bool] = operator.ne
    symbol: str = "<>"


@dataclass(frozen=True)
class Lt(_Comparison):
    op: Callable[[object, object], bool] = operator.lt
    symbol: str = "<"


@dataclass(frozen=True)
class Le(_Comparison):
    op: Callable[[object, object], bool] = operator.le
    symbol: str = "<="


@dataclass(frozen=True)
class Gt(_Comparison):
    op: Callable[[object, object], bool] = operator.gt
    symbol: str = ">"


@dataclass(frozen=True)
class Ge(_Comparison):
    op: Callable[[object, object], bool] = operator.ge
    symbol: str = ">="


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction of predicates.  ``And()`` is the true predicate."""

    parts: tuple[Predicate, ...]

    def __init__(self, *parts: Predicate):
        object.__setattr__(self, "parts", tuple(parts))

    def columns(self) -> Iterator[Col]:
        for part in self.parts:
            yield from part.columns()

    def conjuncts(self) -> Iterator[Predicate]:
        for part in self.parts:
            yield from part.conjuncts()

    def __str__(self) -> str:
        if not self.parts:
            return "TRUE"
        return " AND ".join(f"({part})" for part in self.parts)


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction of predicates."""

    parts: tuple[Predicate, ...]

    def __init__(self, *parts: Predicate):
        if not parts:
            raise QueryError("Or() requires at least one part")
        object.__setattr__(self, "parts", tuple(parts))

    def columns(self) -> Iterator[Col]:
        for part in self.parts:
            yield from part.columns()

    def __str__(self) -> str:
        return " OR ".join(f"({part})" for part in self.parts)


@dataclass(frozen=True)
class Not(Predicate):
    """Negation of a predicate."""

    part: Predicate

    def columns(self) -> Iterator[Col]:
        yield from self.part.columns()

    def __str__(self) -> str:
        return f"NOT ({self.part})"


TRUE: Predicate = And()
"""The always-true predicate (an empty conjunction)."""
