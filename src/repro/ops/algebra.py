"""The typed update-operation algebra (the paper's ΔX, reified).

The paper's pipeline (Fig. 3) is explicitly two-phase: an XML update is
first *translated* into ΔV/ΔR, then *applied* and maintained.  The first
phase needs a value it can operate on — something that can be previewed,
queued, serialized onto a wire, logged, or rejected before any state is
touched.  This module provides that value: four frozen dataclasses, one
per update kind the system understands:

==================  =====================================================
op                  meaning
==================  =====================================================
:class:`InsertOp`   ``insert (element, sem) into path`` (Section 2.1)
:class:`DeleteOp`   ``delete path`` (Section 2.1)
:class:`ReplaceOp`  ``delete path`` + re-attach ``ST(element, sem)`` at
                    the vacated parents (composite of the two primitives)
:class:`BaseUpdateOp`  a base-table group update ΔR propagated *into*
                    the view (the reverse pipeline, paper reference [8])
==================  =====================================================

Every op is immutable, hashable, equality-comparable, and round-trips
through ``to_dict()``/``from_dict()`` and ``to_json()``/``from_json()``
(``from_dict(op.to_dict()) == op`` — property-tested).  The wire format
uses an ``"op"`` discriminator key and JSON-native payloads only;
``sem`` tuples and base rows are encoded as lists and restored as
tuples on decode.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, ClassVar, Iterable, Iterator

from repro.errors import OpDecodeError
from repro.relational.database import RelationalDelta

#: JSON-native scalar types allowed inside ``sem`` tuples and base rows.
_SCALARS = (str, int, float, bool, type(None))


def _decode_tuple(value: Any, what: str) -> tuple:
    """Decode a JSON array of scalars into a tuple, validating types."""
    if not isinstance(value, (list, tuple)):
        raise OpDecodeError(f"{what} must be an array, got {value!r}")
    for item in value:
        if not isinstance(item, _SCALARS):
            raise OpDecodeError(
                f"{what} may only hold JSON scalars, got {item!r}"
            )
    return tuple(value)


def _require(payload: dict, key: str, types: type | tuple, what: str) -> Any:
    try:
        value = payload[key]
    except KeyError:
        raise OpDecodeError(f"{what} is missing the {key!r} field") from None
    if not isinstance(value, types):
        raise OpDecodeError(
            f"{what} field {key!r} must be {types}, got {value!r}"
        )
    return value


@dataclass(frozen=True)
class UpdateOperation:
    """Abstract base of the update algebra (do not instantiate)."""

    #: Wire discriminator; each concrete op overrides it.
    kind: ClassVar[str] = ""

    # -- wire format --------------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-native dict; ``from_dict`` inverts it exactly."""
        payload: dict[str, Any] = {"op": self.kind}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = _tuple_to_jsonable(value)
            payload[f.name] = value
        return payload

    def to_json(self) -> str:
        """One compact JSON object (inverse of :func:`op_from_json`)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def _decode(cls, payload: dict) -> "UpdateOperation":
        raise NotImplementedError  # pragma: no cover - abstract


def _tuple_to_jsonable(value: tuple) -> list:
    return [
        _tuple_to_jsonable(item) if isinstance(item, tuple) else item
        for item in value
    ]


@dataclass(frozen=True)
class InsertOp(UpdateOperation):
    """``insert (element, sem) into path`` — paper Section 2.1."""

    path: str
    element: str
    sem: tuple = field(default=())

    kind: ClassVar[str] = "insert"

    def __post_init__(self):
        object.__setattr__(self, "sem", tuple(self.sem))

    @classmethod
    def _decode(cls, payload: dict) -> "InsertOp":
        return cls(
            path=_require(payload, "path", str, "insert op"),
            element=_require(payload, "element", str, "insert op"),
            sem=_decode_tuple(payload.get("sem", ()), "insert op sem"),
        )


@dataclass(frozen=True)
class DeleteOp(UpdateOperation):
    """``delete path`` — paper Section 2.1."""

    path: str

    kind: ClassVar[str] = "delete"

    @classmethod
    def _decode(cls, payload: dict) -> "DeleteOp":
        return cls(path=_require(payload, "path", str, "delete op"))


@dataclass(frozen=True)
class ReplaceOp(UpdateOperation):
    """``replace path with (element, sem)``.

    Composite semantics: the nodes selected by ``path`` are deleted (as
    :class:`DeleteOp`) and ``ST(element, sem)`` is attached at the same
    parents the deleted nodes hung off — one foreground pass, one ΔV/ΔR,
    one background Δ(M,L) repair (the delete pass, then the insert's
    ``ΔM``, as every repair runs them).
    """

    path: str
    element: str
    sem: tuple = field(default=())

    kind: ClassVar[str] = "replace"

    def __post_init__(self):
        object.__setattr__(self, "sem", tuple(self.sem))

    @classmethod
    def _decode(cls, payload: dict) -> "ReplaceOp":
        return cls(
            path=_require(payload, "path", str, "replace op"),
            element=_require(payload, "element", str, "replace op"),
            sem=_decode_tuple(payload.get("sem", ()), "replace op sem"),
        )


@dataclass(frozen=True)
class BaseUpdateOp(UpdateOperation):
    """A base-table group update ΔR, propagated into the view.

    ``ops`` is a tuple of ``(kind, relation, row)`` triples with
    ``kind in {'insert', 'delete'}`` — the wire form of
    :class:`~repro.relational.database.RelationalDelta`.  Use
    :meth:`from_delta` / :meth:`to_delta` to convert.
    """

    ops: tuple = field(default=())

    kind: ClassVar[str] = "base_update"

    def __post_init__(self):
        normalized = []
        for op in self.ops:
            if not isinstance(op, (list, tuple)) or len(op) != 3:
                raise OpDecodeError(
                    f"base-update op must be (kind, relation, row), got {op!r}"
                )
            op_kind, relation, row = op
            if op_kind not in ("insert", "delete"):
                raise OpDecodeError(
                    f"base-update op kind must be insert|delete, got {op_kind!r}"
                )
            if not isinstance(relation, str):
                raise OpDecodeError(
                    f"base-update relation must be a string, got {relation!r}"
                )
            normalized.append(
                (op_kind, relation, _decode_tuple(row, "base-update row"))
            )
        object.__setattr__(self, "ops", tuple(normalized))

    @classmethod
    def from_delta(cls, delta: RelationalDelta) -> "BaseUpdateOp":
        """Wrap an existing group update ΔR as a typed operation."""
        return cls(
            ops=tuple((op.kind, op.relation, op.row) for op in delta)
        )

    def to_delta(self) -> RelationalDelta:
        """The ΔR this operation denotes (inverse of :meth:`from_delta`)."""
        delta = RelationalDelta()
        for op_kind, relation, row in self.ops:
            if op_kind == "insert":
                delta.insert(relation, row)
            else:
                delta.delete(relation, row)
        return delta

    @classmethod
    def _decode(cls, payload: dict) -> "BaseUpdateOp":
        ops = _require(payload, "ops", list, "base-update op")
        return cls(ops=tuple(ops))


#: Concrete op types by wire discriminator.
OP_TYPES: dict[str, type[UpdateOperation]] = {
    InsertOp.kind: InsertOp,
    DeleteOp.kind: DeleteOp,
    ReplaceOp.kind: ReplaceOp,
    BaseUpdateOp.kind: BaseUpdateOp,
}


def op_from_dict(payload: dict) -> UpdateOperation:
    """Decode one operation from its wire dict (``{"op": kind, ...}``)."""
    if not isinstance(payload, dict):
        raise OpDecodeError(f"operation must be an object, got {payload!r}")
    kind = payload.get("op")
    if not isinstance(kind, str):
        raise OpDecodeError(
            f"operation discriminator 'op' must be a string, got {kind!r}"
        )
    op_type = OP_TYPES.get(kind)
    if op_type is None:
        known = ", ".join(sorted(OP_TYPES))
        raise OpDecodeError(
            f"unknown operation kind {kind!r} (known: {known})"
        )
    return op_type._decode(payload)


def op_from_json(text: str) -> UpdateOperation:
    """Decode one operation from a JSON document."""
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise OpDecodeError(f"operation is not valid JSON: {exc}") from None
    return op_from_dict(payload)


def ops_from_jsonl(
    lines: Iterable[str],
    on_error=None,
) -> Iterator[UpdateOperation]:
    """Decode a JSON-lines stream; blank lines and ``#`` comments skip.

    Without ``on_error`` a malformed line raises :class:`OpDecodeError`
    prefixed with ``line N``.  With it, ``on_error(lineno, exc)`` is
    called instead and decoding *continues* when it returns true and
    *stops* (cleanly) when it returns false — the CLI's
    ``--keep-going`` / ``--stop-on-error`` semantics.
    """
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            op = op_from_json(stripped)
        except OpDecodeError as exc:
            if on_error is None:
                raise OpDecodeError(f"line {lineno}: {exc}") from None
            if on_error(lineno, exc):
                continue
            return
        yield op
