"""Bitmask helpers of the bitset index and the ``Region`` view.

Bit ``k`` of a row means "node ``k`` is in the row".  The helpers that
translate between bits and Python-level node sets live here, apart from
the index class, together with :class:`Region`: the one descendant view
``M`` offers, since it keeps ancestor rows only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.views.store import ViewStore


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending.

    Uses lowest-set-bit extraction (``mask & -mask``), which costs one
    big-int subtraction/AND per *set* bit instead of one shift per bit
    position.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(nodes: Iterable[int]) -> int:
    """Bitmask with bit ``n`` set for every node ``n`` in ``nodes``."""
    mask = 0
    for node in nodes:
        mask |= 1 << node
    return mask


class Region:
    """``S ∪ desc(S)`` as a membership view over ancestor rows.

    ``x`` is a member iff ``x ∈ S`` or ``anc(x)`` meets ``S``: one AND
    of the candidate's own row with ``mask(S)``, however large the
    region.  Listing the region is a walk of the store's edges.  The
    view reads the index and the store as they are when asked, so it
    is valid until the next write; a caller that keeps membership
    across writes takes ``set(region)``.
    """

    __slots__ = ("nodes", "_mask", "_rows", "_store")

    def __init__(
        self, nodes: list[int], rows: dict[int, int], store: "ViewStore"
    ):
        self.nodes = nodes
        self._mask = mask_of(nodes)
        self._rows = rows
        self._store = store

    def __contains__(self, node: int) -> bool:
        mask = self._mask
        return bool(mask >> node & 1 or self._rows.get(node, 0) & mask)

    def __bool__(self) -> bool:
        return bool(self.nodes)

    def __iter__(self) -> Iterator[int]:
        nodes = self.nodes
        return iter(set(nodes) | self._store.descendants_of(nodes))
