"""Bitmask helpers of the bitset index and the ``MaskView`` type.

Bit ``k`` of a row means "node ``k`` is in the row".  The helpers that
translate between bits and Python-level node sets live here, apart from
the index class, because :meth:`ReachabilityIndex.desc_mask_of_set`
returns a :class:`MaskView` on every implementation (the set-based
reference builds one from its set form).
"""

from __future__ import annotations

from typing import Iterable, Iterator


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


class MaskView:
    """Read-only set-like membership view over a bitmask row."""

    __slots__ = ("_mask",)

    def __init__(self, mask: int):
        self._mask = mask

    def __contains__(self, node: int) -> bool:
        return bool(self._mask >> node & 1)

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self._mask)

    def __len__(self) -> int:
        return self._mask.bit_count()

    def with_nodes(self, nodes: Iterable[int]) -> "MaskView":
        """A new view that also contains every node in ``nodes``.

        The evaluator's region = ``start ∪ desc(start)`` union in one
        big-int OR, without touching the (immutable) receiver.
        """
        return MaskView(self._mask | mask_of(nodes))
