"""The bounded, generation-indexed replay buffer behind the changefeed.

One :class:`ReplayBuffer` per :class:`~repro.changefeed.hub.ChangefeedHub`
retains the last ``capacity`` published events so that a consumer can
resume from any retained generation (``service.changefeed(since=g)``)
and receive exactly the events it missed.  The buffer tracks a
:attr:`ReplayBuffer.floor` — the oldest resumable generation: every
event after it is retained — and refuses (with a typed
:class:`~repro.errors.ReplayGapError`) any resume point below it:
silently skipping evicted events would corrupt every replica folding
the stream.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ReplayGapError
from repro.views.events import ViewEvent


class ReplayBuffer:
    """Bounded FIFO of published events, indexed by generation.

    Generations are strictly increasing but need not be dense: a batch
    publishes one coalesced event carrying its last op's generation, and
    a failed commit bumps the version without publishing.  Replay
    semantics therefore use generation *ordering*, never arithmetic:
    ``since(g)`` returns every retained event with generation > ``g``.
    """

    def __init__(self, capacity: int, floor: int = 0):
        if capacity < 1:
            raise ValueError(f"replay capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: deque[ViewEvent] = deque()
        self._floor = floor

    @property
    def floor(self) -> int:
        """The oldest generation a consumer may still resume from.

        ``since(g)`` is complete iff ``g >= floor``: every event with a
        generation above the floor is retained.  Starts at the hub's
        attach generation and rises as events are evicted.
        """
        return self._floor

    @property
    def latest(self) -> int:
        """Generation of the newest retained event (``floor`` if empty)."""
        return self._events[-1].generation if self._events else self._floor

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(tuple(self._events))

    def append(self, event: ViewEvent) -> None:
        """Retain ``event``, evicting (and raising the floor past) the
        oldest event when the buffer is full."""
        if len(self._events) >= self.capacity:
            evicted = self._events.popleft()
            self._floor = max(self._floor, evicted.generation)
        self._events.append(event)

    def since(self, generation: int) -> list[ViewEvent]:
        """Every retained event after ``generation``, oldest first.

        Raises :class:`~repro.errors.ReplayGapError` when events in
        ``(generation, floor]`` have been evicted — the returned list
        would be silently incomplete.
        """
        if generation < self._floor:
            raise ReplayGapError(since=generation, floor=self._floor)
        return [e for e in self._events if e.generation > generation]

    def generations(self) -> list[int]:
        """The retained generations, oldest first (diagnostics/tests)."""
        return [e.generation for e in self._events]
