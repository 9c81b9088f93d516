"""A write-preferring readers–writer lock for the view service.

Readers (``service.xpath()``, ``service.xml_tree()``) share the view;
writers (``apply``, ``plan``/``commit``, batches) get exclusive
access — including during the "background" Δ(M,L) maintenance phase, so
a reader can never observe a store whose ``M``/``L`` repair is mid-step.
Write preference keeps a steady stream of readers from starving
updates.

The write side is **reentrant for the owning thread**, and the owner
may also take the read side freely: ``with service.batch(): ...`` holds
the write lock for the whole block, and service calls made inside the
block (``apply``, ``xpath``, a held plan's ``commit()``) nest instead
of deadlocking.

The converse — a reader upgrading to the write side — cannot be
granted (the writer must wait for all readers, including the upgrading
one, to drain) and used to hang forever; ``acquire_write`` now tracks
read-side ownership and raises :class:`RuntimeError` on the attempt.
"""

from __future__ import annotations

import threading


class RWLock:
    """Many readers or one writer; writers are preferred.

    Reentrant on both sides (per owning thread): the write owner may
    write and read freely, and a reader may nest further reads — a
    nested read must not queue behind a waiting writer, which cannot
    proceed until the reader drains.  A reader attempting to *write*
    gets :class:`RuntimeError` (see :meth:`acquire_write`).
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._reader_threads: dict[int, int] = {}
        """Read-side owners (thread ident → hold depth): upgrade
        attempts must fail fast instead of deadlocking."""
        self._writer_thread: threading.Thread | None = None
        self._writer_depth = 0
        self._writers_waiting = 0
        self._shared, self._exclusive = _Held(self, True), _Held(self, False)

    def held_by_current_writer(self) -> bool:
        """Whether the calling thread owns the write side right now."""
        return self._writer_thread is threading.current_thread()

    # -- raw protocol -----------------------------------------------------------

    def acquire_read(self) -> None:
        """Take the shared side; blocks behind active/waiting writers
        (reentrant reads skip the queue — see the class docstring)."""
        ident = threading.get_ident()
        with self._cond:
            if self._reader_threads.get(ident):
                # Reentrant read: the thread already shares the lock, so
                # it must not queue behind a waiting writer — the writer
                # cannot proceed until this thread drains, and blocking
                # here would deadlock both.
                self._readers += 1
                self._reader_threads[ident] += 1
                return
            while self._writer_thread is not None or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
            self._reader_threads[ident] = 1

    def release_read(self) -> None:
        """Release one shared hold; wakes writers when readers drain."""
        ident = threading.get_ident()
        with self._cond:
            self._readers -= 1
            depth = self._reader_threads.get(ident, 0) - 1
            if depth > 0:
                self._reader_threads[ident] = depth
            else:
                self._reader_threads.pop(ident, None)
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        """Take the exclusive side (reentrant per owning thread).

        Raises :class:`RuntimeError` when the caller holds the read
        side: granting the upgrade would deadlock (the writer waits for
        all readers — including the upgrading one — to drain).
        """
        me = threading.current_thread()
        with self._cond:
            if self._writer_thread is me:
                self._writer_depth += 1
                return
            if threading.get_ident() in self._reader_threads:
                # A reader waiting for readers (itself included) to
                # drain can never proceed: fail fast instead of hanging
                # forever.
                raise RuntimeError(
                    "read→write upgrade would deadlock: this thread "
                    "holds the read side of the RWLock (e.g. calling "
                    "apply()/plan() from inside a read such as xpath() "
                    "or a subscription callback); release the read lock "
                    "before writing"
                )
            self._writers_waiting += 1
            try:
                while self._writer_thread is not None or self._readers:
                    self._cond.wait()
                self._writer_thread = me
                self._writer_depth = 1
            finally:
                self._writers_waiting -= 1

    def release_write(self) -> None:
        """Release one exclusive hold; wakes everyone at depth zero."""
        with self._cond:
            self._writer_depth -= 1
            if self._writer_depth == 0:
                self._writer_thread = None
                self._cond.notify_all()

    # -- context managers --------------------------------------------------------

    def read(self) -> "_Held":
        """``with lock.read():`` — shared access as a context manager."""
        return self._shared

    def write(self) -> "_Held":
        """``with lock.write():`` — exclusive access as a context manager."""
        return self._exclusive


class _Held:
    """What ``read()`` / ``write()`` return, one per side and stateless: a
    thread owns the write side at exit iff it did at entry."""

    __slots__ = ("lock", "shared")

    def __init__(self, lock: RWLock, shared: bool):
        self.lock, self.shared = lock, shared

    def __enter__(self) -> RWLock:
        lock = self.lock
        if not self.shared:
            lock.acquire_write()
        elif not lock.held_by_current_writer():
            lock.acquire_read()
        return lock

    def __exit__(self, *exc) -> None:
        lock = self.lock
        if not self.shared:
            lock.release_write()
        elif not lock.held_by_current_writer():
            lock.release_read()
