"""Ranked locks: the manager's lock order, checked on every acquisition.

Every :class:`RankedLock` declares a rank, and a thread may only take a
lock that ranks strictly above every lock it already holds.  Each
thread keeps the locks it holds on a stack; taking a lock whose rank is
not above the top of that stack raises :class:`LockOrderError` before
acquiring anything.  An inverted order therefore fails on the first
execution of the offending path, on one thread, instead of deadlocking
some day under two.  Equal ranks cannot nest either, so no path can
hold two locks of one class (two teams' locks, say) at once.

The check is always on: it costs a thread-local lookup, a comparison
and a list push/pop per acquisition.
"""

from __future__ import annotations

import threading

__all__ = ["LockOrderError", "RankedLock"]

_held = threading.local()


class LockOrderError(RuntimeError):
    """A thread took a lock that does not rank above the locks it holds."""


# A RankedLock is a lock: like threading.Lock it does not pickle, and
# lock-getstate flags the classes that hold one instead.
class RankedLock:  # scoutlint: disable=lock-getstate
    """A non-reentrant lock that must be taken in ascending rank order.

    Used only as a context manager, so locks are released in the
    reverse order they were taken and the held stack stays exact.
    """

    __slots__ = ("name", "rank", "_lock")

    def __init__(self, name: str, rank: int) -> None:
        self.name = name
        self.rank = rank
        self._lock = threading.Lock()

    def __enter__(self) -> RankedLock:
        held = getattr(_held, "stack", None)
        if held is None:
            held = _held.stack = []
        if held and held[-1].rank >= self.rank:
            top = held[-1]
            raise LockOrderError(
                f"cannot take {self.name} (rank {self.rank}) while "
                f"holding {top.name} (rank {top.rank}): locks are taken "
                "in ascending rank order"
            )
        self._lock.acquire()
        held.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _held.stack.pop()
        self._lock.release()
