"""Owner-side synchronization services: lock wait queues and barriers.

The fast path of an LT_lock is a single RDMA fetch-and-add on the lock
word (§7.2); only contended acquisitions reach this service, where the
lock's owner node keeps a FIFO wait queue so a release wakes exactly one
waiter (minimizing network traffic versus spin-retry designs).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List

from ..sim import Event

__all__ = ["SyncService"]


class _LockState:
    __slots__ = ("queue", "credits")

    def __init__(self):
        self.queue: Deque[Event] = deque()
        # Releases that arrived before their matching waiter enqueued
        # (the fetch-add and the wait message race over the network).
        self.credits = 0


class _BarrierState:
    __slots__ = ("events",)

    def __init__(self):
        self.events: List[Event] = []


class SyncService:
    """Owner-node lock queues and barrier state (§7.2)."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.sim = kernel.sim
        self._locks: Dict[str, _LockState] = {}
        self._barriers: Dict[str, _BarrierState] = {}
        self.grants = 0

    # -- locks -----------------------------------------------------------
    def lock_wait(self, lock_name: str) -> Event:
        """Enqueue a contended waiter; returns its grant event."""
        state = self._locks.setdefault(lock_name, _LockState())
        event = self.sim.event()
        if state.credits > 0:
            state.credits -= 1
            self.grants += 1
            event.succeed()
        else:
            state.queue.append(event)
        return event

    def lock_release(self, lock_name: str) -> None:
        """Grant the lock to the FIFO-next waiter (or bank a credit)."""
        state = self._locks.setdefault(lock_name, _LockState())
        if state.queue:
            self.grants += 1
            state.queue.popleft().succeed()
        else:
            state.credits += 1

    # -- barriers ----------------------------------------------------------
    def barrier_arrive(self, name: str, n: int) -> Event:
        """Register an arrival; the event fires when ``n`` have arrived."""
        if n < 1:
            raise ValueError(f"barrier needs n >= 1, got {n}")
        state = self._barriers.setdefault(name, _BarrierState())
        event = self.sim.event()
        state.events.append(event)
        if len(state.events) >= n:
            waiters = state.events
            del self._barriers[name]
            for waiter in waiters:
                waiter.succeed()
        return event
