"""Single-flight coalescing: concurrent identical cells cost one run.

The serving workload that motivates this (HBM-PIMulator's LLM-serving
traces) is duplicate-heavy: many concurrent queries name the same
(benchmark, device, ranks, mode) cell.  Identity is the engine's
content-addressed cache key -- the same key the
:class:`~repro.engine.cache.DiskCache` uses -- so "identical" here
means *provably the same numbers*, not merely the same request text.

A flight is a real :class:`asyncio.Task`, detached from any one
request: the first caller for a key creates it (the *leader*), later
callers attach to it (*followers*, tallied as coalesced), and every
waiter awaits it through a shield.  That structure is what lets a
request's deadline abandon its wait without killing the shared work --
the flight runs to completion, the cache still gets the result, and
other waiters are unaffected.  Failures propagate to every waiter, and
the key is cleared when the flight settles so a retry after failure
starts a fresh flight.
"""

from __future__ import annotations

import asyncio
import typing

T = typing.TypeVar("T")


class SingleFlight:
    """Keyed coalescing of concurrent awaitables (asyncio, single loop)."""

    def __init__(self) -> None:
        self._inflight: "dict[str, asyncio.Task]" = {}
        self.coalesced = 0
        self.flights = 0

    @property
    def inflight_count(self) -> int:
        return len(self._inflight)

    def flight(
        self,
        key: str,
        factory: "typing.Callable[[], typing.Awaitable[T]]",
    ) -> "tuple[asyncio.Task, bool]":
        """The shared task for ``key``, creating it if none is in flight.

        Returns ``(task, leader)``; ``leader`` says whether this call
        actually started the work.  Await the task through
        ``asyncio.shield`` so abandoning one waiter (deadline, client
        disconnect) never cancels the shared execution.
        """
        existing = self._inflight.get(key)
        if existing is not None:
            self.coalesced += 1
            return existing, False
        task = asyncio.get_running_loop().create_task(factory())
        self._inflight[key] = task
        self.flights += 1
        task.add_done_callback(lambda t, k=key: self._settle(k, t))
        return task, True

    def _settle(self, key: str, task: "asyncio.Task") -> None:
        self._inflight.pop(key, None)
        if not task.cancelled():
            # Mark the exception retrieved: with zero surviving waiters
            # (every client timed out), the loop would otherwise log a
            # "never retrieved" warning at shutdown.
            task.exception()

    async def run(
        self,
        key: str,
        factory: "typing.Callable[[], typing.Awaitable[T]]",
    ) -> "tuple[T, bool]":
        """Execute ``factory`` once per concurrent ``key``.

        Returns ``(result, leader)``.  Exceptions raised by the factory
        propagate to the leader and every follower.
        """
        task, leader = self.flight(key, factory)
        return await asyncio.shield(task), leader

    def cancel_all(self) -> int:
        """Cancel every in-flight task (forced-drain path)."""
        cancelled = 0
        for task in list(self._inflight.values()):
            if not task.done():
                task.cancel()
                cancelled += 1
        return cancelled
