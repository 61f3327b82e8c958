"""Reusable warm executor: worker processes that outlive one cell.

:func:`~repro.engine.engine.run_cells` pays a process spawn per cell
attempt -- the right trade for a batch run, where spawn cost is noise
next to simulation time and per-attempt pools give surgical crash
attribution.  A long-running service cannot afford that: every request
would re-import numpy and re-build the registry.  :class:`WarmExecutor`
keeps a fixed set of single-worker pools alive across cells, so the
interpreter, the arch registry, and the cost-memo tables stay hot in
each worker, while preserving the engine's isolation story:

* each slot is a **single-worker** pool, so a crash or a hang breaks
  exactly one slot and is attributable to exactly one cell;
* a hung or crashed slot is **killed and respawned** (the watchdog's
  move), costing one spawn instead of poisoning the executor;
* the worker entry point is the engine's own ``_worker``, so a cell run
  through a warm slot is byte-identical to one run by ``run_cells``.

The class is synchronous and owns no checkout logic: ``repro.serve``
hands its slots out one cell at a time through its own asyncio queue.
"""

from __future__ import annotations

import concurrent.futures
import typing

from repro.engine.engine import _kill_pool, _worker

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.cells import CellOutcome, CellSpec


def _import_simulator() -> None:
    """Load what a cell runs: numpy, the device simulator and the perf
    layer, which the engine's modules import only where they run."""
    import repro.core.device  # noqa: F401


class WarmSlot:
    """One persistent single-worker pool, killable and respawnable."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.respawns = 0
        self.cells_run = 0
        self._pool: "concurrent.futures.ProcessPoolExecutor | None" = (
            concurrent.futures.ProcessPoolExecutor(max_workers=1)
        )

    def submit(
        self, spec: "CellSpec", attempt: int = 1, record_events: bool = False
    ) -> "concurrent.futures.Future[CellOutcome]":
        """Run one cell attempt on this slot's warm worker."""
        if self._pool is None:
            raise RuntimeError(f"warm slot {self.index} is shut down")
        self.cells_run += 1
        return self._pool.submit(_worker, spec, record_events, attempt, True)

    def warm_up(self) -> None:
        """Force the worker process to exist (pools spawn lazily) with
        the simulator imported."""
        if self._pool is not None:
            self._pool.submit(_import_simulator).result()

    def respawn(self) -> None:
        """Kill the (possibly hung) worker and stand up a fresh pool.

        The kill must come first: a plain shutdown would join a hung
        worker forever.  Safe to call on a healthy slot too.
        """
        if self._pool is None:
            raise RuntimeError(f"warm slot {self.index} is shut down")
        self.respawns += 1
        _kill_pool(self._pool)
        self._pool = concurrent.futures.ProcessPoolExecutor(max_workers=1)

    def shutdown(self) -> None:
        """Kill the worker and retire the slot permanently."""
        if self._pool is not None:
            _kill_pool(self._pool)
            self._pool = None

    @property
    def alive(self) -> bool:
        return self._pool is not None


class WarmExecutor:
    """A fixed fleet of :class:`WarmSlot` workers.

    The caller checks slots out (``repro.serve`` queues them), submits
    work on one, and respawns the slot if its worker hung or died.
    Serving one cell per slot at a time is what makes hang attribution
    exact.
    """

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.slots = [WarmSlot(i) for i in range(workers)]

    @property
    def workers(self) -> int:
        return len(self.slots)

    @property
    def respawns(self) -> int:
        return sum(slot.respawns for slot in self.slots)

    def warm_up(self) -> None:
        """Spawn every worker process up front (service start, not first
        request, should pay the import cost).

        The simulator is imported here first, so a forked worker -- and
        a respawned one -- inherits it instead of importing it again.
        """
        _import_simulator()
        for slot in self.slots:
            slot.warm_up()

    def shutdown(self) -> None:
        """Kill every worker process.  Idempotent."""
        for slot in self.slots:
            slot.shutdown()

    def worker_pids(self) -> "list[int]":
        """PIDs of the currently live worker processes (for drain tests)."""
        pids = []
        for slot in self.slots:
            pool = slot._pool
            if pool is not None:
                pids.extend(getattr(pool, "_processes", {}).keys())
        return pids
