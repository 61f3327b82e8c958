"""WarmExecutor: persistent workers with the engine's isolation story."""

from __future__ import annotations

import os

import pytest

from repro.arch import resolve_backend
from repro.engine import CellSpec, run_cells
from repro.engine.warm import WarmExecutor, WarmSlot
from repro.serve.protocol import canonical_json, result_payload


def _spec(ranks: int = 32) -> CellSpec:
    backend = resolve_backend("bank")
    return CellSpec(
        benchmark_key="vecadd", device_type=backend.device_type,
        num_ranks=ranks, paper_scale=True, functional=False,
    )


class TestWarmSlot:
    def test_warm_slot_result_is_byte_identical_to_run_cells(self):
        spec = _spec()
        slot = WarmSlot(0)
        try:
            warm_outcome = slot.submit(spec).result(timeout=120)
        finally:
            slot.shutdown()
        direct = run_cells([spec], use_cache=False).outcome(spec)
        assert canonical_json(
            result_payload(spec, warm_outcome)
        ) == canonical_json(result_payload(spec, direct))

    def test_worker_survives_across_cells(self):
        slot = WarmSlot(0)
        try:
            slot.warm_up()
            for _ in range(2):
                outcome = slot.submit(_spec()).result(timeout=120)
                assert outcome.error is None
            assert slot.cells_run == 2
            assert slot.respawns == 0
        finally:
            slot.shutdown()

    def test_respawn_replaces_the_worker(self):
        slot = WarmSlot(0)
        try:
            slot.warm_up()
            before = list(
                getattr(slot._pool, "_processes", {}).keys()
            )
            slot.respawn()
            slot.warm_up()
            after = list(getattr(slot._pool, "_processes", {}).keys())
            assert slot.respawns == 1
            assert before != after
            # The old worker is actually dead.
            for pid in before:
                assert not _alive(pid)
            outcome = slot.submit(_spec()).result(timeout=120)
            assert outcome.error is None
        finally:
            slot.shutdown()

    def test_shutdown_is_terminal_and_idempotent(self):
        slot = WarmSlot(0)
        slot.warm_up()
        pids = list(getattr(slot._pool, "_processes", {}).keys())
        slot.shutdown()
        slot.shutdown()
        assert not slot.alive
        for pid in pids:
            assert not _alive(pid)
        with pytest.raises(RuntimeError):
            slot.submit(_spec())
        with pytest.raises(RuntimeError):
            slot.respawn()


class TestWarmExecutor:
    def test_shutdown_kills_every_worker(self):
        executor = WarmExecutor(workers=2)
        executor.warm_up()
        pids = executor.worker_pids()
        assert len(pids) == 2
        executor.shutdown()
        for pid in pids:
            assert not _alive(pid)
        assert executor.worker_pids() == []

    def test_respawns_aggregate_across_slots(self):
        executor = WarmExecutor(workers=2)
        try:
            executor.slots[0].respawn()
            executor.slots[1].respawn()
            executor.slots[1].respawn()
            assert executor.respawns == 3
        finally:
            executor.shutdown()

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            WarmExecutor(workers=0)


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    return True
