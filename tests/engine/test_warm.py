"""WarmExecutor: persistent workers with the engine's isolation story."""

from __future__ import annotations

import json
import os
import subprocess
import sys

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

    def test_warm_up_imports_the_simulator_before_any_cell(self):
        # A fresh interpreter: importing the executor loads no simulator,
        # but warming up must, so the first request does not pay for it.
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, "-c", WARM_UP_IMPORTS],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "on_import": False, "after_warm_up": True, "in_worker": True,
        }


WARM_UP_IMPORTS = """
import json, sys
from repro.engine.warm import WarmExecutor

def loaded():
    return "repro.core.device" in sys.modules

on_import = loaded()
executor = WarmExecutor(workers=1)
try:
    executor.warm_up()
    in_worker = executor.slots[0]._pool.submit(loaded).result(timeout=60)
finally:
    executor.shutdown()
print(json.dumps({
    "on_import": on_import, "after_warm_up": loaded(), "in_worker": in_worker,
}))
"""


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    return True
