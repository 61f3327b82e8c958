"""Sweeps inside a long-lived serving process leave no registry residue.

``run_sweep`` derives one parametric backend per design point, and a
derived backend is a value: it resolves without being registered.
Under ``repro serve`` the process lives for days and may run many
sweeps, so a registration left behind would be a slow leak of registry
entries *and* a correctness hazard (a later sweep could silently
resolve a stale backend id).  The contract: a sweep -- successful or
not -- leaves the registry exactly as it found it, a point registered
by hand survives, and the service keeps answering with byte-identical
payloads afterwards.
"""

import asyncio
import json

import pytest

from repro.arch import (
    derive_backend,
    iter_backends,
    register_backend,
    unregister_backend,
)
from repro.core.errors import PimConfigError
from repro.dse import SweepSpec, run_sweep
from repro.obs.metrics import MetricsRegistry
from repro.resilience.policy import RetryPolicy
from repro.serve.protocol import canonical_json
from repro.serve.service import EvaluationService, ServiceConfig

_SPEC = SweepSpec.from_dict({
    "name": "hygiene",
    "base": "bank",
    "benchmarks": ["vecadd"],
    "num_ranks": 2,
    "axes": {"banks_per_rank": [32, 64]},
})


def _config(tmp_path) -> ServiceConfig:
    return ServiceConfig(
        workers=1,
        cache_dir=str(tmp_path / "cache"),
        policy=RetryPolicy(max_retries=2, cell_timeout_s=30.0),
        drain_grace_s=1.0,
    )


def _registry_ids() -> "tuple[str, ...]":
    return tuple(backend.id for backend in iter_backends())


def test_completed_sweep_restores_registry_size(tmp_path):
    """The contract, inside a live service process."""
    async def main():
        service = EvaluationService(
            _config(tmp_path), registry=MetricsRegistry()
        )
        await service.start()
        try:
            before = _registry_ids()
            result = run_sweep(_SPEC, jobs=1, use_cache=False)
            assert not any(o.failed for o in result.outcomes)
            assert _registry_ids() == before

            # The service still resolves the hand-written backends and
            # serves the same bytes as before the sweep ran.
            body = json.dumps(
                {"benchmark": "vecadd", "device": "bank", "ranks": 32}
            ).encode()
            status, first = await service.evaluate(body)
            assert status == 200
            run_sweep(_SPEC, jobs=1, use_cache=False)
            status, second = await service.evaluate(body)
            assert status == 200
            assert canonical_json(first) == canonical_json(second)
            assert _registry_ids() == before
        finally:
            await service.drain(grace_s=0.5)

    asyncio.run(main())


def test_failed_sweep_leaves_registry_unchanged(monkeypatch):
    """Sweeps that raise -- on a bad base or mid-evaluation -- leave no
    registration behind."""
    before = _registry_ids()
    with pytest.raises(PimConfigError):
        run_sweep(
            SweepSpec.from_dict({
                "name": "bad-base",
                "base": "hal9000",
                "benchmarks": ["vecadd"],
                "num_ranks": 2,
                "axes": {"banks_per_rank": [32]},
            }),
            jobs=1, use_cache=False,
        )
    assert _registry_ids() == before

    def explode(*args, **kwargs):
        raise RuntimeError("pricing failed mid-sweep")

    # Every point is derived before pricing starts.
    monkeypatch.setattr("repro.dse.sweep.price_cells_batched", explode)
    with pytest.raises(RuntimeError, match="mid-sweep"):
        run_sweep(_SPEC, jobs=1, use_cache=False)
    assert _registry_ids() == before


def test_sweep_leaves_foreign_registrations_alone():
    """A point registered by hand survives a sweep that evaluates it."""
    point = _SPEC.compile_points()[0]
    owned = register_backend(derive_backend(point.base, point.knobs_dict()))
    try:
        before = _registry_ids()
        assert owned.id in before
        result = run_sweep(_SPEC, jobs=1, use_cache=False)
        assert not any(o.failed for o in result.outcomes)
        assert _registry_ids() == before
    finally:
        unregister_backend(owned.id)
