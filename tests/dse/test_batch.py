"""The sweep-level matrix pricer: grouping, identity, fallback, cache.

Every sweep here is tiny (a handful of bank-level points, paper gemv or
vecadd) so the file runs in seconds; the 540-point scale path is the
selfbench ``dse-sweep-cold-batched`` leg's job.  The load-bearing
assertions are the *byte*-identity ones: the batched path is only
allowed to exist because nothing downstream can tell it ran.
"""

import dataclasses
import pickle

import pytest

from repro.dse import SweepSpec, render_json, run_sweep, sweep_payload
from repro.dse.batch import batch_eligible
from repro.engine.cells import CellSpec
from repro.obs.metrics import global_registry
from repro.perf.vector import VECTOR_CHECK_ENV

_RAW = {
    "name": "batch-unit",
    "base": "bank",
    "benchmarks": ["vecadd"],
    "num_ranks": 2,
    "axes": {"pe_freq_mhz": [200, 300, 400]},
}


def _spec(**overrides) -> SweepSpec:
    raw = dict(_RAW)
    raw.update(overrides)
    return SweepSpec.from_dict(raw)


def _run(spec=None, **kwargs):
    kwargs.setdefault("jobs", 1)
    kwargs.setdefault("use_cache", False)
    return run_sweep(spec or _spec(), **kwargs)


class TestGrouping:
    def test_cost_only_knobs_share_one_plan(self):
        """Three clocks over one geometry compile exactly one plan."""
        result = _run()
        assert result.batched_cells == 3
        assert result.plan_misses == 1
        assert result.plan_hits == 0

    def test_geometry_knobs_split_plans(self):
        """Each banks_per_rank value is its own geometry group."""
        spec = _spec(axes={
            "banks_per_rank": [32, 64],
            "pe_freq_mhz": [200, 300],
        })
        result = _run(spec)
        assert result.batched_cells == 4
        assert result.plan_misses == 2

    def test_registry_counters_match_report(self):
        registry = global_registry()
        before = {
            name: registry.value(f"plan_cache.{name}")
            for name in ("hits", "misses")
        }
        result = _run()
        assert (
            registry.value("plan_cache.misses") - before["misses"]
            == result.plan_misses
        )
        assert (
            registry.value("plan_cache.hits") - before["hits"]
            == result.plan_hits
        )

    def test_points_per_s_positive_when_timed(self):
        result = _run()
        assert result.wall_s > 0
        assert result.points_per_s == pytest.approx(
            len(result.outcomes) / result.wall_s
        )


class TestEligibility:
    def test_analytic_vector_cell_is_eligible(self):
        spec = CellSpec("vecadd", object(), vector=True)
        assert batch_eligible(spec)

    def test_scalar_functional_and_fault_cells_are_not(self):
        assert not batch_eligible(CellSpec("vecadd", object(), vector=False))
        assert not batch_eligible(
            CellSpec("vecadd", object(), functional=True, vector=True)
        )
        assert not batch_eligible(
            CellSpec("vecadd", object(), fault_plan="fp", vector=True)
        )


class TestIdentity:
    def test_report_byte_identical_to_per_cell(self):
        spec = _spec(benchmarks=["vecadd", "gemv"])
        batched = _run(spec)
        assert batched.batched_cells == 6
        per_cell = _run(spec, batched=False)
        assert per_cell.batched_cells == 0
        assert render_json(sweep_payload(batched)) == render_json(
            sweep_payload(per_cell)
        )

    def test_report_byte_identical_to_scalar_oracle(self):
        spec = _spec(benchmarks=["vecadd", "gemv"])
        assert render_json(sweep_payload(_run(spec))) == render_json(
            sweep_payload(_run(spec, vector=False))
        )

    def test_batch_check_gate_passes(self, monkeypatch):
        """The vector check still batch-prices, then checks the first,
        middle and last synthesized cells against the scalar oracle."""
        monkeypatch.setenv(VECTOR_CHECK_ENV, "1")
        result = _run()
        assert result.batched_cells == 3
        assert result.checked_cells == 3
        assert all(not o.failed for o in result.outcomes)

    def test_check_fails_perturbed_cell_and_skips_its_cache_entry(
        self, monkeypatch, tmp_path
    ):
        from repro.arch.base import ArchBackend

        original = ArchBackend.cost_table

        def perturbed(self, pipeline, shapes):
            table = original(self, pipeline, shapes)
            return dataclasses.replace(
                table, latency_ns=table.latency_ns * (1.0 + 1e-9)
            )

        monkeypatch.setattr(ArchBackend, "cost_table", perturbed)
        monkeypatch.setenv(VECTOR_CHECK_ENV, "1")
        spec = _spec(axes={"pe_freq_mhz": [200, 300, 400, 500, 600]})
        result = _run(spec, use_cache=True, cache_dir=tmp_path)
        failed = [o for o in result.outcomes if o.failed]
        # First, middle and last of five points are sampled.
        assert len(failed) == 3
        assert result.checked_cells == 3
        for outcome in failed:
            (message,) = outcome.errors.values()
            assert "diverged from the scalar path" in message
            assert "latency_ns" in message
        monkeypatch.delenv(VECTOR_CHECK_ENV)
        warm = _run(spec, use_cache=True, cache_dir=tmp_path)
        assert warm.cache_hits == 2  # the failed cells were never written

    def test_synthesized_telemetry_flags(self):
        from repro.obs.telemetry import telemetry_log

        log_before = len(telemetry_log())
        result = _run()
        fresh = telemetry_log()[log_before:]
        assert len(fresh) == result.batched_cells
        for telemetry in fresh:
            assert telemetry.batched
            assert telemetry.vector
            assert not telemetry.from_cache
            assert telemetry.commands_simulated > 0
            # A batched pipeline prices each distinct shape exactly
            # once -- zero memo traffic is the truthful report.
            assert telemetry.memo_lookups == 0


class TestFallback:
    def test_scalar_sweep_never_batches(self):
        result = _run(vector=False)
        assert result.batched_cells == 0

    def test_batched_kwarg_opts_out(self):
        result = _run(batched=False)
        assert result.batched_cells == 0
        assert result.plan_misses == 0
        assert all(not o.failed for o in result.outcomes)


class TestCaching:
    def test_warm_run_serves_batched_entries_from_disk(self, tmp_path):
        spec = _spec()
        cold = _run(spec, use_cache=True, cache_dir=tmp_path)
        warm = _run(spec, use_cache=True, cache_dir=tmp_path)
        assert cold.batched_cells == 3 and cold.cache_hits == 0
        assert warm.cache_hits == 3 and warm.batched_cells == 0
        assert render_json(sweep_payload(cold)) == render_json(
            sweep_payload(warm)
        )

    def test_per_cell_path_reads_batched_cache_entries(self, tmp_path):
        """Synthesized outcomes are cached under the normal cell keys."""
        spec = _spec()
        cold = _run(spec, use_cache=True, cache_dir=tmp_path)
        warm = _run(spec, use_cache=True, cache_dir=tmp_path, batched=False)
        assert cold.batched_cells == 3
        assert warm.cache_hits == 3 and warm.cache_misses == 0
        assert render_json(sweep_payload(cold)) == render_json(
            sweep_payload(warm)
        )


class TestCellSpecHash:
    def test_hash_is_cached_and_stable(self):
        spec = CellSpec("vecadd", object(), vector=True)
        first = hash(spec)
        assert spec.__dict__["_hash"] == first
        assert hash(spec) == first

    def test_pickle_drops_cached_hash(self):
        """String hashes are salted per process; a cached hash pickled
        into a worker would corrupt its dict lookups."""
        from repro.config.device import PimDeviceType

        spec = CellSpec("vecadd", PimDeviceType.BANK_LEVEL, vector=True)
        hash(spec)
        clone = pickle.loads(pickle.dumps(spec))
        assert "_hash" not in clone.__dict__
        assert clone == spec
        assert hash(clone) == hash(spec)
        assert clone in {spec: True}
