"""Engine integration of the vectorized pricing path.

Covers the seams docs/VECTORIZATION.md documents: cache-key
separation (vector and scalar cells can never share an entry), the
``REPRO_VECTOR_CHECK`` strict-equivalence gate (it passes on honest
cost tables and *fails loudly* on perturbed ones), the scalar
fallback for functional/observed/fault cells, telemetry stamping, and
suite-level byte identity of the exported JSON.
"""

import dataclasses
import json

import pytest

from repro.arch import resolve_backend
from repro.arch.base import ArchBackend
from repro.engine import CellSpec
from repro.engine.cache import cell_cache_key
from repro.engine.cells import VECTOR_CHECK_ENV, run_cell, vector_check_enabled

FULCRUM = resolve_backend("fulcrum").device_type


def _perturb_cost_tables(monkeypatch):
    """Scale every vector cost table's latency by one part in 1e9."""
    original = ArchBackend.cost_table

    def perturbed(self, pipeline, shapes):
        table = original(self, pipeline, shapes)
        return dataclasses.replace(
            table, latency_ns=table.latency_ns * (1.0 + 1e-9)
        )

    monkeypatch.setattr(ArchBackend, "cost_table", perturbed)


def _spec(**overrides):
    defaults = dict(
        benchmark_key="vecadd",
        device_type=FULCRUM,
        num_ranks=2,
        paper_scale=False,
        functional=False,
        vector=True,
    )
    defaults.update(overrides)
    return CellSpec(**defaults)


class TestCacheKeySeparation:
    def test_vector_and_scalar_keys_differ(self):
        assert cell_cache_key(_spec()) != cell_cache_key(_spec(vector=False))

    def test_vector_key_is_deterministic(self):
        assert cell_cache_key(_spec()) == cell_cache_key(_spec())

    def test_vector_stamp_is_the_engine_digest(self):
        from repro.engine.version import vector_stamp

        stamp = vector_stamp()
        assert len(stamp) == 12
        assert stamp == vector_stamp()

    @pytest.mark.parametrize("source, moves", [
        pytest.param("perf/plans.py", True, id="perf/plans.py"),
        pytest.param("dse/batch.py", False, id="dse/batch.py"),
    ])
    def test_pricer_edit_moves_vector_keys_only(
        self, source, moves, monkeypatch
    ):
        """An edit to the shared pricer moves vector cell keys and plan
        keys; scalar keys never contain the vector stamp.  The sweep
        pricer persists nothing whose content it decides, so an edit to
        it moves no key at all."""
        import pathlib

        from repro.engine import version
        from repro.perf.plans import plan_cache_key

        backend = resolve_backend("bank")
        spec = _spec(device_type=backend.device_type)
        scalar = dataclasses.replace(spec, vector=False)

        def keys():
            return (
                cell_cache_key(spec),
                plan_cache_key(backend, spec),
                cell_cache_key(scalar),
            )

        before = keys()
        read_bytes = pathlib.Path.read_bytes

        def edited(path):
            data = read_bytes(path)
            if path.as_posix().endswith(source):
                data += b"\n# simulated edit\n"
            return data

        monkeypatch.setattr(pathlib.Path, "read_bytes", edited)
        version.clear_stamp_caches()
        try:
            vector_key, plan_key, scalar_key = keys()
            assert (vector_key != before[0]) is moves
            assert (plan_key != before[1]) is moves
            assert scalar_key == before[2]
        finally:
            monkeypatch.undo()
            version.clear_stamp_caches()


class TestRunCellVector:
    def test_vector_cell_matches_scalar_cell(self):
        from repro.perf.vector import tracker_mismatches

        vec = run_cell(_spec())
        ref = run_cell(_spec(vector=False))
        assert vec.ok and ref.ok
        assert tracker_mismatches(vec.tracker, ref.tracker) == []
        assert json.dumps(vec.result.to_dict()) == json.dumps(
            ref.result.to_dict()
        )

    def test_vector_tracker_is_plain_and_pickleable(self):
        import pickle

        from repro.core.stats import StatsTracker
        from repro.perf.vector import tracker_mismatches

        outcome = run_cell(_spec())
        assert type(outcome.tracker) is StatsTracker
        clone = pickle.loads(pickle.dumps(outcome))
        assert tracker_mismatches(clone.tracker, outcome.tracker) == []
        assert (
            clone.tracker.total_command_count
            == outcome.tracker.total_command_count
            > 0
        )

    def test_telemetry_stamped_vector(self):
        outcome = run_cell(_spec())
        assert outcome.telemetry.vector is True
        assert outcome.telemetry.to_dict()["vector"] is True

    def test_memo_shapes_match_histogram(self):
        # The histogram dedupes by the scalar memo's own key, so the
        # priced-shape census keeps its meaning in vector mode.
        vec = run_cell(_spec())
        ref = run_cell(_spec(vector=False))
        assert vec.telemetry.memo_shapes == ref.telemetry.memo_shapes

    def test_vector_cell_reports_no_memo_traffic(self):
        # Each distinct shape is priced once: no memo lookup happens.
        telemetry = run_cell(_spec()).telemetry
        assert telemetry.memo_hits == telemetry.memo_misses == 0
        assert telemetry.memo_shapes > 0


class TestScalarFallback:
    def test_functional_cell_falls_back(self):
        from repro.core.stats import StatsTracker

        outcome = run_cell(_spec(functional=True, vector=True))
        assert outcome.ok
        assert outcome.telemetry.vector is False
        assert type(outcome.tracker) is StatsTracker

    def test_fault_cell_falls_back(self):
        from repro.faults.models import BitFlipFault, FaultPlan

        plan = FaultPlan(seed=3, faults=(BitFlipFault(rate=1e-4),))
        outcome = run_cell(
            _spec(functional=True, vector=True, fault_plan=plan)
        )
        assert outcome.ok
        assert outcome.telemetry.vector is False

    def test_observed_cell_falls_back(self):
        outcome = run_cell(_spec(vector=True), record_events=True)
        assert outcome.ok
        assert outcome.telemetry.vector is False
        assert outcome.events is not None


class TestVectorCheckGate:
    def test_check_passes_on_honest_tables(self, monkeypatch):
        monkeypatch.setenv(VECTOR_CHECK_ENV, "1")
        assert vector_check_enabled()
        outcome = run_cell(_spec())
        assert outcome.ok

    def test_check_off_when_unset_or_empty(self, monkeypatch):
        # Any non-empty value arms the check; unset or empty leaves it
        # off.
        monkeypatch.delenv(VECTOR_CHECK_ENV, raising=False)
        assert not vector_check_enabled()
        monkeypatch.setenv(VECTOR_CHECK_ENV, "")
        assert not vector_check_enabled()

    def test_check_catches_perturbed_cost_table(self, monkeypatch):
        from repro.perf.vector import VectorEquivalenceError

        monkeypatch.setenv(VECTOR_CHECK_ENV, "1")
        _perturb_cost_tables(monkeypatch)
        with pytest.raises(VectorEquivalenceError, match="vecadd"):
            run_cell(_spec())

    def test_check_audits_a_warm_cache(self, monkeypatch, tmp_path):
        # A cached cell is not served while the check is armed, so a
        # cost-table bug introduced after the cell was cached is caught.
        from repro.engine import run_cells

        spec = _spec()
        warm = run_cells([spec], jobs=1, cache_dir=tmp_path)
        assert warm.outcome(spec).ok and warm.misses == 1
        _perturb_cost_tables(monkeypatch)
        monkeypatch.setenv(VECTOR_CHECK_ENV, "1")
        audited = run_cells([spec], jobs=1, cache_dir=tmp_path)
        assert audited.hits == 0
        outcome = audited.outcome(spec)
        assert not outcome.ok
        assert "diverged from the scalar path" in outcome.error.brief()

    def test_worker_divergence_comes_home_as_itself(self, monkeypatch):
        # Under --jobs N the gate's error is raised in a worker and must
        # be rebuilt in the parent, not reported as a worker crash.
        from repro.engine import run_cells

        specs = [_spec(), _spec(num_ranks=4)]
        _perturb_cost_tables(monkeypatch)
        monkeypatch.setenv(VECTOR_CHECK_ENV, "1")
        audited = run_cells(specs, jobs=2, use_cache=False)
        for spec in specs:
            failure = audited.failures[spec]
            assert failure.error_type == "VectorEquivalenceError"
            assert "diverged" in failure.brief()

    def test_check_audits_a_memoized_suite(self, monkeypatch, tmp_path):
        # The in-process suite tier is bypassed too.
        from repro.engine import CellExecutionError
        from repro.experiments.runner import run_suite

        kwargs = dict(
            num_ranks=2, paper_scale=False, keys=("vecadd",),
            cache_dir=tmp_path,
        )
        run_suite(**kwargs)
        _perturb_cost_tables(monkeypatch)
        monkeypatch.setenv(VECTOR_CHECK_ENV, "1")
        with pytest.raises(CellExecutionError, match="diverged"):
            run_suite(**kwargs)


class TestSuiteByteIdentity:
    def test_exported_suite_json_identical(self):
        from repro.experiments.runner import export_suite_json, run_suite

        keys = ("vecadd", "histogram")
        scalar = run_suite(
            num_ranks=4, paper_scale=True, keys=keys,
            enforce_capacity=False, use_cache=False, vector=False,
        )
        vector = run_suite(
            num_ranks=4, paper_scale=True, keys=keys,
            enforce_capacity=False, use_cache=False, vector=True,
        )
        assert export_suite_json(scalar) == export_suite_json(vector)

    def test_default_suite_is_vectorized(self):
        from repro.experiments.runner import export_suite_json, run_suite
        from repro.obs.telemetry import clear_telemetry_log, telemetry_log

        keys = ("vecadd", "gemv", "histogram")
        clear_telemetry_log()
        default = run_suite(keys=keys, use_cache=False)
        cells = telemetry_log()
        assert len(cells) == len(default.results) == 3 * len(keys)
        assert all(cell.vector is True for cell in cells)
        scalar = run_suite(keys=keys, use_cache=False, vector=False)
        assert export_suite_json(default) == export_suite_json(scalar)

    def test_vector_suite_round_trips_disk_cache(self, tmp_path):
        from repro.experiments.runner import _CACHE, run_suite

        keys = ("vecadd",)
        kwargs = dict(
            num_ranks=2, paper_scale=False, keys=keys,
            cache_dir=tmp_path, vector=True,
        )
        first = run_suite(**kwargs)
        _CACHE.clear()  # force the second pass to the disk tier
        second = run_suite(**kwargs)
        a = first.result("vecadd", FULCRUM)
        b = second.result("vecadd", FULCRUM)
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
