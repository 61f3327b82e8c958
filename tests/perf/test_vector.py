"""Vectorized histogram pricing: the byte-identity contract.

docs/VECTORIZATION.md promises that a ``vector=True`` run produces
*bit-identical* accumulators and serialized results to the scalar path,
for every registered backend (plug-ins included), by replicating the
scalar tracker's exact float-summation order.  These tests pin that
contract -- and, just as importantly, pin that the equivalence checker
*notices* when it is broken (iterated-add vs premultiplied totals are
different doubles, and must be reported, not absorbed).
"""

import copy
import json
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import iter_backends
from repro.baselines.cpu import CpuModel
from repro.baselines.gpu import GpuModel
from repro.bench.registry import make_benchmark
from repro.core.commands import PimCmdKind
from repro.core.device import PimDevice
from repro.core.errors import PimTypeError
from repro.core.stats import EventCounts, StatsTracker
from repro.engine.cells import CellSpec
from repro.perf import plans
from repro.perf.plans import VALUE_FIELDS, compile_plan, price_plan, synthesize
from repro.perf.vector import (
    CostTable,
    VectorEquivalenceError,
    VectorStatsTracker,
    tracker_mismatches,
    verify_equivalence,
)

BACKENDS = list(iter_backends())


def _add_tracker(latency_ns, energy_nj):
    """A vector tracker with one shape (an add), and that shape's table."""
    values = (latency_ns, energy_nj) + (0.0,) * (len(VALUE_FIELDS) - 2)
    table = CostTable(*(np.array([value]) for value in values))
    tracker = VectorStatsTracker()
    tracker.register_shape(("add",))
    return tracker, table


def _priced(tracker, table=None):
    """A vector tracker's logs priced under one table: plain totals."""
    return price_plan(tracker.export_plan(), (table,)).tracker(0)


def _log_add(tracker, mult=1, is_batch=False):
    """One histogram entry for the tracker's add shape."""
    tracker.log_command(
        0, tracker.bucket_index("add.int32.v"),
        tracker.kind_index(PimCmdKind.ADD), mult, is_batch,
    )


def _run_pair(
    backend, key="vecadd", num_ranks=2, paper_scale=False,
    enforce_capacity=True,
):
    """One benchmark through scalar ``bench.run`` and compile + price.

    Returns ``(scalar tracker, scalar result, vector tracker, vector
    result)``.
    """
    config = backend.make_config(num_ranks)
    scalar = PimDevice(
        config, functional=False, enforce_capacity=enforce_capacity,
    )
    bench = make_benchmark(key, paper_scale=paper_scale)
    scalar_result = bench.run(scalar, CpuModel(), GpuModel())
    spec = CellSpec(
        key, backend.device_type, num_ranks, paper_scale=paper_scale,
        enforce_capacity=enforce_capacity, vector=True,
    )
    plan = compile_plan(spec, backend, config)
    ((vector_result, vector),) = synthesize(plan, [(backend, config)])
    return scalar.stats, scalar_result, vector, vector_result


class TestOrderedSum:
    """price_plan's float sums are the scalar left-to-right loop."""

    def test_matches_sequential_python_sum(self):
        values = [0.1, 0.2, 0.30000000000000004, 1e18, -1e18, 3.5e-9]
        expected = 0.0
        for v in values:
            expected += v
        tracker = VectorStatsTracker()
        for v in values:
            tracker.record_host(v, 0.0)
        got = price_plan(tracker.export_plan(), (None,)).host_time_ns
        assert got == expected  # bit-equal, not approx

    def test_reps_replicate_iterated_add(self):
        # 0.1 added ten times is NOT 1.0 in binary64; the vector path
        # must reproduce the iterated result, not the multiplied one.
        expected = 0.0
        for _ in range(10):
            expected += 0.1
        tracker, table = _add_tracker(0.1, 0.1)
        _log_add(tracker, 10, is_batch=True)
        got = price_plan(tracker.export_plan(), (table,)).latency_ns[0, 0]
        assert got == expected
        assert got != 1.0


# -- the shared pricer on random logs ------------------------------------------

_SHAPES = 3
_SIGNATURES = ("add.int32.v", "mul.int32.v", "popcount.int8.h")
_KINDS = (PimCmdKind.ADD, PimCmdKind.MUL, PimCmdKind.POPCOUNT)
_value = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)
_count = st.integers(1, 4)

_shape_entry = st.tuples(
    st.just("shape"), st.integers(0, _SHAPES - 1),
    st.sampled_from(_SIGNATURES), st.sampled_from(_KINDS), _count,
    st.booleans(),
)
_copy_entry = st.tuples(
    st.just("copy"), st.sampled_from(("h2d", "d2h", "d2d")),
    st.integers(0, 4096), _value, _value,
)
_host_entry = st.tuples(st.just("host"), _value, _value)
_entry = _shape_entry | _copy_entry | _host_entry
_log = st.lists(
    _entry | st.tuples(
        st.just("replay"), st.lists(_entry, max_size=4),
        st.integers(0, 3),
    ),
    max_size=10,
)
_table = st.tuples(
    *[st.lists(_value, min_size=_SHAPES, max_size=_SHAPES)]
    * len(VALUE_FIELDS)
).map(lambda columns: CostTable(*(np.array(c) for c in columns)))


def _apply(tracker, entry, table):
    """One log entry, issued the way the device would bill it.

    Shape entries reach the vector tracker as histogram entries; the
    scalar tracker gets the priced ``record_command`` call the scalar
    device makes (``repeat`` billing pre-multiplies, batches iterate).
    """
    op = entry[0]
    if op == "shape":
        _, shape, signature, kind, mult, is_batch = entry
        if isinstance(tracker, VectorStatsTracker):
            tracker.log_command(
                shape, tracker.bucket_index(signature),
                tracker.kind_index(kind), mult, is_batch,
            )
            return
        values = [float(getattr(table, field)[shape]) for field in VALUE_FIELDS]
        events = EventCounts(*values[3:])
        if is_batch:
            tracker.record_command_batch(
                kind, signature, *values[:3], count=mult, events=events
            )
        else:
            tracker.record_command(
                kind, signature, *(v * mult for v in values[:3]),
                count=mult, events=events.scaled(mult),
            )
    elif op == "copy":
        tracker.record_copy(*entry[1:])
    elif op == "host":
        tracker.record_host(*entry[1:])
    else:
        _, body, times = entry
        with tracker.recorded_trace() as trace:
            for inner in body:
                _apply(tracker, inner, table)
        tracker.replay_trace(trace, times=times)


def _vector_tracker(log, table):
    tracker = VectorStatsTracker()
    for shape in range(_SHAPES):
        tracker.register_shape(("shape", shape))
    for entry in log:
        _apply(tracker, entry, table)
    return tracker


class TestSharedPricerProperties:
    @settings(max_examples=60, deadline=None)
    @given(_log, _table)
    def test_one_row_matches_scalar_tracker(self, log, table):
        scalar = StatsTracker()
        for entry in log:
            _apply(scalar, entry, table)
        vector = _priced(_vector_tracker(log, table), table)
        assert tracker_mismatches(vector, scalar) == []

    @settings(max_examples=40, deadline=None)
    @given(_log, st.lists(_table, min_size=1, max_size=4))
    def test_p_rows_match_p_one_row_calls(self, log, tables):
        plan = _vector_tracker(log, tables[0]).export_plan()
        together = price_plan(plan, tables)
        # A one-element slab bound prices every row separately.
        with mock.patch.object(plans, "_SLAB_ELEMENTS", 1):
            slabbed = price_plan(plan, tables)
        for row, table in enumerate(tables):
            alone = price_plan(plan, (table,)).tracker(0)
            for totals in (together, slabbed):
                batched = totals.tracker(row)
                assert type(batched) is StatsTracker
                assert tracker_mismatches(batched, alone) == []


@pytest.mark.parametrize("backend", BACKENDS, ids=[b.id for b in BACKENDS])
class TestByteIdentityEveryBackend:
    """vecadd on every registered backend: zero bit differences."""

    def test_trackers_bit_identical(self, backend):
        scalar, _, vector, _ = _run_pair(backend)
        assert tracker_mismatches(vector, scalar) == []

    def test_results_and_payloads_identical(self, backend):
        scalar, scalar_result, vector, vector_result = _run_pair(backend)
        verify_equivalence(
            vector, scalar, vector_result, scalar_result,
            label=f"vecadd on {backend.id}",
        )
        assert json.dumps(vector_result.to_dict()) == json.dumps(
            scalar_result.to_dict()
        )


class TestByteIdentityAcrossBenchmarks:
    """Heavier kernels (replay traces, batches, host phases) stay exact."""

    @pytest.mark.parametrize("key", ["histogram", "kmeans", "gemv", "aes-enc"])
    def test_benchmark_bit_identical(self, key):
        from repro.arch import resolve_backend

        backend = resolve_backend("fulcrum")
        scalar, scalar_result, vector, vector_result = _run_pair(
            backend, key=key, enforce_capacity=False
        )
        verify_equivalence(
            vector, scalar, vector_result, scalar_result,
            label=f"{key} on fulcrum",
        )

    def test_paper_scale_bitserial(self):
        from repro.arch import resolve_backend

        backend = resolve_backend("bitserial")
        scalar, scalar_result, vector, vector_result = _run_pair(
            backend, key="vecadd", num_ranks=4, paper_scale=True,
            enforce_capacity=False,
        )
        verify_equivalence(
            vector, scalar, vector_result, scalar_result,
            label="vecadd on bitserial (paper scale)",
        )


class TestEquivalenceCheckerCatchesDivergence:
    """a+a+...+a != n*a: the checker must report it, never absorb it."""

    def test_iterated_vs_premultiplied_is_a_mismatch(self):
        iterated = StatsTracker()
        iterated.record_command_batch(
            PimCmdKind.ADD, "add.int32.v", 0.1, 0.1, count=10
        )
        premultiplied = StatsTracker()
        premultiplied.record_command(
            PimCmdKind.ADD, "add.int32.v", 1.0, 1.0, count=10
        )
        mismatches = tracker_mismatches(iterated, premultiplied)
        assert mismatches, "float-order divergence was silently absorbed"
        assert any("add.int32.v" in m for m in mismatches)

    def test_vector_batch_follows_iterated_semantics(self):
        scalar = StatsTracker()
        scalar.record_command_batch(
            PimCmdKind.ADD, "add.int32.v", 0.1, 0.1, count=10
        )
        vector, table = _add_tracker(0.1, 0.1)
        _log_add(vector, 10, is_batch=True)
        assert tracker_mismatches(_priced(vector, table), scalar) == []

    def test_verify_equivalence_raises_with_label(self):
        a = StatsTracker()
        a.record_command(PimCmdKind.ADD, "add.int32.v", 1.0, 1.0)
        b, table = _add_tracker(1.0 + 1e-12, 1.0)
        _log_add(b)
        with pytest.raises(VectorEquivalenceError, match="my-cell"):
            verify_equivalence(_priced(b, table), a, label="my-cell")

    def test_verify_equivalence_passes_on_equal(self):
        a = StatsTracker()
        a.record_command(PimCmdKind.ADD, "add.int32.v", 1.0, 1.0)
        a.record_copy("h2d", 64, 2.0, 3.0)
        a.record_host(5.0, 7.0)
        b, table = _add_tracker(1.0, 1.0)
        _log_add(b)
        b.record_copy("h2d", 64, 2.0, 3.0)
        b.record_host(5.0, 7.0)
        verify_equivalence(_priced(b, table), a, label="equal")


class TestReplayGroups:
    """Replay re-appends the recorded entries: the scalar sums, exactly.

    The record/replay guards run on both trackers in
    tests/core/test_trace_replay.py.
    """

    def _fill(self, tracker, times):
        with tracker.recorded_trace() as trace:
            if isinstance(tracker, VectorStatsTracker):
                _log_add(tracker)
            else:
                tracker.record_command(
                    PimCmdKind.ADD, "add.int32.v", 0.1, 0.2
                )
            tracker.record_copy("d2d", 8, 0.3, 0.4)
            tracker.record_host(0.5, 0.6)
        tracker.replay_trace(trace, times=times)

    @pytest.mark.parametrize("times", [0, 1, 7])
    def test_replay_matches_scalar(self, times):
        scalar = StatsTracker()
        self._fill(scalar, times)
        vector, table = _add_tracker(0.1, 0.2)
        self._fill(vector, times)
        assert tracker_mismatches(_priced(vector, table), scalar) == []

    def test_replay_rejects_scalar_traces(self):
        scalar = StatsTracker()
        with scalar.recorded_trace() as trace:
            scalar.record_host(0.5, 0.6)
        vector, table = _add_tracker(0.1, 0.2)
        self._fill(vector, 1)
        before = _priced(vector, table)
        with pytest.raises(
            TypeError,
            match="a StatsTracker trace cannot be replayed on a "
                  "VectorStatsTracker",
        ):
            vector.replay_trace(trace, times=2)
        assert tracker_mismatches(_priced(vector, table), before) == []
        assert len(vector.export_plan().host_time) == 2

    def test_scalar_replay_rejects_vector_traces(self):
        vector, _table = _add_tracker(0.1, 0.2)
        with vector.recorded_trace() as trace:
            _log_add(vector)
            vector.record_host(0.5, 0.6)
        scalar = StatsTracker()
        self._fill(scalar, 1)
        before = copy.deepcopy(scalar)
        with pytest.raises(
            TypeError,
            match="a VectorStatsTracker trace cannot be replayed on a "
                  "StatsTracker",
        ):
            scalar.replay_trace(trace, times=2)
        assert tracker_mismatches(scalar, before) == []
        assert scalar.commands == before.commands


class TestTotals:
    """Vector trackers only record; pricing hands on plain totals."""

    def _tracker(self):
        tracker, table = _add_tracker(1.5, 2.5)
        _log_add(tracker, 3, is_batch=True)
        tracker.record_copy("h2d", 32, 1.0, 1.0)
        return tracker, table

    def test_totals_is_plain_and_pickleable(self):
        tracker, table = self._tracker()
        totals = _priced(tracker, table)
        assert type(totals) is StatsTracker
        clone = pickle.loads(pickle.dumps(totals))
        assert tracker_mismatches(clone, totals) == []
        assert clone.total_command_count == 3

    def test_tracker_holds_logs_not_totals(self):
        tracker, _table = self._tracker()
        assert not isinstance(tracker, StatsTracker)
        for name in ("snapshot", "totals", "total_command_count"):
            assert not hasattr(tracker, name)

    def test_record_command_raises(self):
        tracker, _table = self._tracker()
        with pytest.raises(TypeError, match="log_command"):
            tracker.record_command(PimCmdKind.ADD, "add.int32.v", 1.0, 1.0)
        with pytest.raises(TypeError, match="log_command"):
            tracker.record_command_batch(
                PimCmdKind.ADD, "add.int32.v", 1.0, 1.0, count=2
            )

    def test_plan_rows_share_no_accumulators(self):
        tracker, table = self._tracker()
        totals = price_plan(tracker.export_plan(), [table] * 2)
        first, second = totals.tracker(0), totals.tracker(1)
        first.record_copy("h2d", 8, 1.0, 1.0)
        assert first.copy_bytes == 40 and second.copy_bytes == 32

    def test_reset_clears_logs(self):
        tracker, table = self._tracker()
        tracker.reset()
        plan = tracker.export_plan()
        assert len(plan.cmd_shape) == len(plan.copy_dir) == 0
        assert plan.shape_args == ()
        assert _priced(tracker).total_command_count == 0
        tracker.register_shape(("add",))
        _log_add(tracker)
        assert _priced(tracker, table).total_command_count == 1


class TestCompileThenPrice:
    """compile_plan records only; synthesize prices once per point."""

    def _count_cost_tables(self, monkeypatch):
        from repro.arch.base import ArchBackend

        calls = []
        original = ArchBackend.cost_table

        def counted(self, pipeline, shapes):
            calls.append(len(shapes))
            return original(self, pipeline, shapes)

        monkeypatch.setattr(ArchBackend, "cost_table", counted)
        return calls

    def _cell(self, backend):
        return CellSpec(
            "vecadd", backend.device_type, 2, paper_scale=False, vector=True
        )

    def test_compile_plan_never_prices(self, monkeypatch):
        from repro.arch import resolve_backend

        calls = self._count_cost_tables(monkeypatch)
        backend = resolve_backend("bank")
        plan = compile_plan(self._cell(backend), backend, backend.make_config(2))
        assert calls == []
        assert len(plan.shape_args) > 0

    @pytest.mark.parametrize("points", [1, 3])
    def test_synthesize_prices_once_per_point(self, monkeypatch, points):
        from repro.arch import resolve_backend

        backend = resolve_backend("bank")
        config = backend.make_config(2)
        plan = compile_plan(self._cell(backend), backend, config)
        calls = self._count_cost_tables(monkeypatch)
        rows = synthesize(plan, [(backend, config)] * points)
        assert calls == [len(plan.shape_args)] * points
        assert len(rows) == points
        payloads = {json.dumps(result.to_dict()) for result, _ in rows}
        assert len(payloads) == 1

    def test_bench_run_on_vector_device_raises(self):
        from repro.arch import resolve_backend

        device = PimDevice(
            resolve_backend("fulcrum").make_config(2),
            functional=False, vector=True,
        )
        with pytest.raises(TypeError, match="compile_plan"):
            make_benchmark("vecadd", paper_scale=False).run(device)


class TestVectorDeviceValidation:
    """Vector mode is analytic-only; incompatible features fail loudly."""

    def _backend(self):
        from repro.arch import resolve_backend

        return resolve_backend("fulcrum")

    def test_functional_rejected(self):
        with pytest.raises(PimTypeError, match="analytic"):
            PimDevice(
                self._backend().make_config(2), functional=True, vector=True
            )

    def test_bus_rejected(self):
        from repro.obs import EventBus

        with pytest.raises(PimTypeError, match="bus"):
            PimDevice(
                self._backend().make_config(2),
                functional=False, bus=EventBus(), vector=True,
            )
        device = PimDevice(
            self._backend().make_config(2), functional=False, vector=True
        )
        with pytest.raises(PimTypeError, match="bus"):
            device.attach_bus(EventBus())

    def test_faults_rejected(self):
        from repro.faults.models import BitFlipFault, FaultPlan

        plan = FaultPlan(seed=1, faults=(BitFlipFault(rate=1e-3),))
        with pytest.raises(PimTypeError, match="fault"):
            PimDevice(
                self._backend().make_config(2),
                functional=False, faults=plan, vector=True,
            )
