"""Vectorized histogram pricing: the byte-identity contract.

docs/VECTORIZATION.md promises that a ``vector=True`` run produces
*bit-identical* accumulators and serialized results to the scalar path,
for every registered backend (plug-ins included), by replicating the
scalar tracker's exact float-summation order.  These tests pin that
contract -- and, just as importantly, pin that the equivalence checker
*notices* when it is broken (iterated-add vs premultiplied totals are
different doubles, and must be reported, not absorbed).
"""

import contextlib
import copy
import dataclasses
import functools
import json
import pickle
import tracemalloc
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
from repro.perf.plans import (
    EVENT_FIELDS,
    VALUE_FIELDS,
    compile_plan,
    price_plan,
    synthesize,
)
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


def _unit(plan, tables):
    """P one-point tables (``None``: no shapes) as ``price_plan``'s stack."""
    shapes = len(plan.shape_args)
    return np.array(
        [[getattr(table, name) if table is not None else np.zeros(shapes)
          for table in tables] for name in VALUE_FIELDS],
        dtype=np.float64,
    ).reshape(len(VALUE_FIELDS), len(tables), shapes)


def _price(plan, tables):
    """``price_plan`` under a sequence of one-point tables."""
    return price_plan(plan, _unit(plan, tables))


def _priced(tracker, table=None):
    """A vector tracker's logs priced under one table: plain totals."""
    return _price(tracker.export_plan(), (table,)).tracker(0)


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
        got = _price(tracker.export_plan(), (None,)).host_time_ns
        assert got == expected  # bit-equal, not approx

    def test_reps_replicate_iterated_add(self):
        # 0.1 added ten times is NOT 1.0 in binary64; the vector path
        # must reproduce the iterated result, not the multiplied one.
        expected = 0.0
        for _ in range(10):
            expected += 0.1
        tracker, table = _add_tracker(0.1, 0.1)
        _log_add(tracker, 10, is_batch=True)
        got = _price(tracker.export_plan(), (table,)).latency_ns[0, 0]
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


@st.composite
def _pooled_tables(draw):
    """P tables drawn from a pool of at most three, so rows repeat.

    The pool's last table differs from its first in one field only.
    """
    pool = draw(st.lists(_table, min_size=1, max_size=2))
    field = draw(st.sampled_from(VALUE_FIELDS))
    column = draw(st.lists(_value, min_size=_SHAPES, max_size=_SHAPES))
    pool.append(dataclasses.replace(pool[0], **{field: np.array(column)}))
    return draw(st.lists(
        st.sampled_from(pool), min_size=len(pool) + 1, max_size=8
    ))


@st.composite
def _batched_log(draw):
    """A random log with at least one ``execute_batch`` entry of count > 1."""
    log = draw(_log)
    for _ in range(draw(st.integers(1, 3))):
        entry = ("shape", draw(st.integers(0, _SHAPES - 1)),
                 draw(st.sampled_from(_SIGNATURES)),
                 draw(st.sampled_from(_KINDS)), draw(st.integers(2, 40)), True)
        log.insert(draw(st.integers(0, len(log))), entry)
    return log


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
    @given(_batched_log(), _pooled_tables())
    def test_p_rows_match_p_one_row_calls(self, log, tables):
        plan = _vector_tracker(log, tables[0]).export_plan()
        together = _price(plan, tables)
        # A one-element slab bound sums one expanded entry per chunk.
        with mock.patch.object(plans, "_SLAB_ELEMENTS", 1):
            slabbed = _price(plan, tables)
        for row, table in enumerate(tables):
            alone = _price(plan, (table,)).tracker(0)
            for totals in (together, slabbed):
                batched = totals.tracker(row)
                assert type(batched) is StatsTracker
                assert tracker_mismatches(batched, alone) == []


class TestDistinctRows:
    """Each bytewise-distinct cost row is summed once per segment."""

    def test_120_tables_with_two_latency_rows(self, monkeypatch):
        tracker = _vector_tracker([
            ("shape", 0, _SIGNATURES[0], _KINDS[0], 2, False),
            ("shape", 1, _SIGNATURES[1], _KINDS[1], 3, True),
            ("shape", 2, _SIGNATURES[0], _KINDS[0], 1, False),
        ], None)
        plan = tracker.export_plan()
        columns = [np.array([0.1, 0.2, 0.3]) * (k + 1) for k in range(8)]
        base = CostTable(*columns)
        other = dataclasses.replace(base, latency_ns=np.array([0.7, 0.2, 0.3]))
        tables = [base, other] * 60
        widths = []
        real = plans._column_sums

        def spy(addends, reps=None):
            widths.append(addends.shape[1])
            return real(addends, reps)

        monkeypatch.setattr(plans, "_column_sums", spy)
        totals = _price(plan, tables)
        # Latency 2 + execution energy 1 per bucket, background 1 + the
        # five counters over the whole log (9 cost rows, not 960), then
        # the host time/energy pair.
        assert widths == [3, 3, 6, 2]
        monkeypatch.setattr(plans, "_column_sums", real)
        for row in (0, 1, 118, 119):
            alone = _price(plan, (tables[row],)).tracker(0)
            assert tracker_mismatches(totals.tracker(row), alone) == []


class TestBoundedSums:
    """The slab bound caps every summation buffer, not just points."""

    BOUND = 64

    def _spy(self, monkeypatch, peaks):
        """Record the peak traced allocation of every ``_column_sums``."""
        real = plans._column_sums

        def spy(addends, reps=None):
            tracemalloc.start()
            try:
                sums = real(addends, reps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            return sums

        monkeypatch.setattr(plans, "_SLAB_ELEMENTS", self.BOUND)
        monkeypatch.setattr(plans, "_column_sums", spy)

    def test_huge_batch_entry_is_chunked(self, monkeypatch):
        count = 100_000
        tracker, table = _add_tracker(0.1, 0.3)
        _log_add(tracker, count, is_batch=True)
        peaks = []
        self._spy(monkeypatch, peaks)
        got = _price(tracker.export_plan(), (table,))
        latency = energy = 0.0
        for _ in range(count):
            latency += 0.1
            energy += 0.3
        assert got.latency_ns[0, 0] == latency
        assert got.energy_nj[0, 0] == energy
        # Expanded whole, one column of this entry is 800 kB; a chunk
        # of BOUND float64 elements is 512 B, plus interpreter overhead.
        assert peaks and max(peaks) < 64 * 1024

    @settings(max_examples=40, deadline=None)
    @given(_batched_log(), _pooled_tables())
    def test_chunked_pricing_is_bit_equal(self, log, tables):
        plan = _vector_tracker(log, tables[0]).export_plan()
        expected = _price(plan, tables)
        with mock.patch.object(plans, "_SLAB_ELEMENTS", self.BOUND):
            chunked = _price(plan, tables)
        for row in range(len(tables)):
            assert tracker_mismatches(
                chunked.tracker(row), expected.tracker(row)
            ) == []


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
        totals = _price(tracker.export_plan(), [table] * 2)
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
    """compile_plan records only; synthesize prices once per sub-group."""

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
    def test_synthesize_prices_once_per_subgroup(self, monkeypatch, points):
        from repro.arch import resolve_backend

        backend = resolve_backend("bank")
        config = backend.make_config(2)
        plan = compile_plan(self._cell(backend), backend, config)
        calls = self._count_cost_tables(monkeypatch)
        rows = synthesize(plan, [(backend, config)] * points)
        assert calls == [len(plan.shape_args)]
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


@functools.lru_cache(maxsize=None)
def _real_shapes(base_id):
    """The distinct shapes of three real plans on one base backend."""
    from repro.arch import resolve_backend

    base = resolve_backend(base_id)
    shapes = ()
    for key in ("gemv", "histogram", "kmeans"):
        spec = CellSpec(key, base.device_type, 2, paper_scale=False,
                        enforce_capacity=False, vector=True)
        shapes += compile_plan(spec, base, base.make_config(2)).shape_args
    return shapes


def _knob_axes(base):
    """The float knobs that apply to ``base``, and one integer knob."""
    if base.device_type.is_bit_serial:
        return (), ("bitserial_num_registers", (4, 8))
    return ("pe_freq_mhz",), ("pe_width_bits", (32, 64))


_positive = st.floats(0.5, 5000.0, allow_nan=False, allow_infinity=False)


@st.composite
def _knob_points(draw):
    """A base backend and P derived knob dicts over 1-2 integer values."""
    base = draw(st.sampled_from([b for b in BACKENDS if not b.transient]))
    floats, (int_knob, int_pool) = _knob_axes(base)
    ints = draw(st.lists(st.sampled_from(int_pool), min_size=1,
                         max_size=2, unique=True))
    dicts = []
    for _ in range(draw(st.integers(1, 6))):
        knobs = {name: draw(_positive) for name in floats}
        knobs["alu_op_pj"] = draw(st.floats(0.0, 10.0, allow_nan=False))
        knobs[int_knob] = draw(st.sampled_from(ints))
        dicts.append(knobs)
    return base, dicts


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


class TestKnobVector:
    """One cost_of/command_energy pass over a knob vector equals P passes.

    ``unit_costs`` prices every integer-knob sub-group of a geometry
    group in one ``cost_table`` call whose models carry the float knobs
    as float64 arrays; each point's row must bit-equal the one-point
    pipeline a scalar device builds for that point.
    """

    @settings(max_examples=60, deadline=None)
    @given(_knob_points())
    def test_group_table_bit_equals_per_point_pipelines(self, case):
        from repro.arch import derive_backend, temporary_backend
        from repro.energy.model import EnergyModel
        from repro.perf.memo import CostPipeline

        base, dicts = case
        shapes = _real_shapes(base.id)
        backends = [derive_backend(base, knobs) for knobs in dicts]
        points = [(backend, backend.make_config(2)) for backend in backends]
        with contextlib.ExitStack() as stack:
            for backend in backends:
                stack.enter_context(temporary_backend(backend))
            unit = plans.unit_costs(shapes, points)
            for row, (backend, config) in enumerate(points):
                pipeline = CostPipeline(
                    backend.make_perf_model(config), EnergyModel(config),
                    backend, enabled=False,
                )
                for column, args in enumerate(shapes):
                    cost, energy = pipeline.cost_and_energy(args)
                    expected = (
                        cost.latency_ns, energy.execution_nj,
                        energy.background_nj,
                    ) + tuple(getattr(cost, name) for name in EVENT_FIELDS)
                    assert _bits(unit[:, row, column]) == _bits(expected), (
                        f"{backend.id} point {row} shape {column}"
                    )

    def test_negative_latency_raises_on_the_array_path(self):
        from repro.perf.base import CmdCost

        CmdCost(latency_ns=np.array([0.0, 2.5]))
        for latency in (np.array([1.0, -1e-9, 3.0]), np.float64(-1.0), -1.0):
            with pytest.raises(ValueError, match="non-negative"):
                CmdCost(latency_ns=latency)

    def test_one_point_hands_cost_of_python_floats(self, monkeypatch):
        from repro.arch import derive_backend, temporary_backend
        from repro.energy.model import EnergyModel
        from repro.perf.banklevel import BankLevelPerfModel

        seen = []
        cost_of = BankLevelPerfModel.cost_of
        command_energy = EnergyModel.command_energy

        def spy_cost(model, args):
            seen.append(type(model.config.arch.bank_alu_freq_mhz))
            return cost_of(model, args)

        def spy_energy(model, cost):
            seen.append(type(model._alu_op_pj()))
            seen.append(type(cost.latency_ns))
            return command_energy(model, cost)

        monkeypatch.setattr(BankLevelPerfModel, "cost_of", spy_cost)
        monkeypatch.setattr(EnergyModel, "command_energy", spy_energy)
        backend = derive_backend("bank", {"pe_freq_mhz": 250.0,
                                          "alu_op_pj": 0.3})
        config = backend.make_config(2)
        with temporary_backend(backend):
            plan = compile_plan(self._cell(backend), backend, config)
            synthesize(plan, [(backend, config)])
        assert seen and set(seen) == {float}

    def _cell(self, backend):
        return CellSpec(
            "kmeans", backend.device_type, 2, paper_scale=False,
            enforce_capacity=False, vector=True,
        )


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
