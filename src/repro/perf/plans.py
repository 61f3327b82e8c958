"""Pricing plans: one recording, laid out per target, priced under any
number of cost tables.

A vectorized cell (docs/VECTORIZATION.md) splits into three phases with
very different costs:

* **record** -- :func:`compile_plan` runs the benchmark's Python issue
  loop once per (benchmark, params) against a
  :class:`~repro.perf.record.Recorder` and keeps the target-independent
  :class:`~repro.perf.record.Recording`;
* **lay out** -- :func:`layout_plan` maps the recording onto one target:
  each operand class is planned once and each call site becomes its
  interned (shape, bucket, kind) once, so the result -- a
  :class:`PricingPlan`, the logs a live vector-mode device would have
  exported -- costs a few table lookups and one numpy gather;
* **price** -- evaluate the distinct shapes through the backend's cost
  table and reconstruct the accumulator totals with numpy.

:func:`price_plan` is the one analytic pricer: it prices a plan under P
cost tables and returns P rows of accumulator totals;
:func:`plan_result` reads a row into the
:class:`~repro.bench.common.BenchmarkResult` a scalar run returns.  A
design-space sweep (:mod:`repro.dse.batch`) lays each benchmark's
recording out once per geometry group and prices every point of the
group in one pass, a table of rows it mostly reads as columns
(:meth:`PlanTotals.kernel_host_columns`); a vectorized cell
(:func:`repro.engine.cells.run_cell`) is the one-point case, and
:func:`synthesize` also gives it its row's tracker.

The API stream depends only on the benchmark parameters, so recordings
are kept in a small in-process memo (:func:`recording_for`) and, for
sweeps, in the plan store under :func:`recording_key`, which holds no
device.  Only the layout depends on the target's *geometry* (bank,
subarray, row and column counts, core scope), never on the cost-model
knobs (ALU width and clock, per-op energy) that most sweep axes vary,
so a sweep lays a recording out once per geometry group.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from collections import OrderedDict

import numpy as np

from repro.arch.parametric import ARCH_KNOBS
from repro.core.stats import (
    COPY_DIRECTIONS,
    CmdStats,
    CopyStats,
    EventCounts,
    StatsSnapshot,
    StatsTracker,
)

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.base import ArchBackend
    from repro.bench.common import BenchmarkResult
    from repro.config.device import DeviceConfig
    from repro.core.layout import ObjectLayout
    from repro.engine.cells import CellSpec
    from repro.perf.record import Recording

#: PimArchParams fields that only affect command *pricing*, never how a
#: recording lays out: no resource-manager, layout, or data-movement
#: code reads them (they feed the perf/energy models exclusively), so
#: two configs differing only here share one plan.
#: ``fulcrum_subarrays_per_core`` is deliberately absent: it determines
#: the device's core count, which shapes the layout.
COST_ONLY_ARCH_FIELDS = (
    "fulcrum_alu_bits",
    "fulcrum_alu_freq_mhz",
    "bank_alu_bits",
    "bank_alu_freq_mhz",
)

#: The float-typed cost-only fields (the clocks).  A sweep's points
#: that differ only in these (and in the ALU energy constant) price in
#: one vectorized pass; see :func:`_knob_pipelines`.
FLOAT_COST_FIELDS = tuple(
    field for field in COST_ONLY_ARCH_FIELDS if ARCH_KNOBS.get(field) is float
)

#: EventCounts fields, in declaration order (= CostTable column order).
EVENT_FIELDS = tuple(field.name for field in dataclasses.fields(EventCounts))

#: Cost-table value fields, in the order :func:`price_plan` prices them.
VALUE_FIELDS = ("latency_ns", "execution_nj", "background_nj") + EVENT_FIELDS

#: Copy-direction order of a plan's ``copy_dir`` column.
DIRECTIONS = tuple(COPY_DIRECTIONS)

#: Soft cap, in float64 elements (~128 MiB), on each pricing buffer:
#: a chunk of expanded entries x distinct cost rows, and the gathered
#: addends of a block of distinct rows.  Purely a memory bound: each
#: chunk carries the running totals in as its first row, so the adds
#: happen in the same order and chunking cannot change a bit.
_SLAB_ELEMENTS = 16_000_000


@dataclasses.dataclass(frozen=True, eq=False)
class PricingPlan:
    """One laid-out histogram, ready to re-price under any cost table.

    The log columns a :class:`~repro.perf.vector.VectorStatsTracker`
    exports (replays already extended in place), plus the interned
    shape/bucket/kind tables, as :func:`layout_plan` builds them from a
    recording.  The copy and host logs are pre-priced: data movement
    prices off the DRAM spec and host energy off the host TDP, both
    fixed within a geometry group.  The benchmark identity and the
    device-independent CPU/GPU baselines come from the recording, for
    :func:`plan_result`.
    """

    #: Representative CommandArgs per distinct shape, in shape order.
    shape_args: "tuple[typing.Any, ...]"
    bucket_names: "tuple[str, ...]"
    kind_objs: "tuple[typing.Any, ...]"
    # Command-log columns (int64, one entry per issue event).
    cmd_shape: np.ndarray
    cmd_bucket: np.ndarray
    cmd_kind: np.ndarray
    cmd_mult: np.ndarray
    cmd_batch: np.ndarray
    # Pre-priced copy log.
    copy_dir: np.ndarray
    copy_bytes: np.ndarray
    copy_latency: np.ndarray
    copy_energy: np.ndarray
    # Pre-priced host log.
    host_time: np.ndarray
    host_energy: np.ndarray
    benchmark_key: str = ""
    benchmark_name: str = ""
    # Device-independent roofline baselines (verbatim per point).
    cpu_time_ns: float = 0.0
    cpu_energy_nj: float = 0.0
    gpu_time_ns: float = 0.0
    gpu_energy_nj: float = 0.0


@dataclasses.dataclass(frozen=True)
class PlanTotals:
    """One plan priced under P cost tables: P rows of accumulator totals.

    Only the float command totals depend on the cost table, so only
    they have one row per table; the integer censuses and the
    pre-priced copy and host totals are shared by every row.
    """

    #: Per-signature buckets in first-occurrence order, with counts.
    bucket_names: "tuple[str, ...]"
    bucket_counts: "tuple[int, ...]"
    #: Command kind -> issue count, in first-occurrence order.
    op_counts: "dict[typing.Any, int]"
    latency_ns: np.ndarray  # (P, buckets)
    energy_nj: np.ndarray  # (P, buckets)
    background_nj: np.ndarray  # (P,)
    events: np.ndarray  # (P, len(EVENT_FIELDS))
    #: Copy directions the plan moved data in (absent = zero).
    copies: "dict[str, CopyStats]"
    host_time_ns: float
    host_energy_nj: float

    def snapshot(self, row: int) -> StatsSnapshot:
        """Row ``row``'s totals, bit-equal to ``self.tracker(row).snapshot()``.

        Folded by :meth:`~repro.core.stats.StatsSnapshot.of`, the
        tracker's own formula, without building the tracker.
        """
        return StatsSnapshot.of(
            self.latency_ns[row].tolist(),
            self.energy_nj[row].tolist(),
            [self.copies.get(direction, CopyStats())
             for direction in DIRECTIONS],
            float(self.background_nj[row]),
            self.host_time_ns,
            self.host_energy_nj,
            EventCounts(*self.events[row].tolist()),
        )

    def kernel_host_columns(self) -> "tuple[list[float], list[float]]":
        """Every row's kernel+host latency and kernel+background+host energy.

        Bit-equal, row by row, to ``pim_kernel_host_time_ns`` and
        ``pim_kernel_host_energy_nj`` of the row's :func:`plan_result`,
        without building the snapshot or the result: the same builtin
        ``sum`` over the same per-bucket lists as
        :meth:`~repro.core.stats.StatsSnapshot.of`, then the same terms
        in the same order as the properties.  Never a numpy reduction:
        it adds in another order, and from CPython 3.12 the builtin
        ``sum`` of floats is compensated.
        """
        host_time, host_energy = self.host_time_ns, self.host_energy_nj
        latency = [sum(row) + host_time for row in self.latency_ns.tolist()]
        energy = [
            sum(row) + background + host_energy
            for row, background in zip(
                self.energy_nj.tolist(), self.background_nj.tolist()
            )
        ]
        return latency, energy

    def category_counts(self) -> "dict[typing.Any, int]":
        """Issue counts by op category, in first-occurrence order.

        Point-independent: every row issues the same integer command
        counts.  A result's ``op_counts``.
        """
        counts: "dict" = {}
        for kind, count in self.op_counts.items():
            if count:
                counts[kind.category] = counts.get(kind.category, 0) + count
        return counts

    def tracker(self, row: int) -> StatsTracker:
        """Row ``row`` as a plain :class:`~repro.core.stats.StatsTracker`.

        Only a single vectorized cell (whose tracker is cached and
        renders Listing 3) and an oracle-checked sweep cell need one; a
        sweep reads :meth:`snapshot` rows.
        """
        fields: "dict[str, typing.Any]" = {
            "commands": OrderedDict(
                (name, CmdStats(count, latency, energy))
                for name, count, latency, energy in zip(
                    self.bucket_names,
                    self.bucket_counts,
                    self.latency_ns[row].tolist(),
                    self.energy_nj[row].tolist(),
                )
            ),
            "op_counts": dict(self.op_counts),
            "background_energy_nj": float(self.background_nj[row]),
            "events": EventCounts(*self.events[row].tolist()),
            "host_time_ns": self.host_time_ns,
            "host_energy_nj": self.host_energy_nj,
        }
        for direction, attr in COPY_DIRECTIONS.items():
            # A fresh CopyStats per row: the rows' trackers stay mutable
            # and must not share accumulators.
            stats = self.copies.get(direction)
            fields[attr] = dataclasses.replace(stats) if stats else CopyStats()
        tracker = StatsTracker()
        vars(tracker).update(fields)
        return tracker


def _first_occurrence_order(values: np.ndarray) -> np.ndarray:
    """Distinct values of ``values`` in order of first appearance."""
    uniq, first = np.unique(values, return_index=True)
    return uniq[np.argsort(first, kind="stable")]


def _column_sums(
    addends: np.ndarray, reps: "np.ndarray | None" = None
) -> np.ndarray:
    """Exact top-to-bottom float sums of each column: ``(E, K) -> (K,)``.

    ``reps[e]`` replicates row ``e`` that many times (iterated addition,
    the ``execute_batch`` contract; ``None`` means once each).
    ``np.add.accumulate`` is *defined* as the sequential reduction, and
    down axis 0 each step is one add across the K columns;
    ``np.sum``/``np.add.reduce`` use pairwise summation and would differ
    from the scalar path in the last ulp.  The expanded rows are walked
    in chunks of at most ``_SLAB_ELEMENTS // K`` rows, each carrying the
    running totals in as its first row (``0.0 + x`` on the first, as the
    scalar accumulator adds it: ``-0.0`` becomes ``0.0``).

    Consumes ``addends``: without ``reps`` the running sums are
    accumulated in place, overwriting its rows.  Every caller passes an
    array (or a slice of one) it built for the call and reads no more.
    """
    entries, width = addends.shape
    step = max(1, _SLAB_ELEMENTS // max(1, width))
    ends = None if reps is None else np.cumsum(reps)
    expanded = entries if reps is None else int(reps.sum())
    total = np.zeros(width, dtype=np.float64)
    for start in range(0, expanded, step):
        stop = min(expanded, start + step)
        if ends is None:
            chunk = addends[start:stop]
        else:
            # The entries overlapping [start, stop), each clipped to it.
            first = int(np.searchsorted(ends, start, side="right"))
            last = int(np.searchsorted(ends, stop, side="left")) + 1
            counts = (
                np.minimum(ends[first:last], stop)
                - np.maximum(ends[first:last] - reps[first:last], start)
            )
            chunk = np.repeat(addends[first:last], counts, axis=0)
        chunk[0] += total
        total = np.add.accumulate(chunk, axis=0, out=chunk)[-1].copy()
        del chunk  # freed before the next chunk is built
    return total


def _distinct_rows(rows: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """The bytewise-distinct rows of ``rows`` and each row's index in them."""
    slots: "dict[bytes, int]" = {}
    inverse = np.array(
        [slots.setdefault(row.tobytes(), len(slots)) for row in rows],
        dtype=np.intp,
    )
    distinct = np.empty((len(slots), rows.shape[1]), dtype=rows.dtype)
    distinct[inverse] = rows
    return distinct, inverse


def _segment_sums(
    rows: np.ndarray,
    shape: np.ndarray,
    scale: np.ndarray,
    reps: np.ndarray,
    segments: "list[tuple[int, int]]",
) -> np.ndarray:
    """Sum each unit-cost row over each entry segment: ``(segments, K)``.

    Log entry ``e`` adds ``rows[k, shape[e]] * scale[e]``, ``reps[e]``
    times.  Two bytewise-identical rows expand to the same addend
    sequence, so only the distinct rows are summed and their sums are
    scattered back.  Distinct rows are gathered in blocks of at most
    ``_SLAB_ELEMENTS`` addends; a block is scaled only where some
    ``scale`` is not 1.0 (``x * 1.0`` is ``x``, bit for bit).
    """
    distinct, inverse = _distinct_rows(rows)
    if bool(np.all(reps == 1)):
        reps = None
    scaled = not bool(np.all(scale == 1.0))
    sums = np.empty((len(segments), len(distinct)), dtype=np.float64)
    block = max(1, _SLAB_ELEMENTS // max(1, len(shape)))
    for low in range(0, len(distinct), block):
        # Gathered fresh: _column_sums consumes each segment of it.
        addends = np.ascontiguousarray(distinct[low:low + block].T)[shape]
        if scaled:
            addends *= scale[:, None]
        for index, (start, stop) in enumerate(segments):
            sums[index, low:low + block] = _column_sums(
                addends[start:stop], None if reps is None else reps[start:stop]
            )
    return sums[:, inverse]


def price_plan(plan: PricingPlan, unit: np.ndarray) -> PlanTotals:
    """Price ``plan`` under P cost tables: the one analytic pricer.

    ``unit`` holds the unit costs, ``(len(VALUE_FIELDS), P, shapes)``
    float64: ``unit[f, p, i]`` is field ``VALUE_FIELDS[f]`` of issuing
    shape ``i`` once at point ``p`` (what :func:`unit_costs` gathers
    from ``cost_table``).  Row ``p`` of the result is bit-identical to
    the scalar :class:`~repro.core.stats.StatsTracker` that issued the
    plan's commands priced by ``unit[:, p]``: every float accumulator is
    rebuilt from the scalar path's exact addend sequence by
    :func:`_column_sums`, once per bytewise-distinct cost row
    (:func:`_segment_sums`).
    """
    fields, points, shapes = unit.shape
    if fields != len(VALUE_FIELDS) or shapes != len(plan.shape_args):
        raise ValueError(
            f"unit costs of shape {unit.shape} do not price "
            f"{len(VALUE_FIELDS)} fields of {len(plan.shape_args)} shapes"
        )

    mult = plan.cmd_mult
    batch = plan.cmd_batch.astype(bool)
    # Scalar billing semantics:
    #   execute(repeat=r): ONE add of value*r        (pre-multiplied)
    #   execute_batch(count=c): c iterated adds of value
    scale = np.where(batch, 1.0, mult.astype(np.float64))
    reps = np.where(batch, mult, 1)

    # Integer censuses: order-independent, exact int64 scatter-adds.
    bucket_counts = np.zeros(len(plan.bucket_names), dtype=np.int64)
    np.add.at(bucket_counts, plan.cmd_bucket, mult)
    kind_counts = np.zeros(len(plan.kind_objs), dtype=np.int64)
    np.add.at(kind_counts, plan.cmd_kind, mult)

    # Latency and execution energy are summed per bucket: one stable
    # sort makes each bucket a contiguous run in log order (narrow keys
    # take numpy's radix sort).
    keys = plan.cmd_bucket.astype(
        np.min_scalar_type(max(0, len(plan.bucket_names) - 1))
    )
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    boundary = np.ones(len(keys), dtype=bool)
    boundary[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(boundary)
    stops = np.append(starts[1:], len(keys))
    rank = np.argsort(order[starts])  # buckets in first-occurrence order
    buckets = keys[starts][rank].tolist()
    bucketed = _segment_sums(
        unit[:2].reshape(2 * points, shapes),
        plan.cmd_shape[order], scale[order], reps[order],
        list(zip(starts[rank].tolist(), stops[rank].tolist())),
    )
    # Background energy, then the event census, over the whole log.
    totals = np.ascontiguousarray(_segment_sums(
        unit[2:].reshape((len(VALUE_FIELDS) - 2) * points, shapes),
        plan.cmd_shape, scale, reps, [(0, len(plan.cmd_shape))],
    ).reshape(len(VALUE_FIELDS) - 2, points).T)

    # Copies and host: pre-priced and table-independent; each pair of
    # float columns is summed as two columns of one call.
    copy_pairs = np.stack((plan.copy_latency, plan.copy_energy), axis=1)
    copies: "dict[str, CopyStats]" = {}
    for index, direction in enumerate(DIRECTIONS):
        mask = plan.copy_dir == index
        if bool(np.any(mask)):
            lat, en = _column_sums(copy_pairs[mask]).tolist()
            copies[direction] = CopyStats(
                int(plan.copy_bytes[mask].sum()), lat, en
            )
    host_time, host_energy = _column_sums(
        np.stack((plan.host_time, plan.host_energy), axis=1)
    ).tolist()
    return PlanTotals(
        bucket_names=tuple(plan.bucket_names[b] for b in buckets),
        bucket_counts=tuple(int(bucket_counts[b]) for b in buckets),
        op_counts={
            plan.kind_objs[kind]: int(kind_counts[kind])
            for kind in _first_occurrence_order(plan.cmd_kind).tolist()
        },
        latency_ns=np.ascontiguousarray(bucketed[:, :points].T),
        energy_nj=np.ascontiguousarray(bucketed[:, points:].T),
        background_nj=totals[:, 0],
        events=totals[:, 1:],
        copies=copies,
        host_time_ns=host_time,
        host_energy_nj=host_energy,
    )


def _knob_pipelines(
    points: "typing.Sequence[tuple[ArchBackend, DeviceConfig]]",
) -> "typing.Iterator[tuple[list[int], ArchBackend, typing.Any]]":
    """One cost pipeline per integer-knob sub-group of ``points``.

    Points whose backends share a base and whose configs differ only in
    :data:`FLOAT_COST_FIELDS` (and in the ALU energy constant their
    backends supply) share one pipeline whose float knobs are float64
    arrays in point order, so the *same* ``cost_of``/``command_energy``
    code prices all of them in one pass: ``+``, ``*`` and ``/`` on
    float64 arrays are the IEEE operations on Python floats, element by
    element and in the same order.  Integer knobs feed ``max``, ``//``
    and ``math.ceil``, so they stay Python ints and split the
    sub-groups.  A one-point sub-group keeps its plain floats: a single
    cell runs exactly the scalar device's code.

    Yields ``(point indices, backend, pipeline)``.  The pipeline is the
    stack a :class:`~repro.core.device.PimDevice` would build; the
    shapes are distinct, so its memo never hits.  Dispatch shortcuts
    only, never value shortcuts: each backend is exactly what
    ``arch_for(config)`` resolves (a derived backend resolves to itself
    while it lives), so its factory and its ``alu_op_pj`` give the
    objects and values the device would use.
    """
    from repro.config.power import PowerConfig
    from repro.energy.model import EnergyModel
    from repro.perf.memo import CostPipeline

    subgroups: "dict[typing.Hashable, list[int]]" = {}
    for index, (backend, config) in enumerate(points):
        arch = config.arch
        key = (
            getattr(backend, "base", backend),
            config.dram,
            tuple(
                getattr(arch, field.name)
                for field in dataclasses.fields(arch)
                if field.name not in FLOAT_COST_FIELDS
            ),
        )
        subgroups.setdefault(key, []).append(index)
    power = PowerConfig()
    for rows in subgroups.values():
        backend, config = points[rows[0]]
        alu_op_pj = backend.alu_op_pj(power)
        if len(rows) > 1:
            config = dataclasses.replace(config, arch=dataclasses.replace(
                config.arch, **{
                    field: np.array(
                        [getattr(points[row][1].arch, field) for row in rows],
                        dtype=np.float64,
                    )
                    for field in FLOAT_COST_FIELDS
                },
            ))
            alu_op_pj = np.array(
                [points[row][0].alu_op_pj(power) for row in rows],
                dtype=np.float64,
            )
        yield rows, backend, CostPipeline(
            backend.make_perf_model(config),
            EnergyModel(config, power, alu_op_pj=alu_op_pj),
            backend,
            points=len(rows),
        )


def unit_costs(
    shapes: "tuple[typing.Any, ...]",
    points: "typing.Sequence[tuple[ArchBackend, DeviceConfig]]",
) -> np.ndarray:
    """``(len(VALUE_FIELDS), len(points), len(shapes))`` unit costs.

    One ``cost_table`` call per integer-knob sub-group of the points
    (:func:`_knob_pipelines`), its ``(sub-group, shapes)`` columns
    scattered back into point order: what :func:`price_plan` takes.
    """
    unit = np.zeros((len(VALUE_FIELDS), len(points), len(shapes)))
    if not shapes:
        return unit
    for rows, backend, pipeline in _knob_pipelines(points):
        table = backend.cost_table(pipeline, shapes)
        for field, name in enumerate(VALUE_FIELDS):
            column = getattr(table, name)
            if column.shape != (len(rows), len(shapes)):
                raise ValueError(
                    f"cost_table returned {name} of shape {column.shape} "
                    f"for {len(rows)} point(s) x {len(shapes)} shapes"
                )
            unit[field, rows] = column
    return unit


def plan_result(
    plan: PricingPlan, totals: PlanTotals, row: int, device_type: typing.Any
) -> "BenchmarkResult":
    """Row ``row`` of ``totals`` as the result a scalar run would return.

    What :meth:`repro.bench.common.PimBenchmark.run` on a device of
    ``device_type`` returns: the row's snapshot (the delta against a
    fresh tracker, every float bit), the op census by category in
    first-occurrence order, and the CPU/GPU baselines.
    """
    from repro.bench.common import BenchmarkResult

    return BenchmarkResult(
        benchmark=plan.benchmark_name,
        device_type=device_type,
        stats=totals.snapshot(row),
        op_counts=totals.category_counts(),
        cpu_time_ns=plan.cpu_time_ns,
        cpu_energy_nj=plan.cpu_energy_nj,
        gpu_time_ns=plan.gpu_time_ns,
        gpu_energy_nj=plan.gpu_energy_nj,
        verified=None,
    )


def synthesize(
    plan: PricingPlan,
    points: "typing.Sequence[tuple[ArchBackend, DeviceConfig]]",
) -> "list[tuple[BenchmarkResult, StatsTracker]]":
    """Price ``plan`` at each point: each row's result and tracker.

    A single vectorized cell's outcome (:func:`repro.engine.cells.
    run_cell`); the plain tracker pickles and caches like a scalar one.
    """
    totals = price_plan(plan, unit_costs(plan.shape_args, points))
    rows = []
    for row, (_backend, config) in enumerate(points):
        result = plan_result(plan, totals, row, config.device_type)
        tracker = totals.tracker(row)
        # Share the immutable census, as a scalar run's result and
        # tracker do, so the cached outcome pickles as compactly.
        tracker.events = result.stats.events
        rows.append((result, tracker))
    return rows


def compile_plan(spec: "CellSpec") -> "Recording":
    """Run one benchmark's issue loop and keep its recording.

    The one place a vectorized cell or a sweep runs a benchmark's
    Python issue loop: once per (benchmark, params), whatever the
    target.  :func:`layout_plan` turns the recording into any target's
    :class:`PricingPlan`.
    """
    from repro.perf.record import record

    return record(spec.benchmark_key, spec.make_benchmark())


#: In-process recordings, keyed by benchmark class and parameter scale,
#: oldest first.  Bounded: a long-lived serve worker sees every
#: benchmark at two scales at most, a sweep a handful.
_RECORDINGS: "dict[tuple, Recording]" = {}
_RECORDINGS_MAX = 64


def recording_for(spec: "CellSpec") -> "Recording":
    """``spec``'s recording: from the in-process memo, or compiled once."""
    from repro.engine.cells import resolve_benchmark_class

    key = (resolve_benchmark_class(spec.benchmark_key), spec.paper_scale)
    recording = _RECORDINGS.get(key)
    if recording is None:
        recording = compile_plan(spec)
        if len(_RECORDINGS) >= _RECORDINGS_MAX:
            del _RECORDINGS[next(iter(_RECORDINGS))]
        _RECORDINGS[key] = recording
    return recording


def recording_key(spec: "CellSpec") -> str:
    """Content hash of ``spec``'s recording in the sweep's plan store.

    Keyed by what the recording depends on: the benchmark and its
    merged params, :data:`~repro.perf.record.RECORDING_SCHEMA`, and the
    :func:`~repro.engine.version.recording_stamp` of the benchmark, the
    common model and the recorder sources.  No device: one recording
    serves every target.
    """
    from repro.engine.cache import _canonical
    from repro.engine.version import recording_stamp
    from repro.perf.record import RECORDING_SCHEMA

    material = {
        "recording_schema": RECORDING_SCHEMA,
        "stamp": recording_stamp(spec.benchmark_key),
        "benchmark": spec.benchmark_key,
        "params": _canonical(spec.make_benchmark().params),
    }
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _check_compatible(layouts: "list[ObjectLayout]") -> None:
    """``ResourceManager.check_layout_compatible`` on laid-out operands."""
    from repro.core.errors import PimTypeError

    first = layouts[0]
    for layout in layouts[1:]:
        if layout.num_elements != first.num_elements:
            raise PimTypeError(
                f"operand element counts differ: {layout.num_elements} "
                f"vs {first.num_elements}"
            )
        if layout.layout is not first.layout:
            raise PimTypeError("operand layouts differ (horizontal vs vertical)")


def _replay_rows(
    recording: "Recording", config: "DeviceConfig", stop: int
) -> None:
    """Replay the alloc/free stream through the capacity-checked allocator.

    Raises the :class:`~repro.core.errors.PimAllocationError` a live
    device would raise, at the same allocation; only events before
    issue ``stop`` are replayed.
    """
    from repro.core.layout import RowAllocator, plan_layout

    rows = RowAllocator(config.rows_per_core, True)
    checked: "dict[int, ObjectLayout]" = {}
    for issues_before, cls, obj_id in recording.allocs.tolist():
        if issues_before > stop:
            return
        if cls < 0:
            rows.free(obj_id)
            continue
        layout = checked.get(cls)
        if layout is None:
            num_elements, dtype, request = recording.classes[cls]
            layout = checked[cls] = plan_layout(
                config, num_elements, dtype.bits, request,
                enforce_capacity=True,
            )
        rows.allocate(obj_id, layout.rows_per_core)


def layout_plan(
    recording: "Recording",
    backend: "ArchBackend",
    config: "DeviceConfig",
    enforce_capacity: bool,
) -> PricingPlan:
    """Lay ``recording`` out on one target: the plan a live run exports.

    Bit-identical in every field to what a ``vector=True``
    :class:`~repro.core.device.PimDevice` on ``config`` records for the
    same program.  Each operand class is planned once; each site
    becomes its (shape, bucket, kind) once, interned by the key the
    live device and the cost memo use, in first-issue order; the
    command columns are one gather of the site table by the issue
    column.  Copies and host kernels are priced per event on the
    target.  Under ``enforce_capacity`` the alloc/free stream replays
    through the row allocator, so an overcommitted target raises the
    live device's :class:`~repro.core.errors.PimAllocationError`; a
    site whose operand layouts clash on this target raises its
    :class:`~repro.core.errors.PimTypeError`, whichever comes first.
    The plan shares the recording's repeat, batch and host-time
    columns; nothing writes to a plan's arrays.
    """
    from repro.config.device import PimAllocType
    from repro.core.errors import PimTypeError
    from repro.core.layout import plan_layout
    from repro.energy.model import EnergyModel
    from repro.perf import DataMovementModel
    from repro.perf.base import CommandArgs
    from repro.perf.record import COPY_D2H, COPY_H2D

    layouts = [
        plan_layout(config, num_elements, dtype.bits, request,
                    enforce_capacity=False)
        for num_elements, dtype, request in recording.classes
    ]
    shape_ids: "dict[tuple, int]" = {}
    shape_args: "list[CommandArgs]" = []
    bucket_ids: "dict[str, int]" = {}
    kind_ids: "dict[typing.Any, int]" = {}
    site_rows: "list[tuple[int, int, int]]" = []
    clash: "PimTypeError | None" = None
    for kind, scalar, inputs, dest in recording.sites:
        operands = tuple(layouts[cls] for cls in inputs)
        dest_layout = None if dest is None else layouts[dest]
        if dest_layout is not None:
            try:
                _check_compatible(list(operands[-2:]) + [dest_layout])
            except PimTypeError as exc:
                clash = exc
                break
        anchor = inputs[-1] if inputs else dest
        dtype = recording.classes[anchor][1]
        args = CommandArgs(
            kind=kind, bits=dtype.bits, inputs=operands, dest=dest_layout,
            scalar=scalar, signed=dtype.signed,
        )
        shape_key = (
            kind, args.bits, args.signed, backend.cost_memo_param(args),
            operands, dest_layout,
        )
        shape = shape_ids.setdefault(shape_key, len(shape_ids))
        if shape == len(shape_args):
            shape_args.append(args)
        letter = (
            "v" if layouts[anchor].layout is PimAllocType.VERTICAL else "h"
        )
        site_rows.append((
            shape,
            bucket_ids.setdefault(
                f"{kind.api_name}.{dtype.numpy_name}.{letter}",
                len(bucket_ids),
            ),
            kind_ids.setdefault(kind, len(kind_ids)),
        ))
    if clash is not None or enforce_capacity:
        # The clashing site fails at its first issue, unless an earlier
        # allocation already overflowed.
        stop = len(recording.issue_site)
        if clash is not None:
            stop = int(np.argmax(recording.issue_site == len(site_rows)))
        if enforce_capacity:
            _replay_rows(recording, config, stop)
        if clash is not None:
            raise clash

    site = np.array(site_rows, dtype=np.int64).reshape(-1, 3)
    cmd_shape, cmd_bucket, cmd_kind = np.take(
        site.T, recording.issue_site, axis=1
    )

    movement = DataMovementModel(config)
    energy = EnergyModel(config)
    latency_of = (
        movement.host_transfer_ns, movement.host_transfer_ns,
        movement.device_transfer_ns, movement.device_gather_ns,
    )
    priced: "dict[tuple[int, int, int], tuple]" = {}
    copy_rows = []
    for event in recording.copies.tolist():
        row = priced.get(tuple(event))
        if row is None:
            method, num_bytes, repeat = event
            direction = (
                "h2d" if method == COPY_H2D
                else "d2h" if method == COPY_D2H else "d2d"
            )
            row = priced[tuple(event)] = (
                DIRECTIONS.index(direction),
                num_bytes * repeat,
                latency_of[method](num_bytes) * repeat,
                energy.transfer_energy_nj(num_bytes, direction) * repeat,
            )
        copy_rows.append(row)
    copies = list(zip(*copy_rows)) or [(), (), (), ()]
    return PricingPlan(
        shape_args=tuple(shape_args),
        bucket_names=tuple(bucket_ids),
        kind_objs=tuple(kind_ids),
        cmd_shape=cmd_shape,
        cmd_bucket=cmd_bucket,
        cmd_kind=cmd_kind,
        cmd_mult=recording.issue_repeat,
        cmd_batch=recording.issue_batch,
        copy_dir=np.array(copies[0], dtype=np.int64),
        copy_bytes=np.array(copies[1], dtype=np.int64),
        copy_latency=np.array(copies[2], dtype=np.float64),
        copy_energy=np.array(copies[3], dtype=np.float64),
        host_time=recording.host_time,
        host_energy=np.array(
            [energy.host_energy_nj(time) for time in recording.host_time.tolist()],
            dtype=np.float64,
        ),
        benchmark_key=recording.benchmark_key,
        benchmark_name=recording.benchmark_name,
        cpu_time_ns=recording.cpu_time_ns,
        cpu_energy_nj=recording.cpu_energy_nj,
        gpu_time_ns=recording.gpu_time_ns,
        gpu_energy_nj=recording.gpu_energy_nj,
    )


def plan_for(
    spec: "CellSpec", backend: "ArchBackend", config: "DeviceConfig"
) -> PricingPlan:
    """One vectorized cell's plan: its recording, laid out on its target."""
    return layout_plan(
        recording_for(spec), backend, config, spec.enforce_capacity
    )
