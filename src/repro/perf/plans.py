"""Pricing plans: one histogram, priced under any number of cost tables.

A vectorized cell (docs/VECTORIZATION.md) splits into two phases with
very different costs:

* **compile** -- run the benchmark against a vector-mode device to
  *record* the shape histogram: every ``execute`` call still goes
  through Python, but nothing is priced;
* **price** -- evaluate the distinct shapes through the backend's cost
  table and reconstruct the accumulator totals with numpy: microseconds.

The compile product is a :class:`PricingPlan`: the command, copy and
host logs of a :class:`~repro.perf.vector.VectorStatsTracker`
plus its interned shape/bucket/kind tables.  :func:`price_plan` is the
one analytic pricer: it prices a plan under P cost tables and returns P
rows of accumulator totals.  :func:`synthesize` is the one outcome
builder on top of it: a vectorized cell is the one-point case
(:func:`repro.engine.cells.run_cell`), and a design-space sweep
(:mod:`repro.dse.batch`) compiles one plan per geometry group and
synthesizes every point of the group at once.

The command trace -- which shapes are issued, how many times, in what
order -- depends only on the benchmark parameters and the *geometry* of
the device (bank/subarray/row/column counts, core scope), never on the
cost-model knobs (ALU width and clock, walker count, per-op energy)
that most sweep axes vary.  Plans are therefore content-addressed by
benchmark + geometry signature, so one compile serves every point in a
geometry group.

The geometry signature is the canonical device config *minus* the
cost-only :class:`~repro.config.device.PimArchParams` fields and minus
the device-type identity (two parametric variants that differ only in
ALU width share a trace; their device types differ).  Behavioral traits
that select code paths -- core scope, bit-serial, analog -- stay in the
signature, as does ``fulcrum_subarrays_per_core``, which feeds the
device's core count.

Plan-cache entries are stamped with :func:`repro.engine.version.
vector_stamp` (this module + the vector engine), the same digest every
vectorized cell key carries.
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
    StatsTracker,
)

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.base import ArchBackend
    from repro.bench.common import BenchmarkResult
    from repro.config.device import DeviceConfig
    from repro.engine.cells import CellSpec
    from repro.perf.vector import CostTable

#: Layout version of the pickled plan payload.
PLAN_SCHEMA = 3

#: PimArchParams fields that only affect command *pricing*, never which
#: commands a benchmark issues: no benchmark, resource-manager, layout,
#: or data-movement code reads them (they feed the perf/energy models
#: exclusively), so two configs differing only here share one trace.
#: ``fulcrum_subarrays_per_core`` is deliberately absent: it determines
#: the device's core count, which shapes the trace.
COST_ONLY_ARCH_FIELDS = (
    "bitserial_num_registers",
    "fulcrum_alu_bits",
    "fulcrum_alu_freq_mhz",
    "fulcrum_num_walkers",
    "bank_alu_bits",
    "bank_alu_freq_mhz",
    "bank_num_walkers",
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
    """One compiled histogram, ready to re-price under any cost table.

    The log columns of a :class:`~repro.perf.vector.VectorStatsTracker`
    (replays already extended in place), plus the interned
    shape/bucket/kind tables.  The copy and host logs are pre-priced:
    data movement prices off the DRAM spec and host energy off the host
    TDP, both part of the geometry signature.  :func:`compile_plan` adds
    the benchmark identity and the device-independent CPU/GPU baselines
    that :func:`synthesize` needs.
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

    def tracker(self, row: int) -> StatsTracker:
        """Row ``row`` as a plain :class:`~repro.core.stats.StatsTracker`."""
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
    running totals in as its first row.
    """
    entries, width = addends.shape
    step = max(1, _SLAB_ELEMENTS // max(1, width))
    ends = None if reps is None else np.cumsum(reps)
    expanded = entries if reps is None else int(reps.sum())
    total = np.zeros(width, dtype=np.float64)
    for start in range(0, expanded, step):
        stop = min(expanded, start + step)
        if ends is None:
            chunk = addends[start:stop].copy()
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
    ``_SLAB_ELEMENTS`` addends.
    """
    distinct, inverse = _distinct_rows(rows)
    if bool(np.all(reps == 1)):
        reps = None
    sums = np.empty((len(segments), len(distinct)), dtype=np.float64)
    block = max(1, _SLAB_ELEMENTS // max(1, len(shape)))
    for low in range(0, len(distinct), block):
        addends = np.ascontiguousarray(distinct[low:low + block].T)[shape]
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
    shape ``i`` once at point ``p`` (what :func:`synthesize` gathers
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
    stack a :class:`~repro.core.device.PimDevice` would build, with
    memoization off (each distinct shape is priced once).  Dispatch
    shortcuts only, never value shortcuts: each backend is exactly what
    ``arch_for(config)`` resolves (a sweep calls inside its
    registration window), so its factory and its ``alu_op_pj`` give
    the objects and values the device would use.
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
            enabled=False,
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


def synthesize(
    plan: PricingPlan,
    points: "typing.Sequence[tuple[ArchBackend, DeviceConfig]]",
) -> "list[tuple[BenchmarkResult, StatsTracker]]":
    """Price ``plan`` at each ``(backend, config)`` point.

    The one vector outcome builder.  The plan's shapes are priced
    through ``cost_table`` once per integer-knob sub-group of the points
    (:func:`unit_costs`; one call for a single cell), one
    :func:`price_plan` call prices every row, and each row becomes the
    ``(BenchmarkResult, StatsTracker)`` pair a scalar
    :meth:`repro.bench.common.PimBenchmark.run` on that point would
    leave behind: the snapshot delta against a fresh tracker, the op
    census aggregated by category in first-occurrence order, and the
    plan's CPU/GPU baselines.  The trackers are plain
    :class:`~repro.core.stats.StatsTracker`\\ s, so they pickle and
    disk-cache like scalar ones.
    """
    from repro.bench.common import BenchmarkResult

    totals = price_plan(plan, unit_costs(plan.shape_args, points))
    # The category census is point-independent -- every point issues
    # the same integer command counts.
    op_counts: "dict" = {}
    for kind, count in totals.op_counts.items():
        if count:
            op_counts[kind.category] = op_counts.get(kind.category, 0) + count
    rows = []
    for row, (_backend, config) in enumerate(points):
        tracker = totals.tracker(row)
        # A fresh tracker's baseline is the empty snapshot, and the
        # ``after - before`` delta against it is byte-identical (type,
        # structure, and every float bit) to the snapshot itself.
        rows.append((BenchmarkResult(
            benchmark=plan.benchmark_name,
            device_type=config.device_type,
            stats=tracker.snapshot(),
            op_counts=dict(op_counts),
            cpu_time_ns=plan.cpu_time_ns,
            cpu_energy_nj=plan.cpu_energy_nj,
            gpu_time_ns=plan.gpu_time_ns,
            gpu_energy_nj=plan.gpu_energy_nj,
            verified=None,
        ), tracker))
    return rows


def geometry_signature(config: "DeviceConfig") -> str:
    """Digest of the trace-affecting subset of a device config.

    Canonicalizes the full config the same way the per-cell cache key
    does (:func:`repro.engine.cache._canonical`), then drops the
    cost-only arch fields and replaces the device-type identity with its
    behavioral traits.  Two configs with equal signatures issue
    byte-identical command traces for any benchmark.
    """
    from repro.engine.cache import _canonical

    material = _canonical(config)
    arch = material.get("arch")
    if isinstance(arch, dict):
        for field in COST_ONLY_ARCH_FIELDS:
            arch.pop(field, None)
    device_type = config.device_type
    material["device_type"] = {
        "core_scope": device_type.core_scope,
        "bit_serial": bool(device_type.is_bit_serial),
        "analog": bool(device_type.is_analog),
    }
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def plan_cache_key(
    backend: "ArchBackend",
    spec: "CellSpec",
    config: "DeviceConfig | None" = None,
) -> str:
    """Content hash identifying one pricing plan on disk.

    Keyed by the *base* backend lineage (its sources govern shape
    deduplication and trace generation; the derived point's knob digest
    must NOT appear, or no two points would ever share a plan), the
    benchmark and its merged params, the geometry signature, and
    ``vector_stamp()``.  ``model_version`` of the base folds in the cache
    schema, the common model sources, and the benchmark source, so any
    edit that would invalidate a per-cell entry also invalidates the
    plans built from the same code.
    """
    from repro.engine.cache import _canonical
    from repro.engine.version import model_version, vector_stamp

    base = getattr(backend, "base", backend)
    bench = spec.make_benchmark()
    if config is None:
        config = backend.make_config(
            spec.num_ranks, **dict(spec.geometry_overrides)
        )
    material = {
        "plan_schema": PLAN_SCHEMA,
        "vector_stamp": vector_stamp(),
        "model_version": model_version(base.device_type, spec.benchmark_key),
        "base": base.id,
        "benchmark": spec.benchmark_key,
        "params": _canonical(bench.params),
        "geometry": geometry_signature(config),
        "enforce_capacity": spec.enforce_capacity,
    }
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def compile_plan(
    spec: "CellSpec", backend: "ArchBackend", config: "DeviceConfig"
) -> PricingPlan:
    """Record one cell's benchmark in vector mode and export its plan.

    Runs the benchmark's PIM phase against a vector-mode device (the
    Python issue loop runs; nothing is priced), takes the
    device-independent CPU/GPU baselines, and exports the logs once.
    :func:`synthesize` prices the result, for one point or for every
    point of a sweep's geometry group.  The backend must be resolvable
    through the registry while this runs (the energy model resolves
    ``arch_for`` lazily); :func:`repro.dse.sweep.run_sweep` calls it
    inside its registration window.
    """
    from repro.baselines.cpu import CpuModel
    from repro.baselines.gpu import GpuModel
    from repro.core.device import PimDevice
    from repro.host.model import HostModel

    bench = spec.make_benchmark()
    device = PimDevice(
        config,
        functional=False,
        enforce_capacity=spec.enforce_capacity,
        vector=True,
    )
    cpu = CpuModel()
    bench.run_pim(device, HostModel(device, cpu))
    cpu_time, cpu_energy = cpu.run(bench.cpu_profile())
    gpu_time, gpu_energy = GpuModel().run(bench.gpu_profile())
    return dataclasses.replace(
        device.stats.export_plan(),
        benchmark_key=spec.benchmark_key,
        benchmark_name=bench.name,
        cpu_time_ns=cpu_time,
        cpu_energy_nj=cpu_energy,
        gpu_time_ns=gpu_time,
        gpu_energy_nj=gpu_energy,
    )
