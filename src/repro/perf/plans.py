"""Pricing plans: one histogram, priced under any number of cost tables.

A vectorized cell (docs/VECTORIZATION.md) splits into two phases with
very different costs:

* **compile** -- run the benchmark against the device to *build* the
  shape histogram: every ``execute`` call still goes through Python, so
  this costs roughly one scalar cell;
* **price** -- evaluate the distinct shapes through the backend's cost
  table and reconstruct the accumulator totals with numpy: microseconds.

The compile product is a :class:`PricingPlan`: the expanded command,
copy and host logs of a :class:`~repro.perf.vector.VectorStatsTracker`
plus its interned shape/bucket/kind tables.  :func:`price_plan` is the
one analytic pricer: it prices a plan under P cost tables and returns P
rows of accumulator totals.  A vectorized cell is the P = 1 case (its
tracker prices its own logs at finalize time); a design-space sweep
(:mod:`repro.dse.batch`) compiles one plan per geometry group and
prices every point of the group as one P-row call.

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
vector_stamp` (this module + the vector engine + the sweep pricer), the
same digest every vectorized cell key carries.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from collections import OrderedDict

import numpy as np

from repro.core.stats import COPY_DIRECTIONS, CmdStats, CopyStats, EventCounts

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.base import ArchBackend
    from repro.config.device import DeviceConfig
    from repro.engine.cells import CellSpec
    from repro.perf.vector import CostTable

#: Layout version of the pickled plan payload.
PLAN_SCHEMA = 2

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

#: EventCounts fields, in declaration order (= CostTable column order).
EVENT_FIELDS = tuple(field.name for field in dataclasses.fields(EventCounts))

#: Cost-table value fields, in the order :func:`price_plan` prices them.
VALUE_FIELDS = ("latency_ns", "execution_nj", "background_nj") + EVENT_FIELDS

#: Copy-direction order of a plan's ``copy_dir`` column.
DIRECTIONS = tuple(COPY_DIRECTIONS)

#: Soft cap on the expanded-addend matrix (points x repeated entries)
#: one pricing slab may hold, in float64 elements (~128 MiB).  Purely a
#: memory bound: rows are independent, so slabbing cannot change a bit.
_SLAB_ELEMENTS = 16_000_000


@dataclasses.dataclass(frozen=True, eq=False)
class PricingPlan:
    """One compiled histogram, ready to re-price under any cost table.

    The expanded (replay groups tiled in place) log columns of a
    :class:`~repro.perf.vector.VectorStatsTracker`, plus the interned
    shape/bucket/kind tables.  The copy and host logs are pre-priced:
    data movement prices off the DRAM spec and host energy off the host
    TDP, both part of the geometry signature.  :func:`compile_plan` adds
    the benchmark identity and the device-independent CPU/GPU baselines
    that outcome synthesis needs.
    """

    #: Representative CommandArgs per distinct shape, in shape order.
    shape_args: "tuple[typing.Any, ...]"
    bucket_names: "tuple[str, ...]"
    kind_objs: "tuple[typing.Any, ...]"
    #: Pre-priced ``record_command*`` values: (latency, execution
    #: energy, background energy, EVENT_FIELDS values).
    literals: "tuple[tuple[float, float, float, tuple[float, ...]], ...]"
    # Expanded command-log columns (int64, one entry per issue event);
    # ``cmd_shape < 0`` marks literal ``-1 - index`` entries.
    cmd_shape: np.ndarray
    cmd_bucket: np.ndarray
    cmd_kind: np.ndarray
    cmd_mult: np.ndarray
    cmd_batch: np.ndarray
    # Expanded, pre-priced copy log.
    copy_dir: np.ndarray
    copy_bytes: np.ndarray
    copy_latency: np.ndarray
    copy_energy: np.ndarray
    # Expanded, pre-priced host log.
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

    def tracker_fields(self, row: int) -> "dict[str, typing.Any]":
        """Row ``row`` as :class:`~repro.core.stats.StatsTracker` fields."""
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
            fields[attr] = self.copies.get(direction, CopyStats())
        return fields


def _first_occurrence_order(values: np.ndarray) -> np.ndarray:
    """Distinct values of ``values`` in order of first appearance."""
    uniq, first = np.unique(values, return_index=True)
    return uniq[np.argsort(first, kind="stable")]


def _row_sums(
    addends: np.ndarray, reps: "np.ndarray | None" = None
) -> np.ndarray:
    """Exact left-to-right float sums of each row: ``(P, E) -> (P,)``.

    ``reps[e] > 1`` replicates column ``e`` that many times (iterated
    addition, the ``execute_batch`` contract).  ``np.add.accumulate`` is
    *defined* as the sequential reduction, applied independently per
    row; ``np.sum``/``np.add.reduce`` use pairwise summation and would
    differ from the scalar path in the last ulp.
    """
    if reps is not None and not bool(np.all(reps == 1)):
        addends = np.repeat(addends, reps, axis=1)
    points, width = addends.shape
    seq = np.zeros((points, width + 1), dtype=np.float64)
    seq[:, 1:] = addends
    return np.add.accumulate(seq, axis=1)[:, -1]


def price_plan(
    plan: PricingPlan, tables: "typing.Sequence[CostTable | None]"
) -> PlanTotals:
    """Price ``plan`` under each of ``tables``: the one analytic pricer.

    Row ``p`` of the result is bit-identical to the scalar
    :class:`~repro.core.stats.StatsTracker` that issued the plan's
    commands priced by ``tables[p]``: every float accumulator is rebuilt
    from the scalar path's exact addend sequence by :func:`_row_sums`.
    ``tables`` may hold ``None`` only when the plan has no shapes.
    """
    points = len(tables)
    shapes = len(plan.shape_args)
    if shapes:
        for table in tables:
            if len(table) != shapes:
                raise ValueError(
                    f"cost_table returned {len(table)} rows for "
                    f"{shapes} shapes"
                )
    # (fields x points x shapes) unit costs; (fields x literals) values.
    unit = np.array(
        [[getattr(table, name) for table in tables] for name in VALUE_FIELDS],
        dtype=np.float64,
    ) if shapes else np.zeros((len(VALUE_FIELDS), points, 0))
    literal = np.array(
        [(lat, en, bg, *events) for lat, en, bg, events in plan.literals],
        dtype=np.float64,
    ).reshape(-1, len(VALUE_FIELDS)).T

    is_shape = plan.cmd_shape >= 0
    is_literal = ~is_shape
    shape_rows = plan.cmd_shape[is_shape]
    literal_rows = -1 - plan.cmd_shape[is_literal]
    mult = plan.cmd_mult
    batch = plan.cmd_batch.astype(bool)
    # Scalar billing semantics:
    #   execute(repeat=r): ONE add of value*r        (pre-multiplied)
    #   execute_batch(count=c) / literal batch: c iterated adds of value
    #   literal record_command(count=c): ONE add of value (caller
    #     already pre-multiplied), counted c times
    scale = np.where(is_shape & ~batch, mult.astype(np.float64), 1.0)
    reps = np.where(batch, mult, 1)

    # Integer censuses: order-independent, exact int64 scatter-adds.
    bucket_counts = np.zeros(len(plan.bucket_names), dtype=np.int64)
    np.add.at(bucket_counts, plan.cmd_bucket, mult)
    kind_counts = np.zeros(len(plan.kind_objs), dtype=np.int64)
    np.add.at(kind_counts, plan.cmd_kind, mult)
    buckets = _first_occurrence_order(plan.cmd_bucket).tolist()
    bucket_masks = [plan.cmd_bucket == bucket for bucket in buckets]

    latency = np.zeros((points, len(buckets)), dtype=np.float64)
    energy = np.zeros((points, len(buckets)), dtype=np.float64)
    # Background energy, then the event census.
    totals = np.zeros((points, len(VALUE_FIELDS) - 2), dtype=np.float64)
    slab = max(1, _SLAB_ELEMENTS // max(1, int(reps.sum())))
    for start in range(0, points, slab):
        stop = min(points, start + slab)
        values = np.empty((stop - start, is_shape.size), dtype=np.float64)
        for field in range(len(VALUE_FIELDS)):
            values[:, is_shape] = unit[field, start:stop][:, shape_rows]
            values[:, is_literal] = literal[field][literal_rows]
            addends = values * scale
            if field < 2:
                out = latency if field == 0 else energy
                for index, mask in enumerate(bucket_masks):
                    out[start:stop, index] = _row_sums(
                        addends[:, mask], reps[mask]
                    )
            else:
                totals[start:stop, field - 2] = _row_sums(addends, reps)

    # Copies and host: pre-priced and table-independent; each pair of
    # float columns is summed as two rows of one call.
    copies: "dict[str, CopyStats]" = {}
    for index, direction in enumerate(DIRECTIONS):
        mask = plan.copy_dir == index
        if bool(np.any(mask)):
            lat, en = _row_sums(np.stack(
                (plan.copy_latency[mask], plan.copy_energy[mask])
            )).tolist()
            copies[direction] = CopyStats(
                int(plan.copy_bytes[mask].sum()), lat, en
            )
    host_time, host_energy = _row_sums(
        np.stack((plan.host_time, plan.host_energy))
    ).tolist()
    return PlanTotals(
        bucket_names=tuple(plan.bucket_names[b] for b in buckets),
        bucket_counts=tuple(int(bucket_counts[b]) for b in buckets),
        op_counts={
            plan.kind_objs[kind]: int(kind_counts[kind])
            for kind in _first_occurrence_order(plan.cmd_kind).tolist()
        },
        latency_ns=latency,
        energy_nj=energy,
        background_nj=totals[:, 0],
        events=totals[:, 1:],
        copies=copies,
        host_time_ns=host_time,
        host_energy_nj=host_energy,
    )


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
    spec: "CellSpec",
    backend: "ArchBackend",
    config: "DeviceConfig | None" = None,
) -> PricingPlan:
    """Run one cell's benchmark in vector mode and extract its plan.

    This is the sweep's once-per-geometry-group compile step: it costs
    one vectorized cell (the Python issue loop runs), after which every
    sibling point is priced from the returned plan without touching the
    benchmark again.  The backend must be resolvable through the
    registry while this runs (the energy model resolves ``arch_for``
    lazily); :func:`repro.dse.sweep.run_sweep` calls it inside its
    registration window.
    """
    from repro.baselines.cpu import CpuModel
    from repro.baselines.gpu import GpuModel
    from repro.core.device import PimDevice

    if config is None:
        config = backend.make_config(
            spec.num_ranks, **dict(spec.geometry_overrides)
        )
    bench = spec.make_benchmark()
    device = PimDevice(
        config,
        functional=False,
        enforce_capacity=spec.enforce_capacity,
        vector=True,
    )
    result = bench.run(device, CpuModel(), GpuModel())
    return dataclasses.replace(
        device.stats.export_plan(),
        benchmark_key=spec.benchmark_key,
        benchmark_name=bench.name,
        cpu_time_ns=result.cpu_time_ns,
        cpu_energy_nj=result.cpu_energy_nj,
        gpu_time_ns=result.gpu_time_ns,
        gpu_energy_nj=result.gpu_energy_nj,
    )
