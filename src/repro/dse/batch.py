"""Sweep-level matrix pricing: every design point in one numpy pass.

A benchmark's API stream is the same on every target, and points that
share a geometry lay it out identically and differ only in their cost
tables.  This module prices a sweep with one issue loop per benchmark
and one pricing pass per geometry group:

1. take each benchmark's :class:`~repro.perf.record.Recording` from the
   plan store (:func:`~repro.perf.plans.recording_key`), or record it
   once (:func:`~repro.perf.plans.recording_for`);
2. group the sweep's points by geometry (:func:`_geometry_key`) and lay
   every benchmark's recording out once per group
   (:func:`~repro.perf.plans.layout_plan`) into a
   :class:`~repro.perf.plans.PricingPlan`;
3. price the group (:func:`price_group`): one ``cost_table`` call per
   integer-knob sub-group over the union of its plans' shapes, then
   one :func:`~repro.perf.plans.price_plan` per plan -- the function a
   single vectorized cell runs with one point, so every row is
   bit-identical to the scalar path;
4. read each row's three sweep metrics as columns
   (:class:`CellMetrics`, :meth:`~repro.perf.plans.PlanTotals.
   kernel_host_columns`).  A full
   :class:`~repro.bench.common.BenchmarkResult` is built only for each
   benchmark's sample cell and for the oracle samples.

The product is a table with one entry per (point, benchmark) cell: no
engine outcome, stats tracker or telemetry record.  Only recordings are
cached; a warm sweep lays out and re-prices every cell from them.

``REPRO_VECTOR_CHECK=1`` (CLI: ``--vector-check``) bypasses the plan
store and checks the first, middle and last priced cells, each with its
row's result and tracker, by
:func:`~repro.engine.cells.check_against_oracle`; a diverging cell's
entry becomes a failure naming every mismatch.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import typing
import warnings

from repro.engine.cells import check_against_oracle, vector_check_enabled
from repro.perf.plans import (
    COST_ONLY_ARCH_FIELDS,
    PlanTotals,
    PricingPlan,
    layout_plan,
    plan_result,
    price_plan,
    recording_for,
    recording_key,
    unit_costs,
)
from repro.perf.vector import VectorEquivalenceError
from repro.resilience.failures import CellFailure

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.parametric import ParametricBackend
    from repro.bench.common import BenchmarkResult
    from repro.config.device import DeviceConfig
    from repro.engine.cache import DiskCache
    from repro.engine.cells import CellSpec
    from repro.perf.record import Recording


def batch_eligible(spec: "CellSpec") -> bool:
    """Whether one cell can be priced from a shared plan.

    Mirrors the per-cell vector activation rule
    (:func:`repro.engine.cells.run_cell`): analytic, unobserved,
    fault-free.  Functional cells move real data, observed cells need
    per-issue events, and fault cells hook the functional engine -- all
    take the per-cell path.
    """
    return bool(spec.vector) and not spec.functional and spec.fault_plan is None


class CellMetrics(typing.NamedTuple):
    """What a sweep reads of one cell's result (:func:`repro.dse.sweep.
    run_sweep`'s per-benchmark metrics), in the report's key order."""

    latency_ns: float
    energy_nj: float
    commands: float

    @classmethod
    def of(cls, result: "BenchmarkResult") -> "CellMetrics":
        return cls(
            result.pim_kernel_host_time_ns,
            result.pim_kernel_host_energy_nj,
            float(sum(result.op_counts.values())),
        )


#: One cell's entry in a priced sweep table (see price_cells_batched).
TableEntry = typing.Union[CellMetrics, "BenchmarkResult", CellFailure, None]


@dataclasses.dataclass
class BatchReport:
    """What one :func:`price_cells_batched` call did."""

    synthesized: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    checked: int = 0


def _geometry_key(backend: "ParametricBackend") -> "typing.Hashable":
    """Points with equal keys lay every recording out identically.

    Within one sweep (whose cells share rank count, scale and capacity
    policy) a parametric point's layout is fully determined by its base
    and the knobs that are neither cost-only arch fields nor energy
    knobs.  Finer grouping would merely lay out twice; coarser is
    impossible.
    """
    from repro.arch.parametric import ENERGY_KNOBS

    trace_knobs = tuple(
        (name, value)
        for name, value in backend.knobs
        if name not in COST_ONLY_ARCH_FIELDS and name not in ENERGY_KNOBS
    )
    return (backend.base.id, trace_knobs)


def price_group(
    plans: "typing.Sequence[PricingPlan]",
    points: "list[tuple[ParametricBackend, DeviceConfig]]",
) -> "list[PlanTotals]":
    """Price every plan of one geometry group at every point of it.

    One :func:`~repro.perf.plans.unit_costs` call over the plans'
    concatenated shapes -- one ``cost_table`` call per integer-knob
    sub-group, however many benchmarks the group lays out -- then one
    :func:`~repro.perf.plans.price_plan` per plan over its own slice of
    those columns.  Bit-equal to pricing each plan alone: ``cost_table``
    prices every shape independently of the others.  Returns each
    plan's totals, in ``plans`` order, rows in ``points`` order.
    """
    unit = unit_costs(
        tuple(itertools.chain.from_iterable(p.shape_args for p in plans)),
        points,
    )
    totals = []
    stop = 0
    for plan in plans:
        start, stop = stop, stop + len(plan.shape_args)
        totals.append(price_plan(plan, unit[:, :, start:stop]))
    return totals


def price_cells_batched(
    backends: "typing.Sequence[ParametricBackend]",
    benchmarks: "typing.Sequence[str]",
    num_ranks: int,
    cell: "typing.Callable[[int], CellSpec]",
    use_cache: bool = True,
    cache_dir: "str | os.PathLike | None" = None,
) -> "tuple[list[TableEntry], BatchReport]":
    """Price every (point, benchmark) cell of a sweep from its group's plan.

    Cell ``i`` is ``benchmarks[i % B]`` on ``backends[i // B]`` at
    ``num_ranks``; ``cell(i)`` builds its engine spec, needed only to
    record each benchmark and for the oracle samples.

    Returns the table: entry ``i`` is cell ``i``'s
    :class:`CellMetrics`, the failure an oracle check made of it, or
    ``None`` for a deferred cell -- one whose benchmark cannot be
    recorded, whose point has no config, or whose group cannot be laid
    out or priced; the sweep routes those through the per-cell engine
    (it owns failure semantics).  Each benchmark's first priced cell
    that did not fail, in sweep order, and each oracle-checked cell
    carry their full :class:`~repro.bench.common.BenchmarkResult`
    instead, whose properties give the same metrics bit for bit.  The
    report counts recordings: loaded from the plan store (hits) or not
    (misses, recorded once in this process).
    """
    from repro.engine.cache import DiskCache
    from repro.obs.metrics import global_registry

    # The armed check keeps the sweep off the plan store, so no stored
    # recording escapes it.
    cache: "DiskCache | None" = (
        DiskCache(cache_dir)
        if use_cache and not vector_check_enabled() else None
    )
    report = BatchReport()
    width = len(benchmarks)
    table: "list[TableEntry]" = (
        [None] * (len(backends) * width)
    )
    registry = global_registry()

    # One recording per benchmark: offset -> (its spec, its recording).
    recordings: "dict[int, tuple[CellSpec, Recording]]" = {}
    for offset, benchmark in enumerate(benchmarks):
        spec = cell(offset)
        try:
            key = recording = None
            if cache is not None:
                key = recording_key(spec)
                recording = cache.get_plan(key)
            if recording is None:
                recording = recording_for(spec)
                report.plan_misses += 1
                registry.counter("plan_cache.misses").inc()
                if cache is not None:
                    cache.put_plan(key, recording)
            else:
                report.plan_hits += 1
                registry.counter("plan_cache.hits").inc()
        except Exception as exc:  # noqa: BLE001 - defer to the engine path
            warnings.warn(
                f"batched pricing deferred the {len(backends)} cell(s) of "
                f"{benchmark!r} to the per-cell engine: "
                f"{type(exc).__name__}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        recordings[offset] = (spec, recording)

    # Geometry key -> [(point position, backend, config)] of its points.
    groups: "dict[typing.Hashable, list[tuple]]" = {}
    unconfigured = 0
    for position, backend in enumerate(backends):
        try:
            config = backend.make_config(num_ranks)
        except Exception:  # noqa: BLE001 - defer to the engine path
            unconfigured += width
            continue
        groups.setdefault(_geometry_key(backend), []).append(
            (position, backend, config)
        )
    if unconfigured:
        warnings.warn(
            f"batched pricing deferred {unconfigured} cell(s) whose "
            "device config could not be built to the per-cell engine",
            RuntimeWarning,
            stacklevel=2,
        )

    # Every priced (plan, its totals, its cells' indices, their device
    # types).
    priced: "list[tuple[PricingPlan, PlanTotals, list[int], list]]" = []
    for members in groups.values():
        _position, backend, config = members[0]
        laid_out: "dict[int, PricingPlan]" = {}
        for offset, (spec, recording) in recordings.items():
            try:
                laid_out[offset] = layout_plan(
                    recording, backend, config, spec.enforce_capacity
                )
            except Exception as exc:  # noqa: BLE001 - defer to the engine path
                _warn_deferred(len(members), exc)
        if not laid_out:
            continue
        try:
            group_totals = price_group(
                list(laid_out.values()),
                [(backend, config) for _p, backend, config in members],
            )
        except Exception as exc:  # noqa: BLE001 - defer to the engine path
            _warn_deferred(len(members) * len(laid_out), exc)
            continue
        positions = [position for position, _backend, _config in members]
        device_types = [config.device_type for _p, _b, config in members]
        for (offset, plan), totals in zip(laid_out.items(), group_totals):
            # The sweep reads three numbers of a cell: read them as
            # columns of the group's rows, no result built.
            latency, energy = totals.kernel_host_columns()
            commands = float(sum(totals.category_counts().values()))
            cells = [position * width + offset for position in positions]
            for index, row_latency, row_energy in zip(cells, latency, energy):
                table[index] = CellMetrics(row_latency, row_energy, commands)
            priced.append((plan, totals, cells, device_types))
            report.synthesized += len(cells)

    if vector_check_enabled() and priced:
        from repro.resilience.failures import failure_from_exception

        # Sample the first, middle and last priced cells in sweep order,
        # not group order; only they get a result and a tracker row.
        fresh = [i for i, entry in enumerate(table) if entry is not None]
        picks = {fresh[0], fresh[len(fresh) // 2], fresh[-1]}
        for plan, totals, cells, device_types in priced:
            for row, index in enumerate(cells):
                if index not in picks:
                    continue
                result = plan_result(plan, totals, row, device_types[row])
                try:
                    check_against_oracle(
                        cell(index), result, totals.tracker(row)
                    )
                except VectorEquivalenceError as exc:
                    table[index] = failure_from_exception(
                        exc, 1, with_traceback=False
                    )
                else:
                    table[index] = result
        report.checked = len(picks)

    # Each benchmark's first priced cell that did not fail, in sweep
    # order, gets its full result: the sweep's sample of the benchmark.
    samples: "dict[int, tuple]" = {}
    for plan, totals, cells, device_types in priced:
        for row, index in enumerate(cells):
            if isinstance(table[index], CellFailure):
                continue
            offset = index % width
            if offset not in samples or index < samples[offset][0]:
                samples[offset] = (index, plan, totals, row, device_types[row])
            break
    for index, plan, totals, row, device_type in samples.values():
        if isinstance(table[index], CellMetrics):
            table[index] = plan_result(plan, totals, row, device_type)
    return table, report


def _warn_deferred(cells: int, exc: Exception) -> None:
    warnings.warn(
        f"batched pricing deferred {cells} cell(s) to the per-cell "
        f"engine: {type(exc).__name__}: {exc}",
        RuntimeWarning,
        stacklevel=3,
    )
