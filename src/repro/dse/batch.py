"""Sweep-level matrix pricing: every design point in one numpy pass.

A benchmark's API stream is the same on every target, and points that
share a geometry lay it out identically and differ only in their cost
tables.  This module prices a sweep with one issue loop per benchmark
and one pricing pass per geometry group:

1. take each benchmark's :class:`~repro.perf.record.Recording` from the
   plan store (:func:`~repro.perf.plans.recording_key`), or record it
   once (:func:`~repro.perf.plans.recording_for`);
2. group the sweep's (point, benchmark) cells by benchmark and geometry
   (:func:`_geometry_key`) and lay each group's recording out once
   (:func:`~repro.perf.plans.layout_plan`) into a
   :class:`~repro.perf.plans.PricingPlan`;
3. price every point of the group with one
   :func:`~repro.perf.plans.price_plan` call -- the function a single
   vectorized cell runs with one point, so every row is bit-identical
   to the scalar path -- and read each row into its
   :class:`~repro.bench.common.BenchmarkResult`.

The product is a table with one result per (point, benchmark) cell: no
engine outcome, stats tracker or telemetry record.  Only recordings are
cached; a warm sweep lays out and re-prices every cell from them.

``REPRO_VECTOR_CHECK=1`` (CLI: ``--vector-check``) bypasses the plan
store and checks the first, middle and last priced cells, each with its
row's tracker, by :func:`~repro.engine.cells.check_against_oracle`; a
diverging cell's entry becomes a failure naming every mismatch.
"""

from __future__ import annotations

import dataclasses
import os
import typing
import warnings

from repro.engine.cells import check_against_oracle, vector_check_enabled
from repro.perf.plans import (
    COST_ONLY_ARCH_FIELDS,
    PlanTotals,
    PricingPlan,
    layout_plan,
    plan_results,
    price_plan,
    recording_for,
    recording_key,
    unit_costs,
)
from repro.perf.vector import VectorEquivalenceError

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.parametric import ParametricBackend
    from repro.bench.common import BenchmarkResult
    from repro.config.device import DeviceConfig
    from repro.engine.cache import DiskCache
    from repro.engine.cells import CellSpec
    from repro.perf.record import Recording
    from repro.resilience.failures import CellFailure


def batch_eligible(spec: "CellSpec") -> bool:
    """Whether one cell can be priced from a shared plan.

    Mirrors the per-cell vector activation rule
    (:func:`repro.engine.cells.run_cell`): analytic, unobserved,
    fault-free.  Functional cells move real data, observed cells need
    per-issue events, and fault cells hook the functional engine -- all
    take the per-cell path.
    """
    return bool(spec.vector) and not spec.functional and spec.fault_plan is None


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
    plan: PricingPlan,
    points: "list[tuple[ParametricBackend, DeviceConfig]]",
) -> "tuple[PlanTotals, list[BenchmarkResult]]":
    """Price every point of one geometry group from its shared plan.

    Returns the group's rows -- one :func:`~repro.perf.plans.price_plan`
    call over the points' :func:`~repro.perf.plans.unit_costs` -- and
    each row read into the result a scalar run of that point returns,
    in ``points`` order.
    """
    totals = price_plan(plan, unit_costs(plan.shape_args, points))
    results = plan_results(
        plan, totals, [config.device_type for _backend, config in points]
    )
    return totals, results


def price_cells_batched(
    backends: "typing.Sequence[ParametricBackend]",
    benchmarks: "typing.Sequence[str]",
    num_ranks: int,
    cell: "typing.Callable[[int], CellSpec]",
    use_cache: bool = True,
    cache_dir: "str | os.PathLike | None" = None,
) -> "tuple[list[BenchmarkResult | CellFailure | None], BatchReport]":
    """Price every (point, benchmark) cell of a sweep from its group's plan.

    Cell ``i`` is ``benchmarks[i % B]`` on ``backends[i // B]`` at
    ``num_ranks``; ``cell(i)`` builds its engine spec, needed only to
    record each benchmark and for the oracle samples.

    Returns the table: entry ``i`` is cell ``i``'s result, the failure
    an oracle check made of it, or ``None`` for a deferred cell -- one
    whose benchmark cannot be recorded, whose point has no config, or
    whose group cannot be laid out or priced; the sweep routes those
    through the per-cell engine (it owns failure semantics).  The
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
    table: "list[BenchmarkResult | CellFailure | None]" = (
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

    # (benchmark offset, geometry key) -> [(cell index, backend,
    # config)] of every member.
    groups: "dict[typing.Hashable, list[tuple]]" = {}
    unconfigured = 0
    for position, backend in enumerate(backends):
        try:
            config = backend.make_config(num_ranks)
        except Exception:  # noqa: BLE001 - defer to the engine path
            unconfigured += width
            continue
        geometry = _geometry_key(backend)
        for offset in recordings:
            groups.setdefault((offset, geometry), []).append(
                (position * width + offset, backend, config)
            )
    if unconfigured:
        warnings.warn(
            f"batched pricing deferred {unconfigured} cell(s) whose "
            "device config could not be built to the per-cell engine",
            RuntimeWarning,
            stacklevel=2,
        )

    priced: "list[tuple[list[int], PlanTotals]]" = []
    for (offset, _geometry), members in groups.items():
        spec, recording = recordings[offset]
        try:
            _index, backend, config = members[0]
            plan = layout_plan(
                recording, backend, config, spec.enforce_capacity
            )
            totals, results = price_group(
                plan, [(backend, config) for _i, backend, config in members]
            )
        except Exception as exc:  # noqa: BLE001 - defer to the engine path
            warnings.warn(
                f"batched pricing deferred {len(members)} cell(s) to the "
                f"per-cell engine: {type(exc).__name__}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        cells = [index for index, _backend, _config in members]
        for index, result in zip(cells, results):
            table[index] = result
        priced.append((cells, totals))
        report.synthesized += len(cells)

    if vector_check_enabled() and priced:
        from repro.resilience.failures import failure_from_exception

        # Sample the first, middle and last priced cells in sweep order,
        # not group order; only they get a tracker row.
        fresh = [i for i, entry in enumerate(table) if entry is not None]
        picks = {fresh[0], fresh[len(fresh) // 2], fresh[-1]}
        for cells, totals in priced:
            for row, index in enumerate(cells):
                if index not in picks:
                    continue
                try:
                    check_against_oracle(
                        cell(index), table[index], totals.tracker(row)
                    )
                except VectorEquivalenceError as exc:
                    table[index] = failure_from_exception(
                        exc, 1, with_traceback=False
                    )
        report.checked = len(picks)
    return table, report
