"""Sweep-level matrix pricing: every design point in one numpy pass.

The per-cell vector path (docs/VECTORIZATION.md) made *pricing* cheap
but still paid the benchmark's Python issue loop once per cell.  For a
design-space sweep that loop is almost always redundant: points sharing
a geometry signature (:mod:`repro.perf.plans`) issue byte-identical
command traces and differ only in their cost tables.  This module
prices a whole geometry group at once:

1. group the sweep's (point, benchmark) cells by
   :func:`~repro.perf.plans.plan_cache_key`;
2. compile (or load from the plan cache) **one**
   :class:`~repro.perf.plans.PricingPlan` per group;
3. price every point of the group with one
   :func:`~repro.perf.plans.price_plan` call -- the function a single
   vectorized cell runs with one point, so every row is bit-identical
   to the scalar path -- and read each row into its
   :class:`~repro.bench.common.BenchmarkResult`.

The product is a table with one result per (point, benchmark) cell: no
engine outcome, stats tracker or telemetry record.  Only plans are
cached; a warm sweep re-prices every cell from its stored plan.

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
    compile_plan,
    plan_cache_key,
    plan_results,
    price_plan,
    unit_costs,
)
from repro.perf.vector import VectorEquivalenceError

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.parametric import ParametricBackend
    from repro.bench.common import BenchmarkResult
    from repro.config.device import DeviceConfig
    from repro.engine.cache import DiskCache
    from repro.engine.cells import CellSpec
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


def _trace_group_key(
    backend: "ParametricBackend", benchmark: str
) -> "typing.Hashable":
    """Cheap pre-grouping key: same key => same plan cache key.

    Within one sweep (whose cells share rank count, scale and capacity
    policy) a parametric point's plan key is fully determined by its
    base, the benchmark, and the knobs that are not cost-only, so the
    full key (:func:`~repro.perf.plans.plan_cache_key`, which
    canonicalizes the whole config) is hashed once per group.  Finer
    grouping would merely compile twice; coarser is impossible.
    """
    from repro.arch.parametric import ENERGY_KNOBS

    trace_knobs = tuple(
        (name, value)
        for name, value in backend.knobs
        if name not in COST_ONLY_ARCH_FIELDS and name not in ENERGY_KNOBS
    )
    return (backend.base.id, benchmark, trace_knobs)


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
    key and compile each group's plan and for the oracle samples.

    Returns the table: entry ``i`` is cell ``i``'s result, the failure
    an oracle check made of it, or ``None`` for a deferred cell -- one
    whose plan cannot be keyed, compiled or priced, which the sweep
    routes through the per-cell engine (it owns failure semantics).
    """
    from repro.engine.cache import DiskCache
    from repro.obs.metrics import global_registry

    # The armed check keeps the sweep off the plan store, so no stored
    # plan escapes it.
    cache: "DiskCache | None" = (
        DiskCache(cache_dir)
        if use_cache and not vector_check_enabled() else None
    )
    report = BatchReport()
    width = len(benchmarks)
    table: "list[BenchmarkResult | CellFailure | None]" = (
        [None] * (len(backends) * width)
    )

    # plan key -> (the cell that keyed it, [(cell index, backend,
    # config)] of every member).
    groups: "dict[str, tuple[CellSpec, list[tuple]]]" = {}
    known_keys: "dict[typing.Hashable, tuple[str, CellSpec]]" = {}
    unkeyed = 0
    for position, backend in enumerate(backends):
        try:
            config = backend.make_config(num_ranks)
        except Exception:  # noqa: BLE001 - defer to the engine path
            unkeyed += width
            continue
        for offset, benchmark in enumerate(benchmarks):
            index = position * width + offset
            cheap = _trace_group_key(backend, benchmark)
            keyed = known_keys.get(cheap)
            if keyed is None:
                # A cell whose plan key cannot even be computed (an
                # unknown benchmark) is deferred like a failed compile:
                # the per-cell engine produces the coded error outcome.
                spec = cell(index)
                try:
                    keyed = (plan_cache_key(backend, spec, config), spec)
                except Exception:  # noqa: BLE001 - defer to the engine path
                    unkeyed += 1
                    continue
                known_keys[cheap] = keyed
            plan_key, spec = keyed
            groups.setdefault(plan_key, (spec, []))[1].append(
                (index, backend, config)
            )
    if unkeyed:
        warnings.warn(
            f"batched pricing deferred {unkeyed} cell(s) whose "
            "pricing plan could not be keyed to the per-cell engine",
            RuntimeWarning,
            stacklevel=2,
        )

    registry = global_registry()
    priced: "list[tuple[list[int], PlanTotals]]" = []
    for plan_key, (spec, members) in groups.items():
        try:
            plan = cache.get_plan(plan_key) if cache is not None else None
            if plan is None:
                _index, backend, config = members[0]
                plan = compile_plan(spec, backend, config)
                report.plan_misses += 1
                registry.counter("plan_cache.misses").inc()
                if cache is not None:
                    cache.put_plan(plan_key, plan)
            else:
                report.plan_hits += 1
                registry.counter("plan_cache.hits").inc()
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
