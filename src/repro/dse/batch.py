"""Sweep-level matrix pricing: every design point in one numpy pass.

The per-cell vector path (docs/VECTORIZATION.md) made *pricing* cheap
but still paid the benchmark's Python issue loop once per cell.  For a
design-space sweep that loop is almost always redundant: points sharing
a geometry signature (:mod:`repro.perf.plans`) issue byte-identical
command traces and differ only in their cost tables.  This module
prices a whole geometry group at once:

1. group the sweep's cells by :func:`~repro.perf.plans.plan_cache_key`;
2. compile (or load from the plan cache) **one**
   :class:`~repro.perf.plans.PricingPlan` per group;
3. synthesize every point of the group with one
   :func:`~repro.perf.plans.synthesize` call -- the function a single
   vectorized cell runs with one point, so every synthesized total is
   bit-identical to the per-cell result, which is itself bit-identical
   to the scalar path -- and wrap the rows in per-cell
   :class:`~repro.engine.cells.CellOutcome`\\ s that report exactly
   like per-cell outcomes.

The plan store is the only cache tier: a synthesized outcome is a pure
function of its plan and its point's cost table, so it is never
written to the per-cell store; a warm sweep re-synthesizes it from the
stored plan.

``REPRO_VECTOR_CHECK=1`` (CLI: ``--vector-check``) bypasses the plan
store and checks the first, middle and last synthesized cells with
:func:`~repro.engine.cells.check_against_oracle`; a diverging cell
becomes a failed outcome naming every mismatch.
"""

from __future__ import annotations

import dataclasses
import os
import time
import typing
import warnings
from collections import OrderedDict

from repro.engine.cells import (
    CellOutcome,
    check_against_oracle,
    vector_check_enabled,
)
from repro.obs.telemetry import CellTelemetry
from repro.perf.plans import (
    COST_ONLY_ARCH_FIELDS,
    PricingPlan,
    compile_plan,
    plan_cache_key,
    synthesize,
)
from repro.perf.vector import VectorEquivalenceError

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.base import ArchBackend
    from repro.config.device import DeviceConfig
    from repro.engine.cache import DiskCache
    from repro.engine.cells import CellSpec


def batch_eligible(spec: "CellSpec") -> bool:
    """Whether one cell can be priced from a shared plan.

    Mirrors the per-cell vector activation rule
    (:func:`repro.engine.cells.run_cell`): analytic, unobserved,
    fault-free.  Functional cells move real data, observed cells need
    per-issue events, and fault cells hook the functional engine -- all
    take the per-cell path with ``telemetry.batched=False``.
    """
    return bool(spec.vector) and not spec.functional and spec.fault_plan is None


@dataclasses.dataclass
class BatchReport:
    """What one :func:`price_cells_batched` call did.

    Every cell it returns was synthesized from a plan (``synthesized``);
    the per-cell cache is never read or written.
    """

    synthesized: int = 0
    plan_hits: int = 0
    plan_misses: int = 0
    checked: int = 0
    #: Cells the batched path declined (a group whose compile failed);
    #: the sweep routes them through the per-cell engine instead.
    deferred: int = 0


def _trace_group_key(
    spec: "CellSpec", backend: "ArchBackend"
) -> "typing.Hashable | None":
    """Cheap pre-grouping key: same key => same plan cache key.

    :func:`~repro.perf.plans.plan_cache_key` canonicalizes the whole
    derived config, which costs real time per point; but for a
    :class:`~repro.arch.parametric.ParametricBackend` the plan key is
    fully determined by the base backend, the cell's trace-affecting
    fields, and the knobs that are not cost-only (the normalized knob
    names *are* config field names).  Grouping on that tuple lets the
    sweep hash the full key once per group instead of once per point.
    Finer-than-necessary grouping would merely compile twice; coarser
    is impossible because every plan-key ingredient appears here.
    Returns ``None`` for non-parametric backends (full key per cell).
    """
    knobs = getattr(backend, "knobs", None)
    base = getattr(backend, "base", None)
    if knobs is None or base is None:
        return None
    from repro.arch.parametric import ENERGY_KNOBS

    trace_knobs = tuple(
        (name, value)
        for name, value in knobs
        if name not in COST_ONLY_ARCH_FIELDS and name not in ENERGY_KNOBS
    )
    return (
        base.id,
        spec.benchmark_key,
        spec.num_ranks,
        spec.paper_scale,
        spec.enforce_capacity,
        spec.geometry_overrides,
        trace_knobs,
    )


def price_group(
    plan: PricingPlan,
    group: "list[tuple[CellSpec, ArchBackend, DeviceConfig]]",
) -> "list[CellOutcome]":
    """Price every point of one geometry group from its shared plan.

    Returns one synthesized :class:`~repro.engine.cells.CellOutcome`
    per group entry, in order: :func:`~repro.perf.plans.synthesize`
    with N points -- the function a vectorized cell calls with one --
    plus the group's wall/CPU time apportioned evenly across its
    points.  Downstream consumers (reports, the frontier)
    cannot tell a synthesized outcome from a simulated one.
    """
    from repro.obs.telemetry import peak_rss_kb

    group_wall0 = time.perf_counter()
    group_cpu0 = time.process_time()
    rows = synthesize(
        plan, [(backend, config) for _spec, backend, config in group]
    )
    points = len(group)
    group_wall = time.perf_counter() - group_wall0
    group_cpu = time.process_time() - group_cpu0
    # One RSS sample serves the whole group: within one pricing pass
    # the value cannot meaningfully change between points.
    rss_kb = peak_rss_kb()
    outcomes: "list[CellOutcome]" = []
    for (spec, _backend, _config), (result, tracker) in zip(group, rows):
        telemetry = CellTelemetry(
            benchmark=spec.benchmark_key,
            device=str(getattr(spec.device_type, "value", spec.device_type)),
            num_ranks=spec.num_ranks,
            attempt=1,
            wall_s=group_wall / points,
            cpu_s=group_cpu / points,
            peak_rss_kb=rss_kb,
            commands_simulated=int(sum(result.op_counts.values())),
            # No memo lookup happens: each shape is priced once.
            memo_hits=0,
            memo_misses=0,
            memo_shapes=len(plan.shape_args),
            faults_injected=(),
            vector=True,
            batched=True,
        )
        outcomes.append(CellOutcome(
            result=result,
            tracker=tracker,
            sim_dur_ns=result.stats.total_time_ns,
            telemetry=telemetry,
        ))
    return outcomes


def _check_against_oracle(
    fresh: "list[CellSpec]", outcomes: "dict[CellSpec, CellOutcome]"
) -> int:
    """Bit-compare sampled synthesized cells with the scalar oracle.

    Sample: the first, middle, and last of ``fresh`` (stable for a
    given sweep enumeration), each checked by
    :func:`~repro.engine.cells.check_against_oracle`.  A diverging
    cell's outcome is replaced by a failure carrying every mismatch, so
    the sweep reports it.  Returns the number of cells checked.
    """
    from repro.resilience.failures import failure_from_exception

    picks = sorted({0, len(fresh) // 2, len(fresh) - 1}) if fresh else []
    for position in picks:
        spec = fresh[position]
        try:
            check_against_oracle(
                spec, outcomes[spec].result, outcomes[spec].tracker
            )
        except VectorEquivalenceError as exc:
            outcomes[spec] = CellOutcome.failure(
                failure_from_exception(exc, 1, with_traceback=False)
            )
    return len(picks)


def price_cells_batched(
    entries: "list[tuple[CellSpec, ArchBackend]]",
    use_cache: bool = True,
    cache_dir: "str | os.PathLike | None" = None,
) -> "tuple[dict[CellSpec, CellOutcome], BatchReport]":
    """Synthesize every eligible cell from its geometry group's plan.

    ``entries`` pairs each cell spec with its (derived) backend; the
    backends must be registry-resolvable while this runs (the sweep
    calls inside its registration window).  Cells are grouped by plan
    key; each group's plan is loaded from the plan store (or compiled
    and written back) and every point of the group is synthesized from
    it.  Outcomes are never disk-cached, so every cell is synthesized
    on every run.  Their telemetry is merged into the global registry
    in entry order -- the same accounting contract as ``run_cells``.

    A group whose compile or pricing fails is *deferred*, not failed:
    its cells are left out of the returned mapping and the sweep routes
    them through the per-cell engine, which owns failure semantics.
    """
    from repro.engine.cache import DiskCache
    from repro.obs.metrics import global_registry
    from repro.obs.telemetry import merge_cell_telemetry

    # The armed check keeps the sweep off the plan store, so no stored
    # plan escapes it.
    cache: "DiskCache | None" = (
        DiskCache(cache_dir)
        if use_cache and not vector_check_enabled() else None
    )
    report = BatchReport()
    outcomes: "dict[CellSpec, CellOutcome]" = {}

    groups: "OrderedDict[str, list[tuple[CellSpec, ArchBackend, DeviceConfig]]]" = OrderedDict()
    known_keys: "dict[typing.Hashable, str]" = {}
    unkeyed = 0
    for spec, backend in entries:
        # A cell whose config or plan key cannot even be computed (an
        # unknown benchmark, an invalid geometry) is deferred like a
        # failed compile: the per-cell engine owns failure semantics
        # and will produce the coded error outcome.
        try:
            config = backend.make_config(
                spec.num_ranks, **dict(spec.geometry_overrides)
            )
            cheap = _trace_group_key(spec, backend)
            plan_key = known_keys.get(cheap) if cheap is not None else None
            if plan_key is None:
                plan_key = plan_cache_key(backend, spec, config)
                if cheap is not None:
                    known_keys[cheap] = plan_key
        except Exception:  # noqa: BLE001 - defer to the engine path
            report.deferred += 1
            unkeyed += 1
            continue
        groups.setdefault(plan_key, []).append((spec, backend, config))
    if unkeyed:
        warnings.warn(
            f"batched pricing deferred {unkeyed} cell(s) whose "
            "pricing plan could not be keyed to the per-cell engine",
            RuntimeWarning,
            stacklevel=2,
        )

    registry = global_registry()
    for plan_key, group in groups.items():
        try:
            plan = cache.get_plan(plan_key) if cache is not None else None
            if plan is None:
                spec0, backend0, config0 = group[0]
                plan = compile_plan(spec0, backend0, config0)
                report.plan_misses += 1
                registry.counter("plan_cache.misses").inc()
                if cache is not None:
                    cache.put_plan(plan_key, plan)
            else:
                report.plan_hits += 1
                registry.counter("plan_cache.hits").inc()
            priced = price_group(plan, group)
        except Exception as exc:  # noqa: BLE001 - defer to the engine path
            report.deferred += len(group)
            warnings.warn(
                f"batched pricing deferred {len(group)} cell(s) to the "
                f"per-cell engine: {type(exc).__name__}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
            continue
        for (spec, _backend, _config), outcome in zip(group, priced):
            outcomes[spec] = outcome
    report.synthesized = len(outcomes)

    if vector_check_enabled():
        # Sample in sweep order, not group order.
        report.checked = _check_against_oracle(
            [spec for spec, _backend in entries if spec in outcomes],
            outcomes,
        )

    merge_cell_telemetry(
        registry,
        (telemetry for spec, _backend in entries
         if spec in outcomes
         and (telemetry := getattr(outcomes[spec], "telemetry", None))
         is not None),
    )
    return outcomes, report
