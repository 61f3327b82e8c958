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
3. evaluate each point's backend ``cost_table`` over the plan's shapes
   and price all of them in one :func:`~repro.perf.plans.price_plan`
   call -- the same pricer a single vectorized cell runs with one
   table, so every synthesized total is bit-identical to the per-cell
   result, which is itself bit-identical to the scalar path;
4. synthesize per-cell :class:`~repro.engine.cells.CellOutcome`\\ s that
   pickle, disk-cache, and report exactly like per-cell outcomes.

``REPRO_VECTOR_CHECK=1`` (CLI: ``--vector-check``) re-runs the first,
middle and last synthesized cells through the scalar oracle and
compares every accumulator and the serialized result at full bit
precision; a diverging cell becomes a failed outcome naming every
mismatch.
"""

from __future__ import annotations

import dataclasses
import os
import time
import typing
import warnings
from collections import OrderedDict

from repro.bench.common import BenchmarkResult
from repro.engine.cells import CellOutcome
from repro.obs.telemetry import CellTelemetry
from repro.perf.plans import (
    COST_ONLY_ARCH_FIELDS,
    PricingPlan,
    compile_plan,
    plan_cache_key,
    price_plan,
)
from repro.perf.vector import (
    VectorEquivalenceError,
    VectorStatsTracker,
    vector_check_enabled,
    verify_equivalence,
)

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
    """What one :func:`price_cells_batched` call did."""

    cache_hits: int = 0
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


_DEFAULT_POWER = None


def _default_power():
    """One shared default :class:`PowerConfig` (frozen, process-wide).

    Every per-cell device constructs ``PowerConfig()`` afresh; the
    values are identical by definition, so the batched pricer builds it
    once and shares the instance across points.
    """
    global _DEFAULT_POWER
    if _DEFAULT_POWER is None:
        from repro.config.power import PowerConfig

        _DEFAULT_POWER = PowerConfig()
    return _DEFAULT_POWER


def _point_pipeline(
    backend: "ArchBackend", config: "DeviceConfig"
) -> "typing.Any":
    """The exact pricing stack a :class:`PimDevice` would build.

    Same constructors, same order (``repro.core.device.PimDevice``):
    the perf model from the dispatcher, the energy model with the
    default power config, the memoizing pipeline bound to the point's
    backend -- so ``cost_table`` prices every shape bit-identically to
    the per-cell run.  Memoization is off: a pipeline that prices each
    distinct shape exactly once and is then dropped can never hit its
    memo, and the memo changes only *when* costs are derived, never
    their values.

    Dispatch shortcuts only, never value shortcuts: the backend in hand
    is exactly what ``arch_for(config)`` resolves while the sweep's
    registration window is open, so calling its factory directly and
    pre-resolving the ALU energy constant produce the same objects the
    per-cell engine builds -- minus two registry lookups per point.
    """
    from repro.energy.model import EnergyModel
    from repro.perf.memo import CostPipeline

    perf = backend.make_perf_model(config)
    energy = EnergyModel(config, power=_default_power(), backend=backend)
    return CostPipeline(perf, energy, backend, enabled=False)


def price_group(
    plan: PricingPlan,
    group: "list[tuple[CellSpec, ArchBackend, DeviceConfig]]",
) -> "list[CellOutcome]":
    """Price every point of one geometry group from its shared plan.

    Returns one synthesized :class:`~repro.engine.cells.CellOutcome`
    per group entry, in order.  Each outcome's totals are bit-identical
    to what the per-cell vector path would produce for the same spec.
    The outcomes mirror :meth:`repro.bench.common.PimBenchmark.run` (the
    snapshot delta against a fresh tracker, the op census aggregated by
    category in first-occurrence order) and
    :func:`repro.engine.cells.run_cell` (sealed tracker, modeled
    duration, telemetry), so downstream consumers -- DiskCache, reports,
    the frontier -- cannot tell a synthesized outcome from a simulated
    one.
    """
    from repro.obs.telemetry import peak_rss_kb

    group_wall0 = time.perf_counter()
    group_cpu0 = time.process_time()
    # Per-point cost tables: the only per-point model evaluation left.
    # The pipelines never memoize (see _point_pipeline), so the
    # synthesized telemetry reports zero memo traffic, which is exactly
    # what happened.
    tables = [
        backend.cost_table(_point_pipeline(backend, config), plan.shape_args)
        if plan.shape_args else None
        for _spec, backend, config in group
    ]
    totals = price_plan(plan, tables)
    points = len(group)
    group_wall = time.perf_counter() - group_wall0
    group_cpu = time.process_time() - group_cpu0
    # One RSS sample serves the whole group: within one pricing pass
    # the value cannot meaningfully change between points.
    rss_kb = peak_rss_kb()

    # The category census is point-independent -- every point of the
    # group issues the same integer command counts.
    op_counts: "dict" = {}
    for kind, count in totals.op_counts.items():
        if count:
            op_counts[kind.category] = op_counts.get(kind.category, 0) + count
    commands = int(sum(op_counts.values()))
    outcomes: "list[CellOutcome]" = []
    for position, (spec, _backend, config) in enumerate(group):
        tracker = VectorStatsTracker.synthesize_sealed(
            totals.tracker_fields(position)
        )
        # A fresh tracker's baseline is the empty snapshot, and the
        # per-cell ``after - before`` delta against it is byte-identical
        # (type, structure, and every float bit) to the snapshot itself.
        result = BenchmarkResult(
            benchmark=plan.benchmark_name,
            device_type=config.device_type,
            stats=tracker.snapshot(),
            op_counts=dict(op_counts),
            cpu_time_ns=plan.cpu_time_ns,
            cpu_energy_nj=plan.cpu_energy_nj,
            gpu_time_ns=plan.gpu_time_ns,
            gpu_energy_nj=plan.gpu_energy_nj,
            verified=None,
        )
        telemetry = CellTelemetry(
            benchmark=spec.benchmark_key,
            device=str(getattr(spec.device_type, "value", spec.device_type)),
            num_ranks=spec.num_ranks,
            attempt=1,
            wall_s=group_wall / points,
            cpu_s=group_cpu / points,
            peak_rss_kb=rss_kb,
            commands_simulated=commands,
            memo_hits=0,
            memo_misses=0,
            memo_shapes=0,
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
    given sweep enumeration), each re-simulated with ``vector=False``.
    A diverging cell's outcome is replaced by a failure carrying every
    mismatch, so the sweep reports it and is never cached.  Returns the
    number of cells checked.
    """
    from repro.engine.cells import run_cell
    from repro.resilience.failures import failure_from_exception

    picks = sorted({0, len(fresh) // 2, len(fresh) - 1}) if fresh else []
    for position in picks:
        spec = fresh[position]
        oracle = run_cell(dataclasses.replace(spec, vector=False))
        batched = outcomes[spec]
        try:
            verify_equivalence(
                batched.tracker,
                oracle.tracker,
                batched.result,
                oracle.result,
                label=(
                    f"batched {spec.benchmark_key} on "
                    f"{getattr(spec.device_type, 'value', spec.device_type)}"
                ),
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
    """Serve every eligible cell from the plan cache + matrix pricer.

    ``entries`` pairs each cell spec with its (derived) backend; the
    backends must be registry-resolvable while this runs (the sweep
    calls inside its registration window).  Cells already in the
    per-cell disk cache are served from it (telemetry re-flagged
    ``from_cache=True`` exactly like the engine); the rest are grouped
    by plan key, priced, written back to the per-cell cache under their
    normal keys, and their telemetry merged into the global registry in
    entry order -- the same accounting contract as ``run_cells``.

    A group whose compile or pricing fails is *deferred*, not failed:
    its cells are left out of the returned mapping and the sweep routes
    them through the per-cell engine, which owns failure semantics.
    """
    from repro.engine.cache import DiskCache, cell_cache_key
    from repro.obs.metrics import global_registry
    from repro.obs.telemetry import merge_cell_telemetry

    cache: "DiskCache | None" = DiskCache(cache_dir) if use_cache else None
    report = BatchReport()
    outcomes: "dict[CellSpec, CellOutcome]" = {}
    keys: "dict[CellSpec, str]" = {}
    synthesized: "set[CellSpec]" = set()

    if cache is not None:
        for spec, _backend in entries:
            key = keys[spec] = cell_cache_key(spec)
            cached = cache.get(key)
            if cached is not None:
                telemetry = getattr(cached, "telemetry", None)
                if telemetry is not None:
                    cached.telemetry = dataclasses.replace(
                        telemetry, from_cache=True
                    )
                outcomes[spec] = cached
                report.cache_hits += 1

    groups: "OrderedDict[str, list[tuple[CellSpec, ArchBackend, DeviceConfig]]]" = OrderedDict()
    known_keys: "dict[typing.Hashable, str]" = {}
    unkeyed = 0
    for spec, backend in entries:
        if spec in outcomes:
            continue
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
            synthesized.add(spec)
    report.synthesized = len(synthesized)

    # Fresh cells in sweep order; checked before caching, so a cell the
    # oracle rejects is never written.
    fresh = [spec for spec, _backend in entries if spec in synthesized]
    if vector_check_enabled():
        report.checked = _check_against_oracle(fresh, outcomes)
    if cache is not None:
        for spec in fresh:
            if outcomes[spec].ok:
                cache.put(keys[spec], outcomes[spec])

    merge_cell_telemetry(
        registry,
        (telemetry for spec, _backend in entries
         if spec in outcomes
         and (telemetry := getattr(outcomes[spec], "telemetry", None))
         is not None),
    )
    if cache is not None:
        cache.flush_usage()
    return outcomes, report
