"""Sweep execution: compiled design points fanned through the engine.

:func:`run_sweep` is the bridge between a declarative
:class:`~repro.dse.spec.SweepSpec` and the existing execution stack.
For every compiled point it derives a
:class:`~repro.arch.parametric.ParametricBackend`, registers it (noting
which registrations are new so the registry is restored afterwards --
a sweep must leave the process exactly as it found it, including under
``repro serve``), builds one :class:`~repro.engine.cells.CellSpec` per
(point, benchmark) with the vectorized pricer on by default, and hands
the whole batch to :func:`repro.engine.run_cells` -- which supplies
caching (parametric cache keys are sound by construction: the knob
digest rides in both the device-config material and the model-version
stamp), process fan-out, retries, and deterministic merge order.

Metrics per point: kernel+host latency (ns) and energy (nJ), geometric
mean over the sweep's benchmarks, plus the ``banks x pe-width`` area
proxy read off the derived config.  Failed cells poison their point
(``failed=True``) but never the sweep.
"""

from __future__ import annotations

import dataclasses
import os
import time
import typing

from repro.arch.parametric import ParametricBackend
from repro.arch.registry import (
    is_registered,
    register_backend,
    resolve_backend,
    unregister_backend,
)
from repro.config.device import (
    CORE_SCOPE_SUBARRAY,
    CORE_SCOPE_SUBARRAY_GROUP,
)
from repro.dse.batch import batch_eligible, price_cells_batched
from repro.dse.pareto import ParetoPoint, pareto_frontier
from repro.dse.spec import SweepPoint, SweepSpec
from repro.engine import run_cells
from repro.engine.cells import CellSpec
from repro.engine.engine import resolve_jobs
from repro.experiments.runner import geometric_mean

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.common import BenchmarkResult
    from repro.config.device import DeviceConfig
    from repro.engine.engine import RetryPolicy


def pe_width_bits(config: "DeviceConfig") -> int:
    """Per-core processing-element width of a derived design, in bits.

    The cross-architecture leg of the area proxy: bit-serial subarray
    designs compute across every column of the subarray (one 1-bit lane
    per column); Fulcrum-class subarray groups and bank-level designs
    have an explicit word ALU width.
    """
    scope = config.device_type.core_scope
    if scope == CORE_SCOPE_SUBARRAY:
        return config.dram.geometry.cols_per_subarray
    if scope == CORE_SCOPE_SUBARRAY_GROUP:
        return config.arch.fulcrum_alu_bits
    return config.arch.bank_alu_bits


def area_proxy(config: "DeviceConfig") -> float:
    """First-order silicon-spend proxy: ``num_banks x pe_width_bits``.

    Banks (not cores) keep the proxy comparable across core scopes: a
    subarray-level design pays its logic in every subarray of the bank,
    which the per-column width term already captures.
    """
    return float(config.dram.geometry.num_banks * pe_width_bits(config))


@dataclasses.dataclass(frozen=True)
class PointMetrics:
    """Aggregated metrics of one design point across the benchmarks."""

    latency_ns: float
    energy_nj: float
    area_proxy: float


@dataclasses.dataclass
class PointOutcome:
    """One evaluated design point, with per-benchmark detail."""

    point: SweepPoint
    backend_id: str
    metrics: "PointMetrics | None"
    per_benchmark: "dict[str, dict[str, float]]"
    errors: "dict[str, str]"

    @property
    def failed(self) -> bool:
        return self.metrics is None


@dataclasses.dataclass
class SweepResult:
    """Everything one :func:`run_sweep` call produced."""

    spec: SweepSpec
    outcomes: "list[PointOutcome]"
    frontier_ids: "tuple[str, ...]"
    cache_hits: int = 0
    cache_misses: int = 0
    jobs: int = 1
    #: Benchmark results of the first evaluated point, keyed by
    #: benchmark -- the sample :mod:`repro.dse.report` characterizes
    #: benchmark classes from (the feature vector is a property of the
    #: benchmark, not of the design point).
    sample_results: "dict[str, BenchmarkResult]" = dataclasses.field(
        default_factory=dict
    )
    #: Sweep wall-clock, pricing-plan cache accounting, and how many
    #: cells the matrix pricer synthesized (0 on the per-cell path).
    #: Deliberately absent from :func:`repro.dse.report.sweep_payload`:
    #: the frontier report stays byte-identical between the batched and
    #: per-cell paths.
    wall_s: float = 0.0
    plan_hits: int = 0
    plan_misses: int = 0
    batched_cells: int = 0
    #: Batch-priced cells bit-compared against the scalar oracle under
    #: ``REPRO_VECTOR_CHECK``.
    checked_cells: int = 0

    @property
    def frontier(self) -> "list[PointOutcome]":
        on = set(self.frontier_ids)
        return [o for o in self.outcomes if o.point.point_id in on]

    @property
    def points_per_s(self) -> float:
        """Design points evaluated per wall second (0.0 when untimed)."""
        if self.wall_s <= 0:
            return 0.0
        return len(self.outcomes) / self.wall_s

    def total_commands(self) -> int:
        """PIM commands simulated across every successful cell."""
        total = 0
        for outcome in self.outcomes:
            for row in outcome.per_benchmark.values():
                total += int(row.get("commands", 0))
        return total


def _derive_all(
    points: "typing.Sequence[SweepPoint]",
) -> "tuple[dict[str, ParametricBackend], list[str]]":
    """Derive + register every point's backend; return (by id, new ids)."""
    derived: "dict[str, ParametricBackend]" = {}
    added: "list[str]" = []
    bases: "dict[str, typing.Any]" = {}
    for point in points:
        if point.point_id in derived:
            continue
        base = bases.get(point.base)
        if base is None:
            base = bases[point.base] = resolve_backend(point.base)
        # Compiled points carry knobs already normalized against their
        # base (SweepSpec.compile_points), so the backend can take them
        # verbatim instead of re-validating each point.
        backend = ParametricBackend(base, point.knobs, canonical=True)
        derived[backend.id] = backend
        if not is_registered(backend.id):
            register_backend(backend)
            added.append(backend.id)
    return derived, added


def run_sweep(
    spec: SweepSpec,
    jobs: "int | None" = None,
    use_cache: bool = True,
    cache_dir: "str | os.PathLike | None" = None,
    vector: bool = True,
    policy: "RetryPolicy | None" = None,
    batched: bool = True,
) -> SweepResult:
    """Evaluate every compiled point of ``spec`` and extract the frontier.

    Registry hygiene: backends this call registered are unregistered on
    the way out (even on failure), so a long-lived process -- the test
    suite, ``repro serve`` -- sees no registry growth from completed
    sweeps.  Points whose id was already registered (an overlapping
    concurrent sweep) are left alone, first owner wins.

    Batched pricing (docs/DSE.md "Batched pricing"): by default,
    analytic vector cells are grouped by geometry signature and priced
    through the matrix pricer (:mod:`repro.dse.batch`) -- one benchmark
    compile per group instead of one per point, with bit-identical
    totals by the PR 7 summation contract.  The per-cell engine path
    still runs for anything ineligible (``vector=False``, functional,
    fault plans) or when ``batched=False``.  Under the strict
    equivalence gate (``REPRO_VECTOR_CHECK``) the sweep still
    batch-prices, and the first, middle and last synthesized cells are
    bit-compared against the scalar oracle.
    """
    wall0 = time.perf_counter()
    points = spec.compile_points()
    derived, added = _derive_all(points)
    try:
        cell_specs: "list[CellSpec]" = []
        index: "dict[CellSpec, tuple[SweepPoint, str]]" = {}
        for point in points:
            backend = derived[point.point_id]
            for benchmark in spec.benchmarks:
                cell = CellSpec(
                    benchmark_key=benchmark,
                    device_type=backend.device_type,
                    num_ranks=spec.num_ranks,
                    paper_scale=True,
                    functional=False,
                    # Hypothetical geometries may shrink below a paper
                    # working set; the analytic model stays meaningful.
                    enforce_capacity=False,
                    vector=vector,
                )
                cell_specs.append(cell)
                index[cell] = (point, benchmark)
        batch_outcomes: "dict[CellSpec, typing.Any]" = {}
        plan_hits = plan_misses = batch_hits = synthesized = checked = 0
        if batched and vector:
            eligible = [
                (cell, derived[index[cell][0].point_id])
                for cell in cell_specs
                if batch_eligible(cell)
            ]
            if eligible:
                batch_outcomes, batch_report = price_cells_batched(
                    eligible, use_cache=use_cache, cache_dir=cache_dir,
                )
                plan_hits = batch_report.plan_hits
                plan_misses = batch_report.plan_misses
                batch_hits = batch_report.cache_hits
                synthesized = batch_report.synthesized
                checked = batch_report.checked
        remaining = [c for c in cell_specs if c not in batch_outcomes]
        execution = (
            run_cells(
                remaining, jobs=jobs, use_cache=use_cache,
                cache_dir=cache_dir, policy=policy,
            )
            if remaining
            else None
        )
    finally:
        for backend_id in added:
            unregister_backend(backend_id)

    by_point: "dict[str, PointOutcome]" = {}
    sample_results: "dict[str, BenchmarkResult]" = {}
    for cell in cell_specs:
        point, benchmark = index[cell]
        outcome = batch_outcomes.get(cell)
        if outcome is None:
            outcome = execution.outcomes[cell]  # type: ignore[union-attr]
        entry = by_point.get(point.point_id)
        if entry is None:
            entry = by_point[point.point_id] = PointOutcome(
                point=point, backend_id=point.point_id,
                metrics=None, per_benchmark={}, errors={},
            )
        if outcome.ok:
            result = outcome.result
            assert result is not None
            entry.per_benchmark[benchmark] = {
                "latency_ns": result.pim_kernel_host_time_ns,
                "energy_nj": result.pim_kernel_host_energy_nj,
                "commands": float(sum(result.op_counts.values())),
            }
            if benchmark not in sample_results:
                sample_results[benchmark] = result
        else:
            assert outcome.error is not None
            entry.errors[benchmark] = outcome.error.brief()

    outcomes: "list[PointOutcome]" = []
    for point in points:
        entry = by_point[point.point_id]
        if not entry.errors and entry.per_benchmark:
            config = derived[point.point_id].make_config(spec.num_ranks)
            entry.metrics = PointMetrics(
                latency_ns=geometric_mean(
                    row["latency_ns"] for row in entry.per_benchmark.values()
                ),
                energy_nj=geometric_mean(
                    row["energy_nj"] for row in entry.per_benchmark.values()
                ),
                area_proxy=area_proxy(config),
            )
        outcomes.append(entry)

    frontier = pareto_frontier(
        ParetoPoint(
            key=o.point.point_id,
            latency_ns=o.metrics.latency_ns,
            energy_nj=o.metrics.energy_nj,
            area_proxy=o.metrics.area_proxy,
        )
        for o in outcomes
        if o.metrics is not None
    )
    return SweepResult(
        spec=spec,
        outcomes=outcomes,
        frontier_ids=tuple(p.key for p in frontier),
        cache_hits=batch_hits + (execution.hits if execution else 0),
        cache_misses=synthesized + (execution.misses if execution else 0),
        jobs=execution.jobs if execution else resolve_jobs(jobs),
        sample_results=sample_results,
        wall_s=time.perf_counter() - wall0,
        plan_hits=plan_hits,
        plan_misses=plan_misses,
        batched_cells=synthesized,
        checked_cells=checked,
    )

