"""Sweep execution: compiled design points fanned through the engine.

:func:`run_sweep` is the bridge between a declarative
:class:`~repro.dse.spec.SweepSpec` and the existing execution stack.
For every compiled point it derives a
:class:`~repro.arch.parametric.ParametricBackend` (a value: nothing is
registered, so a sweep leaves the architecture registry as it found
it, including under ``repro serve``), prices its (point, benchmark)
cells from each benchmark's cached recording, laid out once per
geometry, into a table of results
(:mod:`repro.dse.batch`), and hands the rest to
:func:`repro.engine.run_cells` -- which supplies per-cell caching
(parametric cache keys are sound by construction: the knob digest rides
in both the device-config material and the model-version stamp),
process fan-out, retries, and deterministic merge order.

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
from repro.arch.registry import resolve_backend
from repro.config.device import (
    CORE_SCOPE_SUBARRAY,
    CORE_SCOPE_SUBARRAY_GROUP,
)
from repro.dse.batch import (
    BatchReport,
    CellMetrics,
    TableEntry,
    batch_eligible,
    price_cells_batched,
)
from repro.dse.pareto import ParetoPoint, pareto_frontier
from repro.dse.spec import SweepPoint, SweepSpec
from repro.engine import run_cells
from repro.engine.cells import CellSpec
from repro.engine.engine import resolve_jobs
from repro.experiments.runner import geometric_mean
from repro.resilience.failures import CellFailure

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
    #: Per-cell cache hits among the cells ``run_cells`` served.  A
    #: batch-priced cell is synthesized on every run: it is a miss.
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
    #: Sweep wall-clock, plan-store accounting (benchmark recordings
    #: loaded vs recorded), and how many cells the matrix pricer
    #: synthesized (0 on the per-cell path).
    #: Deliberately absent from :func:`repro.dse.report.sweep_payload`:
    #: the frontier report stays byte-identical between the batched and
    #: scalar paths.
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


def _derive_all(
    points: "typing.Sequence[SweepPoint]",
) -> "list[ParametricBackend]":
    """Derive each point's backend, in point order."""
    backends: "list[ParametricBackend]" = []
    bases: "dict[str, typing.Any]" = {}
    for point in points:
        base = bases.get(point.base)
        if base is None:
            base = bases[point.base] = resolve_backend(point.base)
        # Compiled points carry knobs already normalized against their
        # base (SweepSpec.compile_points), so the backend can take them
        # verbatim instead of re-validating each point.
        backend = ParametricBackend(base, point.knobs, canonical=True)
        backends.append(backend)
    return backends


def run_sweep(
    spec: SweepSpec,
    jobs: "int | None" = None,
    use_cache: bool = True,
    cache_dir: "str | os.PathLike | None" = None,
    vector: bool = True,
    policy: "RetryPolicy | None" = None,
) -> SweepResult:
    """Evaluate every compiled point of ``spec`` and extract the frontier.

    Batched pricing (docs/DSE.md "Batched pricing"): by default every
    cell is priced from its geometry group's plan (:mod:`repro.dse.batch`:
    one recording per benchmark, one layout per geometry group,
    bit-identical totals); with ``use_cache`` only the recordings
    persist.  The per-cell engine, with its per-cell
    cache, runs what the batch defers, or every cell with
    ``vector=False``.  Under ``REPRO_VECTOR_CHECK`` the sweep still
    batch-prices and bit-compares three sampled cells with the oracle.
    """
    wall0 = time.perf_counter()
    points = spec.compile_points()
    backends = _derive_all(points)
    benchmarks = spec.benchmarks
    width = len(benchmarks)

    def cell(index: int) -> CellSpec:
        """The engine spec of sweep cell ``index`` (point-major order)."""
        return CellSpec(
            benchmark_key=benchmarks[index % width],
            device_type=backends[index // width].device_type,
            num_ranks=spec.num_ranks,
            paper_scale=True,
            functional=False,
            # Hypothetical geometries may shrink below a paper
            # working set; the analytic model stays meaningful.
            enforce_capacity=False,
            vector=vector,
        )

    # One entry per (point, benchmark) cell: its metrics or its result,
    # or the failure that replaced it.
    table: "list[TableEntry]" = (
        [None] * (len(points) * width)
    )
    batch = BatchReport()
    if table and batch_eligible(cell(0)):
        table, batch = price_cells_batched(
            backends, benchmarks, spec.num_ranks, cell,
            use_cache=use_cache, cache_dir=cache_dir,
        )
    remaining = [i for i, entry in enumerate(table) if entry is None]
    cells = [cell(index) for index in remaining]
    execution = (
        run_cells(
            cells, jobs=jobs, use_cache=use_cache,
            cache_dir=cache_dir, policy=policy,
        )
        if cells
        else None
    )
    if execution is not None:
        for index, cell_spec in zip(remaining, cells):
            outcome = execution.outcomes[cell_spec]
            table[index] = outcome.result if outcome.ok else outcome.error

    outcomes: "list[PointOutcome]" = []
    sample_results: "dict[str, BenchmarkResult]" = {}
    for position, point in enumerate(points):
        entry = PointOutcome(
            point=point, backend_id=point.point_id,
            metrics=None, per_benchmark={}, errors={},
        )
        for offset, benchmark in enumerate(benchmarks):
            result = table[position * width + offset]
            if isinstance(result, CellFailure):
                entry.errors[benchmark] = result.brief()
                continue
            assert result is not None
            if not isinstance(result, CellMetrics):
                # A benchmark's first successful cell is a full result
                # (price_cells_batched), so the sample is in point order.
                sample_results.setdefault(benchmark, result)
                result = CellMetrics.of(result)
            entry.per_benchmark[benchmark] = result._asdict()
        if not entry.errors and entry.per_benchmark:
            config = backends[position].make_config(spec.num_ranks)
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
        cache_hits=execution.hits if execution else 0,
        cache_misses=(
            batch.synthesized + (execution.misses if execution else 0)
        ),
        jobs=execution.jobs if execution else resolve_jobs(jobs),
        sample_results=sample_results,
        wall_s=time.perf_counter() - wall0,
        plan_hits=batch.plan_hits,
        plan_misses=batch.plan_misses,
        batched_cells=batch.synthesized,
        checked_cells=batch.checked,
    )

