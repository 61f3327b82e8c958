"""Suite runner shared by all figure-regeneration experiments.

Runs every PIMbench benchmark on every PIM variant at a given rank count
and caches the results, so the per-figure drivers (speedup, energy,
breakdown, op-mix, rank scaling) reuse one simulation pass per
configuration instead of re-simulating.

Execution is delegated to :mod:`repro.engine`: each (benchmark,
architecture) cell can fan out across worker processes (``jobs``) and is
memoized in a persistent on-disk store keyed by the full device
configuration, benchmark parameters, and a model-version stamp, so a
re-run after a process restart is free and an edit to one perf model
invalidates only that architecture's entries.  The in-memory ``_CACHE``
here is a second, faster tier holding fully-assembled
:class:`SuiteResults` for the current process.  See
``docs/PERFORMANCE.md`` for the complete contract.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.arch import device_type_for, suite_device_order
from repro.bench.common import BenchmarkResult, PimBenchmark
from repro.bench.registry import BENCHMARK_CLASSES, make_benchmark
from repro.engine import CellSpec, DiskCache, run_cells
from repro.obs.spans import span

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.base import DeviceTypeLike
    from repro.resilience.failures import CellFailure
    from repro.resilience.policy import RetryPolicy

#: Figure order of the benchmarks (Table I order).
BENCHMARK_ORDER: "tuple[str, ...]" = tuple(cls.key for cls in BENCHMARK_CLASSES)
#: Figure order of the architectures (the paper-evaluated backends, in
#: registration order).
DEVICE_ORDER: "tuple[DeviceTypeLike, ...]" = suite_device_order()


@dataclasses.dataclass
class SuiteResults:
    """All (benchmark, architecture) results of one configuration.

    ``failures`` carries the cells that ultimately failed (keyed by
    their :class:`~repro.engine.CellSpec`, ready for
    :func:`repro.resilience.format_failure_summary`); those cells have
    no entry in ``results``, and the figure formatters render them as
    explicit gaps.
    """

    num_ranks: int
    paper_scale: bool
    benchmarks: "dict[str, PimBenchmark]"
    results: "dict[tuple[str, DeviceTypeLike], BenchmarkResult]"
    failures: "dict[CellSpec, CellFailure]" = dataclasses.field(
        default_factory=dict
    )

    @staticmethod
    def _resolve(device: "DeviceTypeLike | str") -> "DeviceTypeLike":
        """Accept a device-type object or a backend name/alias."""
        if isinstance(device, str):
            return device_type_for(device)
        return device

    def result(
        self, key: str, device: "DeviceTypeLike | str"
    ) -> BenchmarkResult:
        return self.results[(key, self._resolve(device))]

    def has_result(self, key: str, device: "DeviceTypeLike | str") -> bool:
        return (key, self._resolve(device)) in self.results

    @property
    def ok(self) -> bool:
        return not self.failures

    def benchmark_keys(self) -> "tuple[str, ...]":
        return tuple(k for k in BENCHMARK_ORDER if k in self.benchmarks)


_CACHE: "dict[tuple, SuiteResults]" = {}


def suite_cell_specs(
    num_ranks: int,
    paper_scale: bool,
    keys: "typing.Sequence[str]",
    functional: bool,
    enforce_capacity: bool,
    geometry_overrides: "dict[str, int] | None",
    vector: bool = True,
) -> "list[CellSpec]":
    """The suite's cells in deterministic (figure) order."""
    overrides = CellSpec.normalize_overrides(geometry_overrides)
    return [
        CellSpec(
            benchmark_key=key,
            device_type=device_type,
            num_ranks=num_ranks,
            paper_scale=paper_scale,
            functional=functional,
            enforce_capacity=enforce_capacity,
            geometry_overrides=overrides,
            vector=vector,
        )
        for key in keys
        for device_type in DEVICE_ORDER
    ]


def run_suite(
    num_ranks: int = 32,
    paper_scale: bool = True,
    keys: "typing.Sequence[str] | None" = None,
    functional: bool = False,
    geometry_overrides: "dict[str, int] | None" = None,
    use_cache: bool = True,
    enforce_capacity: bool = True,
    bus=None,
    jobs: "int | None" = None,
    cache_dir=None,
    policy: "RetryPolicy | None" = None,
    strict: bool = True,
    vector: bool = True,
) -> SuiteResults:
    """Run (or fetch cached) suite results for one configuration.

    ``enforce_capacity=False`` permits over-committed allocations, which
    the Figure 12 rank sweep needs: the paper runs the full Table I
    inputs even at rank counts whose capacity they exceed.

    ``bus`` attaches a :class:`repro.obs.events.EventBus` to every device
    the sweep creates, wrapping each (benchmark, architecture) cell in a
    span and labeling its events with the device configuration; profiled
    runs never touch the cache (events only stream while simulating).

    ``jobs`` fans the cells out across that many worker processes
    (default: ``$REPRO_JOBS`` or serial); results are merged in figure
    order, so any job count produces identical output.  ``cache_dir``
    overrides the persistent result store's location (default:
    ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``); ``use_cache=False``
    bypasses both the in-memory and the on-disk tier.

    ``policy`` sets the resilience contract (retries, per-cell timeout,
    fail-fast; default from ``$REPRO_MAX_RETRIES``/``$REPRO_CELL_TIMEOUT``).
    With ``strict=True`` (the library default) any cell that ultimately
    fails raises :class:`~repro.engine.CellExecutionError`; with
    ``strict=False`` failed cells are dropped from ``results`` and
    reported in ``SuiteResults.failures`` so drivers can render gaps --
    the CLI's behavior.  Suites carrying failures are never memoized.

    ``vector=True`` (the default) routes every analytic cell through the
    vectorized histogram-pricing engine (``repro.perf.vector``);
    ``vector=False`` walks the scalar tracker, the reference oracle --
    byte-identical results, separate cache entries; see
    docs/VECTORIZATION.md.
    """
    keys = tuple(keys) if keys is not None else BENCHMARK_ORDER
    cache_key = (
        num_ranks, paper_scale, keys, functional, enforce_capacity,
        tuple(sorted((geometry_overrides or {}).items())), vector,
    )
    use_cache = use_cache and bus is None
    if use_cache and cache_key in _CACHE:
        return _CACHE[cache_key]

    specs = suite_cell_specs(
        num_ranks, paper_scale, keys, functional, enforce_capacity,
        geometry_overrides, vector=vector,
    )
    suite_process = bus.process if bus is not None else None
    with span(f"suite:{num_ranks}ranks", bus,
              {"paper_scale": paper_scale, "benchmarks": len(keys)}):
        execution = run_cells(
            specs, jobs=jobs, use_cache=use_cache, cache_dir=cache_dir,
            bus=bus, policy=policy,
        )
        if bus is not None:
            # The suite span's end must pair with its begin on the same
            # process track, so restore the label the span opened under.
            bus.process = suite_process
    if strict:
        execution.raise_first_failure()
    benchmarks = {
        key: make_benchmark(key, paper_scale=paper_scale) for key in keys
    }
    results = {
        (spec.benchmark_key, spec.device_type): execution.outcome(spec).result
        for spec in specs
        if execution.outcome(spec).ok
    }
    suite = SuiteResults(
        num_ranks=num_ranks,
        paper_scale=paper_scale,
        benchmarks=benchmarks,
        results=results,
        failures=execution.failures,
    )
    if use_cache and suite.ok:
        _CACHE[cache_key] = suite
    return suite


def clear_cache(cache_dir=None, disk: bool = True) -> int:
    """Drop cached suite results.

    Always clears the in-process tier; with ``disk=True`` (the default)
    also deletes every entry of the persistent store at ``cache_dir``
    (resolved like :func:`repro.engine.default_cache_dir`).  Returns the
    number of disk entries removed.
    """
    _CACHE.clear()
    if not disk:
        return 0
    return DiskCache(cache_dir).clear()


def export_suite_json(suite: SuiteResults) -> str:
    """Serialize a whole suite run (for archiving / external analysis)."""
    import json

    payload = {
        "num_ranks": suite.num_ranks,
        "paper_scale": suite.paper_scale,
        "results": [
            suite.results[(key, device_type)].to_dict()
            for key in suite.benchmark_keys()
            for device_type in DEVICE_ORDER
        ],
    }
    return json.dumps(payload, indent=2)


def geometric_mean(values: "typing.Iterable[float]") -> float:
    """Geometric mean, ignoring non-positive entries (as figure Gmeans do)."""
    import math

    logs = [math.log(v) for v in values if v > 0]
    if not logs:
        return 0.0
    return math.exp(sum(logs) / len(logs))
