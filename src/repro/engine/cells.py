"""Experiment cells: the unit of work the engine schedules and caches.

A *cell* is one (benchmark, device configuration) simulation -- one bar
of one figure.  :class:`CellSpec` pins down everything that determines a
cell's numbers (benchmark key and parameter scale, device type, DRAM
geometry, capacity enforcement, functional vs analytic mode), which
makes it both the fan-out unit for the process pool and the identity the
disk cache is keyed on.  :class:`CellOutcome` is everything a run
produces: the :class:`~repro.bench.common.BenchmarkResult` the figure
harnesses consume, the full per-command stats table (so ``repro run``
can re-render a Listing-3 report from a cache hit), and -- when the run
was observed -- the recorded event stream for parent-side replay.
"""

from __future__ import annotations

import dataclasses
import os
import time
import typing

from repro.bench.common import BenchmarkResult, PimBenchmark
from repro.bench.registry import BENCHMARKS_BY_KEY
from repro.config.device import DeviceConfig
from repro.core.errors import PimFaultInjectionError
from repro.core.stats import StatsTracker

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.arch.base import DeviceTypeLike
    from repro.faults.models import FaultPlan
    from repro.obs.events import EventBus, ObsEvent
    from repro.obs.telemetry import CellTelemetry
    from repro.resilience.failures import CellFailure


#: Environment switch for the strict scalar-equivalence cross-check:
#: any non-empty value makes vectorized cells also run the scalar path
#: and bit-compare the totals, and keeps every cell out of the result
#: cache so none goes unchecked (CLI: ``--vector-check``).
VECTOR_CHECK_ENV = "REPRO_VECTOR_CHECK"


def vector_check_enabled() -> bool:
    """Whether the strict scalar cross-check is armed (env or CLI)."""
    return bool(os.environ.get(VECTOR_CHECK_ENV))


def benchmark_keys() -> "list[str]":
    """Every key :func:`resolve_benchmark_class` accepts: Table I, then
    the extensions, each sorted."""
    from repro.bench.extensions import EXTENSION_BENCHMARKS

    return sorted(BENCHMARKS_BY_KEY) + sorted(
        e.key for e in EXTENSION_BENCHMARKS
    )


def resolve_benchmark_class(key: str) -> "type[PimBenchmark]":
    """Benchmark class for a key, searching Table I then the extensions."""
    cls = BENCHMARKS_BY_KEY.get(key)
    if cls is not None:
        return cls
    from repro.bench.extensions import EXTENSION_BENCHMARKS

    for ext in EXTENSION_BENCHMARKS:
        if ext.key == key:
            return ext
    raise KeyError(f"unknown benchmark {key!r}; known: {benchmark_keys()}")


@dataclasses.dataclass(frozen=True)
class CellSpec:
    """Immutable identity of one suite cell.

    ``geometry_overrides`` is a sorted tuple of (field, value) pairs so
    the spec stays hashable and order-insensitive.
    """

    benchmark_key: str
    device_type: "DeviceTypeLike"
    num_ranks: int = 32
    paper_scale: bool = True
    functional: bool = False
    enforce_capacity: bool = True
    geometry_overrides: "tuple[tuple[str, int], ...]" = ()
    #: Optional seeded fault plan (see :mod:`repro.faults`): device
    #: faults corrupt the functional simulation; engine faults attack
    #: the worker itself (chaos-testing the resilience layer).  Part of
    #: the cell's cache identity.
    fault_plan: "FaultPlan | None" = None
    #: Vectorized histogram pricing (see docs/VECTORIZATION.md): compile
    #: the analytic run into a shape histogram and price it in one numpy
    #: pass.  Totals are byte-identical to the scalar path by contract;
    #: the flag still stamps the cache key (with the vector engine's own
    #: source digest) so the two paths never share cache entries.
    #: Ignored -- with a scalar fallback -- for functional, observed, or
    #: device-fault cells, which need the per-issue path.
    vector: bool = False

    def __hash__(self) -> int:
        """Field-tuple hash (what ``@dataclass`` generates), cached.

        The engine hashes every cell spec many times -- its outcome
        and attempt maps, the cache-key memo -- and the generated hash
        re-walks all nine fields (including the derived device type's
        own dataclass hash) on each call.  The cache
        lives in ``__dict__`` so ``==``/``hash`` semantics and the
        frozen contract are untouched; ``__getstate__`` drops it so a
        pickled spec never carries one process's string-hash salt into
        another (hash randomization is per-process).
        """
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((
                self.benchmark_key, self.device_type, self.num_ranks,
                self.paper_scale, self.functional, self.enforce_capacity,
                self.geometry_overrides, self.fault_plan, self.vector,
            ))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __getstate__(self) -> "dict[str, object]":
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @staticmethod
    def normalize_overrides(
        overrides: "dict[str, int] | None",
    ) -> "tuple[tuple[str, int], ...]":
        return tuple(sorted((overrides or {}).items()))

    def device_config(self) -> DeviceConfig:
        from repro.arch.registry import arch_for

        return arch_for(self.device_type).make_config(
            self.num_ranks, **dict(self.geometry_overrides)
        )

    def make_benchmark(self) -> PimBenchmark:
        cls = resolve_benchmark_class(self.benchmark_key)
        params = cls.paper_params() if self.paper_scale else cls.default_params()
        return cls(**params)


@dataclasses.dataclass
class CellOutcome:
    """Everything one cell run produced -- or why it produced nothing.

    ``tracker`` is the device's full :class:`StatsTracker` (bus
    detached): richer than ``result.stats`` because it keeps the
    per-command-signature table and per-direction copy stats that the
    Listing-3 report renders.  ``events`` is only populated when the
    cell ran in a worker under observation; it is never written to the
    disk cache (profiled runs bypass it).

    A cell that raised, hung past its timeout, or whose worker died
    becomes ``CellOutcome.failure(error)``: ``result``/``tracker`` are
    ``None`` and ``error`` holds the structured
    :class:`~repro.resilience.failures.CellFailure`.  Failed outcomes
    are never cached.  ``faults_injected`` tallies deliberate
    corruptions when the cell ran under a fault plan.
    """

    result: "BenchmarkResult | None"
    tracker: "StatsTracker | None"
    sim_dur_ns: float = 0.0
    events: "tuple[ObsEvent, ...] | None" = None
    error: "CellFailure | None" = None
    faults_injected: "tuple[tuple[str, int], ...] | None" = None
    #: Per-cell resource accounting captured where the cell actually ran
    #: (see :mod:`repro.obs.telemetry`).  Persisted in the disk cache;
    #: entries written before telemetry existed read back as ``None``.
    telemetry: "CellTelemetry | None" = None

    @classmethod
    def failure(cls, error: "CellFailure") -> "CellOutcome":
        """The outcome of a cell that ultimately failed."""
        return cls(result=None, tracker=None, error=error)

    @property
    def ok(self) -> bool:
        return self.error is None

    def without_events(self) -> "CellOutcome":
        if self.events is None:
            return self
        return dataclasses.replace(self, events=None)


class CellExecutionError(RuntimeError):
    """Raised by strict callers when a run's structured failures must
    surface as an exception (e.g. library use of ``run_suite``).

    ``error`` is the first failed cell's record; ``failures`` holds
    every failed cell of the run, so a caller can still print the
    failure table.
    """

    def __init__(self, failures: "dict[CellSpec, CellFailure]") -> None:
        self.error = next(iter(failures.values()))
        super().__init__(self.error.brief())
        self.failures = failures


def _apply_engine_faults(spec: CellSpec, attempt: int, isolated: bool) -> None:
    """Fire the worker-level chaos faults of a cell's plan, if any.

    Runs before the simulation so a hang/crash models a worker that
    never produced a result.  ``attempt`` is 1-based; transient faults
    stop firing once ``attempt`` exceeds their budget.
    """
    if spec.fault_plan is None:
        return
    from repro.faults.models import (
        WorkerCrashFault,
        WorkerExceptionFault,
        WorkerHangFault,
    )

    for fault in spec.fault_plan.engine_faults:
        if isinstance(fault, WorkerHangFault):
            if fault.fail_attempts is None or attempt <= fault.fail_attempts:
                time.sleep(fault.seconds)
        elif isinstance(fault, WorkerExceptionFault):
            if attempt <= fault.fail_attempts:
                raise PimFaultInjectionError(
                    fault.message,
                    benchmark=spec.benchmark_key, attempt=attempt,
                )
        elif isinstance(fault, WorkerCrashFault):
            if attempt <= fault.fail_attempts:
                if not isolated:
                    raise PimFaultInjectionError(
                        "WorkerCrashFault requires process isolation "
                        "(it would kill this process)",
                        benchmark=spec.benchmark_key,
                    )
                os._exit(fault.exit_code)


def run_cell(
    spec: CellSpec,
    bus: "EventBus | None" = None,
    record_events: bool = False,
    attempt: int = 1,
    isolated: bool = False,
) -> CellOutcome:
    """Simulate one cell from scratch.

    ``bus`` streams events live onto an existing parent bus (the serial
    path).  ``record_events`` instead builds a private bus whose events
    are captured into the outcome for later replay (the worker path).
    The two are mutually exclusive.  ``attempt`` is the 1-based try
    number (retries pass 2, 3, ...) -- transient injected faults key off
    it; ``isolated`` tells the cell it runs in a disposable worker
    process, which hard-crash faults require.
    """
    _apply_engine_faults(spec, attempt, isolated)
    from repro.baselines.cpu import CpuModel
    from repro.baselines.gpu import GpuModel
    from repro.core.device import PimDevice
    from repro.obs.telemetry import TelemetryCapture

    capture = TelemetryCapture()
    config = spec.device_config()
    recorder = None
    if record_events:
        if bus is not None:
            raise ValueError("record_events and a live bus are exclusive")
        from repro.obs import EventBus, RecordingSink

        bus = EventBus(process=config.label)
        recorder = bus.subscribe(RecordingSink())

    injector = None
    if spec.fault_plan is not None and spec.fault_plan.device_faults:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(spec.fault_plan)

    # Vector mode needs the pure analytic path: a functional run has a
    # real data path, an observed run needs per-issue events, and device
    # faults hook the functional engine -- all fall back to the scalar
    # path (docs/VECTORIZATION.md "when the scalar path still runs").
    # The numbers are identical either way; only the speed differs.
    vector_active = (
        spec.vector
        and not spec.functional
        and bus is None
        and injector is None
    )
    if vector_active:
        # A vectorized cell is a one-point plan: lay the benchmark's
        # recording out on this target, then synthesize exactly as a
        # sweep prices a geometry group.
        from repro.arch.registry import arch_for
        from repro.perf.plans import plan_for, synthesize

        backend = arch_for(config)
        plan = plan_for(spec, backend, config)
        ((result, tracker),) = synthesize(plan, [(backend, config)])
        if vector_check_enabled():
            check_against_oracle(spec, result, tracker)
        # No memo lookup happens: each distinct shape is priced once.
        memo_hits, memo_misses, memo_shapes = 0, 0, len(plan.shape_args)
    else:
        device = PimDevice(
            config,
            functional=spec.functional,
            enforce_capacity=spec.enforce_capacity,
            bus=bus,
            faults=injector,
        )
        result = spec.make_benchmark().run(device, CpuModel(), GpuModel())
        tracker = device.stats
        memo_hits, memo_misses, memo_shapes = device.pipeline.stats()
        if bus is not None and bus.active:
            # Perfetto counter track: the memo's cumulative hit/miss
            # totals at the cell boundary, so hit rates are visible on
            # the timeline (one sample per cell; the track lives under
            # the device's process group).  Emitted identically on the
            # serial and the worker/replay path, preserving stream
            # byte-identity.
            lookups = memo_hits + memo_misses
            bus.emit_counter("cost_memo", {
                "hits": float(memo_hits),
                "misses": float(memo_misses),
                "hit_rate_pct": (
                    100.0 * memo_hits / lookups if lookups else 0.0
                ),
            })
        tracker.bus = None  # the tracker outlives the run; never the bus
    faults_injected = injector.counts() if injector is not None else None
    return CellOutcome(
        result=result,
        tracker=tracker,
        sim_dur_ns=result.stats.total_time_ns,
        events=tuple(recorder.events) if recorder is not None else None,
        faults_injected=faults_injected,
        telemetry=capture.finish(
            benchmark=spec.benchmark_key,
            device=str(getattr(spec.device_type, "value", spec.device_type)),
            num_ranks=spec.num_ranks,
            attempt=attempt,
            commands_simulated=int(sum(result.op_counts.values())),
            memo_hits=memo_hits,
            memo_misses=memo_misses,
            memo_shapes=memo_shapes,
            faults_injected=tuple(faults_injected or ()),
            vector=vector_active,
        ),
    )


def check_against_oracle(
    spec: CellSpec, result: BenchmarkResult, tracker: StatsTracker
) -> None:
    """The one oracle check: bit-compare a vector cell with its scalar twin.

    Re-runs ``spec`` through the scalar path and compares every
    accumulator and the serialized result (the suite-JSON payload);
    raises :class:`~repro.perf.vector.VectorEquivalenceError` naming
    every mismatch.  ``run_cell`` lets it fail the cell; a sweep turns
    it into the sampled cell's failure entry.
    """
    from repro.perf.vector import verify_equivalence

    oracle = run_cell(dataclasses.replace(spec, vector=False))
    verify_equivalence(
        tracker,
        oracle.tracker,
        result,
        oracle.result,
        label=(
            f"{spec.benchmark_key} on "
            f"{getattr(spec.device_type, 'value', spec.device_type)}"
        ),
    )
