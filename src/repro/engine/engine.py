"""The experiment engine: parallel cell execution with persistent caching.

:func:`run_cells` is the single entry point every suite/figure driver
funnels through.  Given an ordered list of
:class:`~repro.engine.cells.CellSpec`, it

1. looks each cell up in the disk cache (unless caching is off, the
   run is observed, or ``--vector-check`` is armed),
2. fans the misses out across a :class:`ProcessPoolExecutor` when
   ``jobs > 1`` (or simulates them inline when serial),
3. merges everything back **in spec order**, so the caller sees the
   same deterministic ordering regardless of worker scheduling, and
4. writes fresh results back to the cache.

Resilience contract (see ``docs/RESILIENCE.md``): a
:class:`~repro.resilience.RetryPolicy` governs what happens when a cell
raises, hangs, or its worker dies.  Failures degrade into structured
:class:`~repro.engine.cells.CellOutcome` failures carried through
:class:`ExecutionResult` -- one bad cell never kills ``run_cells``.
Retries re-run the cell with exponential backoff and deterministic
jitter; a per-cell wall-clock timeout forces process isolation (even for
``jobs=1``) so a hung worker can be killed; ``fail_fast`` stops
scheduling after the first ultimate failure and marks the rest
``SKIPPED``.  Failed outcomes are never written to the cache.

Observability contract: when a bus is attached, caching is bypassed
entirely (events only stream while simulating, so a cache hit would
produce a silent hole in the trace).  Serial observed runs stream onto
the parent bus live, exactly as before the engine existed.  Parallel
observed runs give each worker a private bus with a
:class:`~repro.obs.sinks.RecordingSink`; the parent then replays each
cell's events in spec order, shifting simulated timestamps onto its own
clock, so ``bus.now_ns`` still ends at the sum of every cell's
``stats.total_time_ns`` -- the invariant the Perfetto export and the
metrics registry rely on.  Retries and failures additionally surface as
``engine``-category instant events on the parent bus.

Equivalence contract: while ``--vector-check`` (``REPRO_VECTOR_CHECK``)
is armed, cells are neither read from nor written to the cache, so
every vectorized cell is simulated and checked against the scalar
oracle (docs/VECTORIZATION.md §3).
"""

from __future__ import annotations

import dataclasses
import os
import time
import typing

from repro.core.errors import PimTimeoutError, PimWorkerCrashError
from repro.engine.cache import DiskCache, cell_cache_key
from repro.engine.cells import (
    CellExecutionError,
    CellOutcome,
    CellSpec,
    run_cell,
    vector_check_enabled,
)
from repro.resilience.failures import (
    failure_from_exception,
    skipped_failure,
)
from repro.resilience.policy import RetryPolicy

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    import concurrent.futures

    from repro.obs.events import EventBus
    from repro.resilience.failures import CellFailure

#: Environment variable supplying the default worker count (CLI ``--jobs``
#: overrides it; unset means serial).
JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(jobs: "int | None") -> int:
    """Normalize a jobs request: explicit value, else $REPRO_JOBS, else 1."""
    if jobs is None:
        env = os.environ.get(JOBS_ENV, "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"{JOBS_ENV} must be an integer, got {env!r}"
                ) from None
        else:
            jobs = 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


@dataclasses.dataclass
class ExecutionResult:
    """What one :func:`run_cells` call did, for reporting and tests."""

    outcomes: "dict[CellSpec, CellOutcome]"
    hits: int = 0
    misses: int = 0
    jobs: int = 1
    cache_dir: "str | None" = None
    retries: int = 0
    policy: "RetryPolicy | None" = None

    def outcome(self, spec: CellSpec) -> CellOutcome:
        return self.outcomes[spec]

    @property
    def failures(self) -> "dict[CellSpec, CellFailure]":
        """Every cell that ultimately failed, in spec order."""
        return {
            spec: outcome.error
            for spec, outcome in self.outcomes.items()
            if outcome.error is not None
        }

    @property
    def telemetries(self) -> "list":
        """Per-cell telemetry records in spec order (cache hits included)."""
        return [
            telemetry
            for outcome in self.outcomes.values()
            if (telemetry := getattr(outcome, "telemetry", None)) is not None
        ]

    @property
    def ok(self) -> bool:
        return not self.failures

    def raise_first_failure(self) -> None:
        """Strict mode: surface the first failure as an exception that
        carries every failure of the run."""
        failures = self.failures
        if failures:
            raise CellExecutionError(failures)

    def summary(self) -> str:
        where = f" ({self.cache_dir})" if self.cache_dir else ""
        extra = ""
        if self.retries:
            extra += f", {self.retries} retried"
        failed = len(self.failures)
        if failed:
            extra += f", {failed} FAILED"
        return (
            f"{self.hits} cached, {self.misses} simulated "
            f"with {self.jobs} job(s){extra}{where}"
        )


def _worker(
    spec: CellSpec, record_events: bool, attempt: int, isolated: bool
) -> CellOutcome:
    """Top-level so it pickles under every multiprocessing start method."""
    return run_cell(
        spec, record_events=record_events, attempt=attempt, isolated=isolated
    )


def _retry_key(spec: CellSpec) -> str:
    """Stable identity for backoff jitter (cheaper than the cache key)."""
    return f"{spec.benchmark_key}:{spec.device_type.value}:{spec.num_ranks}"


def _replay(bus: "EventBus", outcome: CellOutcome) -> None:
    """Replay one worker-recorded cell onto the parent bus.

    Simulated timestamps shift by the parent clock's current position
    (cells concatenate, exactly as a serial run would have emitted
    them); wall timestamps shift by the parent's wall clock at replay so
    they stay monotonic in the merged stream.  The clock advance comes
    last and uses the cell's modeled total, preserving
    ``bus.now_ns == sum(stats.total_time_ns)``.
    """
    offset_ns = bus.now_ns
    offset_wall = bus.wall_us()
    if bus.active and outcome.events:
        for event in outcome.events:
            bus.emit(dataclasses.replace(
                event,
                ts_ns=event.ts_ns + offset_ns,
                wall_us=event.wall_us + offset_wall,
            ))
    bus.advance(outcome.sim_dur_ns)


class _Reporter:
    """Funnels retry/failure happenings onto the bus and tallies retries.

    Retries and failures also land in the process-wide metrics registry
    (``engine.cell_retries`` / ``engine.cell_failures``) so unobserved
    runs still account for them in the run report.
    """

    def __init__(self, bus: "EventBus | None") -> None:
        self.bus = bus
        self.retries = 0

    def retry(self, spec: CellSpec, attempt: int, exc: BaseException) -> None:
        self.retries += 1
        from repro.obs.metrics import global_registry

        global_registry().counter("engine.cell_retries").inc()
        if self.bus is not None:
            self.bus.emit_instant(
                f"cell.retry:{spec.benchmark_key}", "engine",
                {"device": spec.device_type.value, "attempt": attempt,
                 "error": type(exc).__name__},
            )

    def failed(self, spec: CellSpec, failure: "CellFailure") -> None:
        from repro.obs.metrics import global_registry

        global_registry().counter("engine.cell_failures").inc()
        if self.bus is not None:
            self.bus.emit_instant(
                f"cell.failed:{spec.benchmark_key}", "engine",
                {"device": spec.device_type.value,
                 "kind": failure.kind.value,
                 "attempts": failure.attempts,
                 "error": failure.error_type},
            )


def _run_serial(
    misses: "list[CellSpec]",
    policy: RetryPolicy,
    bus: "EventBus | None",
    reporter: _Reporter,
) -> "dict[CellSpec, CellOutcome]":
    """In-process execution: retries inline, no timeout enforcement."""
    outcomes: "dict[CellSpec, CellOutcome]" = {}
    fail_fast_hit = False
    for spec in misses:
        if fail_fast_hit:
            outcomes[spec] = CellOutcome.failure(skipped_failure())
            continue
        attempt = 0
        while True:
            attempt += 1
            try:
                if bus is not None:
                    bus.process = spec.device_config().label
                outcomes[spec] = run_cell(spec, bus=bus, attempt=attempt)
                break
            except Exception as exc:  # noqa: BLE001 - degraded to CellFailure
                if attempt < policy.max_attempts:
                    reporter.retry(spec, attempt, exc)
                    time.sleep(policy.backoff_s(_retry_key(spec), attempt))
                    continue
                failure = failure_from_exception(exc, attempt)
                outcomes[spec] = CellOutcome.failure(failure)
                reporter.failed(spec, failure)
                if policy.fail_fast:
                    fail_fast_hit = True
                break
    return outcomes


def _kill_pool(pool: concurrent.futures.ProcessPoolExecutor) -> None:
    """Tear down a pool that holds a hung or dead worker.

    ``shutdown`` alone would wait on the hung process forever, so the
    worker processes are killed first; the shutdown that follows then
    only reaps the manager thread (and keeps interpreter exit quiet).
    """
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.kill()
        except Exception:  # noqa: BLE001 - already-dead processes are fine
            pass
    pool.shutdown(wait=True, cancel_futures=True)


def _run_isolated(
    misses: "list[CellSpec]",
    jobs: int,
    policy: RetryPolicy,
    record: bool,
    reporter: _Reporter,
) -> "dict[CellSpec, CellOutcome]":
    """Supervised execution: every attempt gets its own worker process.

    Each running cell owns a dedicated single-worker pool (at most
    ``jobs`` alive at once), so a crash breaks exactly one cell's pool
    -- attribution is precise, nothing collateral -- and a timeout kills
    exactly one cell's process.  A shared pool cannot offer either: one
    dead worker poisons every outstanding future indistinguishably.  The
    per-attempt process spawn this costs is noise next to a simulation
    cell's runtime.  Retries re-queue the cell behind a monotonic
    backoff gate; the per-cell timeout is wall-clock from launch.
    """
    # Process pools load multiprocessing; a serial or fully cached run
    # never needs it.
    import concurrent.futures
    import concurrent.futures.process

    outcomes: "dict[CellSpec, CellOutcome]" = {}
    attempts: "dict[CellSpec, int]" = dict.fromkeys(misses, 0)
    queue = list(misses)
    not_before: "dict[CellSpec, float]" = {}
    running: "dict[concurrent.futures.Future, tuple[CellSpec, concurrent.futures.ProcessPoolExecutor, float | None]]" = {}
    fail_fast_hit = False

    def settle(spec: CellSpec, exc: BaseException) -> None:
        """One attempt failed: retry, or record the ultimate failure."""
        nonlocal fail_fast_hit
        if attempts[spec] < policy.max_attempts and not fail_fast_hit:
            reporter.retry(spec, attempts[spec], exc)
            gate = policy.backoff_s(_retry_key(spec), attempts[spec])
            not_before[spec] = time.monotonic() + gate
            queue.append(spec)
            return
        failure = failure_from_exception(exc, attempts[spec])
        outcomes[spec] = CellOutcome.failure(failure)
        reporter.failed(spec, failure)
        if policy.fail_fast:
            fail_fast_hit = True

    def launch(spec: CellSpec) -> None:
        attempts[spec] += 1
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=1)
        future = pool.submit(_worker, spec, record, attempts[spec], True)
        deadline = (
            time.monotonic() + policy.cell_timeout_s
            if policy.cell_timeout_s is not None
            else None
        )
        running[future] = (spec, pool, deadline)

    try:
        while queue or running:
            now = time.monotonic()
            if fail_fast_hit:
                for spec in queue:
                    outcomes[spec] = CellOutcome.failure(skipped_failure())
                queue = []
            while queue and len(running) < jobs:
                index = next(
                    (i for i, s in enumerate(queue)
                     if not_before.get(s, 0.0) <= now),
                    None,
                )
                if index is None:
                    break
                launch(queue.pop(index))
            if not running:
                # Everything left is gated on backoff; sleep to the
                # nearest gate.
                if queue:
                    gate = min(not_before[s] for s in queue)
                    time.sleep(max(0.0, gate - time.monotonic()))
                continue
            deadlines = [d for (_, _, d) in running.values() if d is not None]
            if deadlines:
                wait_s = max(0.0, min(deadlines) - time.monotonic())
            elif queue:
                wait_s = 0.05  # backoff-gated cells want a slot soon
            else:
                wait_s = None
            done, _ = concurrent.futures.wait(
                running, timeout=wait_s,
                return_when=concurrent.futures.FIRST_COMPLETED,
            )
            for future in done:
                spec, pool, _ = running.pop(future)
                try:
                    outcomes[spec] = future.result()
                except concurrent.futures.process.BrokenProcessPool:
                    settle(spec, PimWorkerCrashError(
                        "worker process died without raising",
                        benchmark=spec.benchmark_key,
                        device=spec.device_type.value,
                        attempt=attempts[spec],
                    ))
                except Exception as exc:  # noqa: BLE001 - degraded to CellFailure
                    settle(spec, exc)
                pool.shutdown(wait=False)
            now = time.monotonic()
            for future, (spec, pool, deadline) in list(running.items()):
                if deadline is None or now < deadline or future.done():
                    continue  # done-but-unharvested cells settle next pass
                del running[future]
                _kill_pool(pool)
                settle(spec, PimTimeoutError(
                    f"cell exceeded its {policy.cell_timeout_s}s timeout",
                    timeout_s=policy.cell_timeout_s,
                    benchmark=spec.benchmark_key,
                    device=spec.device_type.value,
                    attempt=attempts[spec],
                ))
    finally:
        # A KeyboardInterrupt (or any other non-local exit) between
        # supervisor-pool spawns must not leak live worker processes:
        # kill every pool still checked out.  On a normal exit
        # ``running`` is already empty and this is a no-op.
        for _, pool, _ in running.values():
            _kill_pool(pool)
        running.clear()
    return outcomes


def run_cells(
    specs: "typing.Sequence[CellSpec]",
    jobs: "int | None" = None,
    use_cache: bool = True,
    cache_dir: "str | os.PathLike | None" = None,
    bus: "EventBus | None" = None,
    policy: "RetryPolicy | None" = None,
) -> ExecutionResult:
    """Execute (or fetch) every cell; see the module docstring for rules."""
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    policy = policy if policy is not None else RetryPolicy.from_env()
    observed = bus is not None
    caching = use_cache and not observed and not vector_check_enabled()
    cache = DiskCache(cache_dir) if caching else None
    reporter = _Reporter(bus)

    outcomes: "dict[CellSpec, CellOutcome]" = {}
    keys: "dict[CellSpec, str]" = {}
    hits = 0
    if cache is not None:
        for spec in specs:
            key = keys[spec] = cell_cache_key(spec)
            cached = cache.get(key)
            if cached is not None:
                telemetry = getattr(cached, "telemetry", None)
                if telemetry is not None:
                    # The stored record describes the simulation that
                    # originally produced this entry; flag the serving.
                    cached.telemetry = dataclasses.replace(
                        telemetry, from_cache=True
                    )
                outcomes[spec] = cached
                hits += 1

    misses = [spec for spec in specs if spec not in outcomes]
    # A timeout can only be enforced on a killable worker process, so a
    # policy carrying one forces isolation even for serial runs.
    isolated = bool(misses) and (jobs > 1 or policy.needs_isolation)
    if misses:
        if isolated:
            outcomes.update(
                _run_isolated(misses, jobs, policy, observed, reporter)
            )
        else:
            outcomes.update(_run_serial(misses, policy, bus, reporter))

    if observed and isolated:
        # Deterministic merge of the recorded streams: replay follows
        # spec order, not worker completion order; failed cells recorded
        # nothing and contribute no simulated time.
        for spec in specs:
            if outcomes[spec].ok:
                _replay(bus, outcomes[spec])

    if cache is not None:
        for spec in misses:
            if outcomes[spec].ok:
                cache.put(keys[spec], outcomes[spec])
        cache.flush_usage()

    # Cross-process accounting: fold every cell's telemetry (worker-run,
    # serial, or cache-served) into the process-wide registry, in spec
    # order, so the merged counters are identical for any job count.
    from repro.obs.metrics import global_registry
    from repro.obs.telemetry import merge_cell_telemetry

    merge_cell_telemetry(
        global_registry(),
        (telemetry for spec in specs
         if (telemetry := getattr(outcomes[spec], "telemetry", None))
         is not None),
    )

    return ExecutionResult(
        outcomes={spec: outcomes[spec] for spec in specs},
        hits=hits,
        misses=len(misses),
        jobs=jobs,
        cache_dir=str(cache.root) if cache is not None else None,
        retries=reporter.retries,
        policy=policy,
    )
