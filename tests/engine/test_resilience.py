"""Engine resilience tests: crash isolation, timeouts, retries, fail-fast.

These use the injectable engine faults (raise / hang / hard-exit) to
exercise the paths a healthy suite never takes.  Cells are functional
small-scale, so even the process-isolated runs stay fast.
"""

import dataclasses
import inspect
import pickle

import pytest

from repro.config.device import PimDeviceType
from repro.core import errors
from repro.core.errors import FailureKind
from repro.engine import (
    CellExecutionError,
    CellSpec,
    DiskCache,
    cell_cache_key,
    run_cells,
)
from repro.faults import (
    FaultPlan,
    WorkerCrashFault,
    WorkerExceptionFault,
    WorkerHangFault,
)
from repro.perf.vector import VectorEquivalenceError
from repro.resilience import RetryPolicy, format_failure_summary

COMMON = dict(
    num_ranks=2, paper_scale=False, functional=True, enforce_capacity=False
)


def cell(key, *faults, seed=1):
    plan = FaultPlan(seed=seed, faults=tuple(faults)) if faults else None
    return CellSpec(key, PimDeviceType.FULCRUM, fault_plan=plan, **COMMON)


#: A policy with snappy backoff so retry tests stay fast.
FAST = dict(backoff_base_s=0.01, backoff_max_s=0.05)


class TestSerialFailures:
    def test_raising_cell_degrades_not_aborts(self):
        bad = cell("vecadd", WorkerExceptionFault(fail_attempts=99))
        good = cell("axpy")
        execution = run_cells([bad, good], use_cache=False)
        assert not execution.ok
        assert execution.outcome(good).ok
        failure = execution.failures[bad]
        assert failure.kind is FailureKind.ERROR
        assert failure.error_type == "PimFaultInjectionError"
        assert failure.attempts == 1

    def test_transient_failure_retries_to_success(self):
        flaky = cell("vecadd", WorkerExceptionFault(fail_attempts=1))
        execution = run_cells(
            [flaky], use_cache=False,
            policy=RetryPolicy(max_retries=2, **FAST),
        )
        assert execution.ok
        assert execution.retries == 1
        assert execution.outcome(flaky).result.verified is True

    def test_retry_budget_exhausts(self):
        bad = cell("vecadd", WorkerExceptionFault(fail_attempts=99))
        execution = run_cells(
            [bad], use_cache=False, policy=RetryPolicy(max_retries=2, **FAST)
        )
        assert execution.failures[bad].attempts == 3
        assert execution.retries == 2

    def test_fail_fast_skips_the_rest(self):
        bad = cell("vecadd", WorkerExceptionFault(fail_attempts=99))
        never = cell("axpy")
        execution = run_cells(
            [bad, never], jobs=1, use_cache=False,
            policy=RetryPolicy(fail_fast=True),
        )
        assert execution.failures[bad].kind is FailureKind.ERROR
        assert execution.failures[never].kind is FailureKind.SKIPPED
        assert execution.failures[never].attempts == 0

    def test_fail_fast_with_zero_retries_attempts_exactly_once(self):
        # max_retries=0 + fail_fast is the strictest policy: a fault
        # that one retry would have healed still stops the suite after
        # a single attempt, and nothing later is even tried.
        healable = cell("vecadd", WorkerExceptionFault(fail_attempts=1))
        never = cell("axpy")
        execution = run_cells(
            [healable, never], jobs=1, use_cache=False,
            policy=RetryPolicy(max_retries=0, fail_fast=True),
        )
        assert not execution.ok
        assert execution.retries == 0
        assert execution.failures[healable].kind is FailureKind.ERROR
        assert execution.failures[healable].attempts == 1
        assert execution.failures[never].kind is FailureKind.SKIPPED
        assert execution.failures[never].attempts == 0

    def test_crash_fault_refuses_to_kill_the_parent(self):
        # In-process execution must never hard-exit the test runner.
        bad = cell("vecadd", WorkerCrashFault(fail_attempts=99))
        execution = run_cells([bad], jobs=1, use_cache=False)
        assert execution.failures[bad].error_type == "PimFaultInjectionError"

    def test_strict_callers_get_an_exception(self):
        bad = cell("vecadd", WorkerExceptionFault(fail_attempts=99))
        execution = run_cells([bad], use_cache=False)
        with pytest.raises(CellExecutionError):
            execution.raise_first_failure()


#: Every exception class a worker can raise back to the parent: the
#: simulator errors (injected faults included) and the vector-check gate's.
WORKER_ERRORS = [
    cls("boom", obj_id=7)
    for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.PimError)
] + [VectorEquivalenceError("vecadd", ["latency_ns: 1.0 != 1.0000000001"])]


class TestWorkerErrorsPickle:
    @pytest.mark.parametrize(
        "error", WORKER_ERRORS, ids=lambda error: type(error).__name__
    )
    def test_round_trip(self, error):
        # A worker ships its exception home pickled; one that cannot be
        # rebuilt surfaces as a worker crash instead of itself.
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error)
        assert str(copy) == str(error)
        assert vars(copy) == vars(error)

    def test_every_simulator_error_is_covered(self):
        names = {type(error).__name__ for error in WORKER_ERRORS}
        assert {"PimError", "PimFaultInjectionError",
                "PimWorkerCrashError", "VectorEquivalenceError"} <= names


class TestFailureCaching:
    def test_failures_are_never_cached(self, tmp_path):
        bad = cell("vecadd", WorkerExceptionFault(fail_attempts=1))
        first = run_cells([bad], cache_dir=tmp_path)
        assert not first.ok
        assert DiskCache(tmp_path).stats() == (0, 0)
        # The transient fault only fires on attempt 1 of each run, but a
        # failure must re-simulate -- and this one heals.
        second = run_cells(
            [bad], cache_dir=tmp_path, policy=RetryPolicy(max_retries=1, **FAST)
        )
        assert second.ok
        assert second.misses == 1
        assert DiskCache(tmp_path).stats()[0] == 1

    def test_fault_plan_is_part_of_the_cache_key(self):
        clean = cell("vecadd")
        faulted = cell("vecadd", WorkerExceptionFault(fail_attempts=1))
        planless_key = cell_cache_key(clean)
        assert cell_cache_key(faulted) != planless_key
        # and a faultless plan keys differently from no plan at all
        empty_plan = dataclasses.replace(clean, fault_plan=FaultPlan(seed=0))
        assert cell_cache_key(empty_plan) != planless_key


class TestIsolatedFailures:
    """Worker-process paths: timeouts and hard crashes. Marked by the
    process spawns they require; kept to the minimum that proves the
    acceptance scenario."""

    def test_hang_and_crash_do_not_stop_the_suite(self):
        # The ISSUE's acceptance scenario: one cell hangs past its
        # timeout, one worker dies, the rest completes, both failures
        # are reported, and the summary table names them.
        hang = cell("vecadd", WorkerHangFault(seconds=60.0))
        crash = cell("axpy", WorkerCrashFault(fail_attempts=99))
        good = cell("gemv")
        execution = run_cells(
            [hang, crash, good], jobs=2, use_cache=False,
            policy=RetryPolicy(cell_timeout_s=5.0, **FAST),
        )
        assert execution.outcome(good).ok
        assert execution.failures[hang].kind is FailureKind.TIMEOUT
        assert execution.failures[crash].kind is FailureKind.CRASH
        table = format_failure_summary(execution.failures)
        assert "timeout" in table and "crash" in table
        assert "vecadd" in table and "axpy" in table

    def test_transient_failure_retries_to_success_isolated(self):
        flaky = cell("vecadd", WorkerExceptionFault(fail_attempts=1))
        execution = run_cells(
            [flaky], jobs=2, use_cache=False,
            policy=RetryPolicy(max_retries=2, cell_timeout_s=60.0, **FAST),
        )
        assert execution.ok
        assert execution.retries == 1

    def test_fail_fast_zero_retries_skips_unstarted_isolated_cells(self):
        # The isolated scheduler has its own fail-fast bookkeeping;
        # with no retry budget the first worker failure must both stop
        # new dispatches and mark never-started cells SKIPPED.
        bad = cell("vecadd", WorkerExceptionFault(fail_attempts=99))
        rest = [cell(key) for key in ("axpy", "gemv", "dot")]
        execution = run_cells(
            [bad] + rest, jobs=1, use_cache=False,
            policy=RetryPolicy(
                max_retries=0, fail_fast=True, cell_timeout_s=60.0, **FAST
            ),
        )
        assert execution.failures[bad].kind is FailureKind.ERROR
        assert execution.failures[bad].attempts == 1
        kinds = {execution.failures[spec].kind for spec in rest}
        assert kinds == {FailureKind.SKIPPED}

    def test_timeout_policy_isolates_even_serial_jobs(self):
        # jobs=1 + a timeout still runs in a killable worker process.
        hang = cell("vecadd", WorkerHangFault(seconds=60.0))
        execution = run_cells(
            [hang], jobs=1, use_cache=False,
            policy=RetryPolicy(cell_timeout_s=3.0),
        )
        assert execution.failures[hang].kind is FailureKind.TIMEOUT


class TestObservedFailures:
    def test_failed_cells_leave_clock_invariant_intact(self):
        from repro.obs import EventBus, RingBufferSink

        bad = cell("vecadd", WorkerExceptionFault(fail_attempts=99))
        good = cell("axpy")
        bus = EventBus()
        bus.subscribe(RingBufferSink())
        execution = run_cells([bad, good], jobs=2, bus=bus)
        assert not execution.ok
        modeled = execution.outcome(good).result.stats.total_time_ns
        assert bus.now_ns == pytest.approx(modeled)

    def test_retry_and_failure_events_reach_the_bus(self):
        from repro.obs import EventBus, MetricsSink, RecordingSink

        bad = cell("vecadd", WorkerExceptionFault(fail_attempts=99))
        bus = EventBus()
        sink = bus.subscribe(RecordingSink())
        metrics = bus.subscribe(MetricsSink())
        run_cells(
            [bad], bus=bus, policy=RetryPolicy(max_retries=1, **FAST)
        )
        names = [e.name for e in sink.events if e.cat == "engine"]
        assert "cell.retry:vecadd" in names
        assert "cell.failed:vecadd" in names
        assert metrics.registry.value("engine.retry") == 1
        assert metrics.registry.value("engine.failed") == 1
