"""Vectorized histogram pricing: the analytic suite without the Python loop.

The paper's analytic mode prices every command as a closed-form function
of its *shape* (kind, element width, scalar class, operand layouts) --
never of device state.  PR 5's memo already collapses the derivation to
one per shape, but the suite still *issued* every command through Python:
``execute`` -> validate -> memo lookup -> float accumulate, tens of
thousands of times per cell, millions of times per suite.

:class:`VectorStatsTracker` removes that loop.  In vector mode the device
does not price commands at issue time at all; it appends ``(shape index,
multiplicity)`` entries to an append-only log -- a *histogram under
construction* -- and a ``replay_trace`` of a recorded region becomes one
O(1) group marker instead of re-dispatching every entry.  At finalize
time the tracker exports its logs as a :class:`~repro.perf.plans.
PricingPlan`, prices the distinct shapes **once** through the
architecture backend's :meth:`~repro.arch.base.ArchBackend.cost_table`
hook, and rebuilds the accumulators with :func:`~repro.perf.plans.
price_plan` -- the same pricer a design-space sweep runs over many
cost tables at once.

The reconstruction is *byte-identical* to the scalar path, which is a
stricter contract than "numerically close":

* integer accumulators (issue counts, the op census, copy bytes) are
  order-independent and rebuilt with exact int64 scatter-adds;
* float accumulators are **not** order-independent (``a + a + a`` is not
  ``3 * a`` in IEEE-754), so they are rebuilt by replicating the scalar
  path's exact addend sequence -- one pre-multiplied addend per
  ``execute(repeat=)`` call, ``count`` iterated addends per
  ``execute_batch`` call -- and reducing it with
  ``np.add.accumulate``, whose definition *is* the sequential
  left-to-right loop (unlike ``np.sum``/``np.add.reduce``, which use
  pairwise summation and may differ in the last ulp).

``REPRO_VECTOR_CHECK=1`` (or ``--vector-check``) arms the strict
equivalence mode: vectorized cells are re-run through the scalar path
(every cell of ``run``/``suite``; the first, middle and last
batch-priced cells of a sweep) and :func:`verify_equivalence` compares
the two trackers field by field at full bit precision, raising
:class:`VectorEquivalenceError` on divergence.  See
``docs/VECTORIZATION.md``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import struct
import typing

import numpy as np

from repro.core.stats import (
    COPY_DIRECTIONS,
    EventCounts,
    StatsTracker,
)
from repro.perf.plans import DIRECTIONS, EVENT_FIELDS, PricingPlan, price_plan

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.commands import PimCmdKind
    from repro.perf.base import CommandArgs

#: Environment switch for the strict scalar-equivalence cross-check:
#: any non-empty value makes vectorized cells also run the scalar path
#: and bit-compare the totals (CLI: ``--vector-check``).
VECTOR_CHECK_ENV = "REPRO_VECTOR_CHECK"

_DIR_INDEX = {name: index for index, name in enumerate(DIRECTIONS)}


def vector_check_enabled() -> bool:
    """Whether the strict scalar cross-check is armed (env or CLI)."""
    return bool(os.environ.get(VECTOR_CHECK_ENV))


class VectorEquivalenceError(AssertionError):
    """A vectorized cell's totals diverged from the scalar path.

    Raised only in ``--vector-check`` / ``REPRO_VECTOR_CHECK=1`` mode;
    carries every field-level mismatch found, not just the first.
    """

    def __init__(self, label: str, mismatches: "list[str]") -> None:
        self.label = label
        self.mismatches = list(mismatches)
        lines = "\n  ".join(self.mismatches)
        super().__init__(
            f"vectorized totals diverged from the scalar path for {label}:\n"
            f"  {lines}"
        )


@dataclasses.dataclass(frozen=True)
class CostTable:
    """Per-shape cost columns, aligned with the tracker's shape list.

    The vector-mode product of :meth:`repro.arch.base.ArchBackend.
    cost_table`: column ``i`` of every array is the cost of issuing
    shape ``i`` exactly once, bit-identical to what the scalar path's
    :class:`~repro.perf.memo.CostPipeline` would return for the same
    :class:`~repro.perf.base.CommandArgs`.
    """

    latency_ns: np.ndarray
    execution_nj: np.ndarray
    background_nj: np.ndarray
    row_activations: np.ndarray
    lane_logic_ops: np.ndarray
    alu_word_ops: np.ndarray
    walker_bits: np.ndarray
    gdl_bits: np.ndarray

    def __len__(self) -> int:
        return len(self.latency_ns)


@dataclasses.dataclass
class VectorTrace:
    """A replayable span of the vector logs.

    The vector-mode analogue of :class:`~repro.core.stats.RecordedTrace`:
    instead of holding copies of the recorded ``record_*`` calls it
    holds one ``[start, end)`` index span per log (command, copy,
    host).  Replaying appends one group marker; the spans are expanded
    (tiled) only at finalize time.
    """

    spans: "tuple[tuple[int, int], ...]" = ((0, 0),) * 3

    def __len__(self) -> int:
        return sum(end - start for start, end in self.spans)


def _columns(
    log: "list[tuple]", dtypes: "tuple[type, ...]", order: np.ndarray
) -> "list[np.ndarray]":
    """One array per log-tuple position, expanded by ``order``."""
    if not log:
        return [np.zeros(0, dtype=dtype) for dtype in dtypes]
    return [
        np.array(column, dtype=dtype)[order]
        for column, dtype in zip(zip(*log), dtypes)
    ]


class VectorStatsTracker(StatsTracker):
    """A :class:`StatsTracker` that defers all pricing to finalize time.

    The device (in vector mode) registers each distinct command shape
    once and appends ``(shape, signature bucket, kind, multiplicity)``
    entries; copies and host kernels append to their own logs.
    ``recorded_trace`` captures index spans and ``replay_trace`` appends
    O(1) group markers.  Any aggregate read (``snapshot``, the
    ``kernel_*``/``copy_*``/``total_command_count`` properties)
    triggers :meth:`_finalize`, which prices the logs as a one-row
    :func:`~repro.perf.plans.price_plan` call, so the totals are
    byte-identical to the scalar path (see the module docstring for the
    float-ordering contract).

    Vector mode is analytic-only and unobserved: the tracker never
    carries an event bus (per-issue events cannot be synthesized from a
    histogram) and refuses to record once :meth:`seal`-ed.
    """

    def __init__(
        self,
        pricer: "typing.Callable[[tuple[CommandArgs, ...]], CostTable] | None" = None,
    ) -> None:
        super().__init__(bus=None)
        self._pricer = pricer
        self._sealed = False
        self._clear_logs()

    def _clear_logs(self) -> None:
        # Shape table: representative CommandArgs per distinct shape;
        # priced once per finalize through ``pricer``.
        self._shape_args: "list[CommandArgs]" = []
        self._table: "CostTable | None" = None
        # Interned signature buckets and command kinds.
        self._bucket_names: "list[str]" = []
        self._bucket_ids: "dict[str, int]" = {}
        self._kind_objs: "list[PimCmdKind]" = []
        self._kind_ids: "dict[object, int]" = {}
        # The three append-only logs (one per float-accumulator family).
        # cmd entry: (shape_idx, bucket_idx, kind_idx, mult, is_batch);
        # literal (pre-priced record_command) entries use
        # shape_idx = -1 - literal_idx into ``_literals``.
        self._cmd_log: "list[tuple[int, int, int, int, int]]" = []
        self._literals: "list[tuple[float, float, float, tuple[float, ...]]]" = []
        # copy entry: (direction_idx, num_bytes, latency_ns, energy_nj)
        self._copy_log: "list[tuple[int, int, float, float]]" = []
        # host entry: (time_ns, energy_nj)
        self._host_log: "list[tuple[float, float]]" = []
        # Replay groups: (log positions, trace, times), in time order.
        self._groups: "list[tuple[tuple[int, ...], VectorTrace, int]]" = []
        # Empty logs finalize to the zero accumulators StatsTracker holds.
        self._finalized_at = (0, 0, 0, 0)

    # -- interning ----------------------------------------------------------

    def register_shape(self, args: "CommandArgs") -> int:
        """Intern one distinct command shape; returns its index.

        The *caller* (the device) owns shape deduplication -- it keys on
        the same tuple the cost memo uses, so the shape count here equals
        the scalar path's distinct-shape count.
        """
        self._check_mutable()
        self._shape_args.append(args)
        return len(self._shape_args) - 1

    def bucket_index(self, signature: str) -> int:
        """Intern one per-signature stats bucket (e.g. ``add.int32.v``)."""
        index = self._bucket_ids.get(signature)
        if index is None:
            index = len(self._bucket_names)
            self._bucket_names.append(signature)
            self._bucket_ids[signature] = index
        return index

    def kind_index(self, kind: "PimCmdKind") -> int:
        index = self._kind_ids.get(kind)
        if index is None:
            index = len(self._kind_objs)
            self._kind_objs.append(kind)
            self._kind_ids[kind] = index
        return index

    # -- logging ------------------------------------------------------------

    def _check_mutable(self) -> None:
        if self._sealed:
            raise RuntimeError(
                "this VectorStatsTracker is sealed: its logs were "
                "finalized and dropped (run_cell seals trackers before "
                "they cross process/cache boundaries)"
            )

    def _logs(self) -> "tuple[list, list, list]":
        return self._cmd_log, self._copy_log, self._host_log

    def log_command(
        self,
        shape_idx: int,
        bucket_idx: int,
        kind_idx: int,
        mult: int,
        is_batch: bool = False,
    ) -> None:
        """Append one histogram entry: ``mult`` issues of one shape.

        ``is_batch`` selects ``execute_batch`` billing (``mult``
        iterated float adds) over ``execute(repeat=)`` billing (one
        pre-multiplied add).
        """
        self._cmd_log.append(
            (shape_idx, bucket_idx, kind_idx, mult, 1 if is_batch else 0)
        )

    def _log_literal(
        self,
        kind: "PimCmdKind",
        signature: str,
        values: "tuple[float, float, float]",
        count: int,
        events: "EventCounts | None",
        is_batch: int,
    ) -> None:
        # Pre-priced ("literal") entry: callers outside the vector fast
        # path (tests, library users) still get exact accounting.
        self._check_mutable()
        event_values = (
            tuple(getattr(events, field) for field in EVENT_FIELDS)
            if events is not None
            else (0.0,) * len(EVENT_FIELDS)
        )
        self._literals.append((*values, event_values))
        self._cmd_log.append((
            -len(self._literals), self.bucket_index(signature),
            self.kind_index(kind), count, is_batch,
        ))

    def record_command(
        self,
        kind: "PimCmdKind",
        signature: str,
        latency_ns: float,
        energy_nj: float,
        background_energy_nj: float = 0.0,
        count: int = 1,
        events: "EventCounts | None" = None,
    ) -> None:
        self._log_literal(
            kind, signature, (latency_ns, energy_nj, background_energy_nj),
            count, events, 0,
        )

    def record_command_batch(
        self,
        kind: "PimCmdKind",
        signature: str,
        latency_ns: float,
        energy_nj: float,
        background_energy_nj: float = 0.0,
        count: int = 1,
        events: "EventCounts | None" = None,
    ) -> None:
        self._log_literal(
            kind, signature, (latency_ns, energy_nj, background_energy_nj),
            count, events, 1,
        )

    def record_copy(
        self, direction: str, num_bytes: int, latency_ns: float, energy_nj: float
    ) -> None:
        self._check_mutable()
        index = _DIR_INDEX.get(direction)
        if index is None:
            raise ValueError(f"unknown copy direction {direction!r}")
        self._copy_log.append((index, num_bytes, latency_ns, energy_nj))

    def record_host(
        self, time_ns: float, energy_nj: float, label: str = "kernel"
    ) -> None:
        self._check_mutable()
        self._host_log.append((time_ns, energy_nj))

    # -- trace record / replay ----------------------------------------------

    @contextlib.contextmanager
    def recorded_trace(self) -> "typing.Iterator[VectorTrace]":
        """Capture the log spans the ``with`` body appends.

        The recorded pass is billed normally (its entries stay in the
        logs); the returned :class:`VectorTrace` can be re-applied with
        :meth:`replay_trace` at O(1) cost.  Recording does not nest.
        """
        if self._recording is not None:
            raise RuntimeError("a stats trace is already being recorded")
        self._check_mutable()
        trace = VectorTrace()
        start = [len(log) for log in self._logs()]
        self._recording = []  # nesting / replay-while-recording sentinel
        try:
            yield trace
        finally:
            trace.spans = tuple(zip(start, map(len, self._logs())))
            self._recording = None

    def replay_trace(self, trace, times: int = 1) -> None:
        """Re-apply a recorded trace ``times`` more times.

        A :class:`VectorTrace` costs one group marker; finalize expands
        it by tiling the span, reproducing the exact entry sequence the
        scalar path's per-entry re-dispatch would have produced.  Plain
        :class:`~repro.core.stats.RecordedTrace` objects still replay
        entry by entry (through the literal ``record_*`` overrides).
        """
        if times < 0:
            raise ValueError(f"times must be >= 0, got {times}")
        if self._recording is not None:
            raise RuntimeError("cannot replay while recording a trace")
        self._check_mutable()
        if not isinstance(trace, VectorTrace):
            super().replay_trace(trace, times)
            return
        if times == 0 or len(trace) == 0:
            return
        positions = tuple(len(log) for log in self._logs())
        self._groups.append((positions, trace, times))

    # -- finalize -----------------------------------------------------------

    def _expand(self, family: int) -> np.ndarray:
        """Expanded log-index sequence for one log, groups included.

        The timeline interleaves plain entries with replay groups at
        their recorded positions: ``entries[0:pos1], tile(span1, t1),
        entries[pos1:pos2], tile(span2, t2), ..., entries[posN:]``.
        Groups are appended in time order, so positions are
        non-decreasing.
        """
        length = len(self._logs()[family])
        base = np.arange(length, dtype=np.int64)
        segments = []
        cursor = 0
        for positions, trace, times in self._groups:
            pos = positions[family]
            start, end = trace.spans[family]
            if pos > cursor:
                segments.append(base[cursor:pos])
                cursor = pos
            if end > start:
                segments.append(np.tile(base[start:end], times))
        if cursor < length:
            segments.append(base[cursor:length])
        if len(segments) == 1:
            return segments[0]
        return np.concatenate(segments) if segments else base

    def _price_table(self) -> "CostTable | None":
        if not self._shape_args:
            return None
        if self._table is None or len(self._table) != len(self._shape_args):
            if self._pricer is None:
                raise RuntimeError(
                    "VectorStatsTracker has unpriced shapes but no pricer "
                    "(was the tracker detached from its device?)"
                )
            self._table = self._pricer(tuple(self._shape_args))
        return self._table

    def _finalize(self) -> None:
        """Price the logs and rebuild every accumulator, exactly.

        Idempotent full recomputation: the totals are always rebuilt
        from the complete logs, so a mid-run ``snapshot`` (benchmark
        phase accounting) sees exactly what the scalar tracker would
        hold at the same point.
        """
        if self._sealed:
            # Sealed trackers dropped their logs; the stored totals are
            # final.  (The state check below would conclude the same,
            # but every aggregate property funnels through here -- the
            # batched sweep synthesizes thousands of sealed trackers.)
            return
        state = (*map(len, self._logs()), len(self._groups))
        if state == self._finalized_at:
            return
        totals = price_plan(self.export_plan(), (self._price_table(),))
        vars(self).update(totals.tracker_fields(0))
        self._finalized_at = state

    def seal(self) -> None:
        """Finalize, then drop the logs, shape table, and pricer.

        The pricer closes over the device's perf/energy models and is
        not picklable; sealing makes the tracker a plain bag of totals
        that can cross process and disk-cache boundaries exactly like a
        scalar :class:`StatsTracker`.  Further ``record_*`` calls raise.
        """
        self._finalize()
        self._sealed = True
        self._pricer = None
        self._clear_logs()

    @property
    def sealed(self) -> bool:
        return self._sealed

    # -- plan export / synthesis ---------------------------------------------

    def export_plan(self) -> PricingPlan:
        """The logs as a :class:`~repro.perf.plans.PricingPlan`.

        Replay groups are tiled in place, so the plan's columns hold the
        exact addend sequence the scalar path would have accumulated.
        Requires the logs, so it must be called before :meth:`seal`.
        """
        if self._sealed:
            raise RuntimeError(
                "cannot export a pricing plan from a sealed tracker: "
                "the logs were dropped at seal time"
            )
        int64, float64 = np.int64, np.float64
        cmd = _columns(self._cmd_log, (int64,) * 5, self._expand(0))
        copy = _columns(
            self._copy_log, (int64, int64, float64, float64), self._expand(1)
        )
        host = _columns(self._host_log, (float64, float64), self._expand(2))
        return PricingPlan(
            tuple(self._shape_args),
            tuple(self._bucket_names),
            tuple(self._kind_objs),
            tuple(self._literals),
            *cmd, *copy, *host,
        )

    @classmethod
    def synthesize_sealed(
        cls, fields: "dict[str, typing.Any]"
    ) -> "VectorStatsTracker":
        """A sealed tracker holding externally computed totals.

        ``fields`` is one :meth:`~repro.perf.plans.PlanTotals.
        tracker_fields` row: the batched sweep pricer wraps each point
        in the same sealed-tracker state :meth:`seal` leaves behind, so
        synthesized cell outcomes pickle, disk-cache, and snapshot
        exactly like per-cell vector outcomes.
        """
        tracker = cls()
        vars(tracker).update(fields)
        tracker._sealed = True
        return tracker

    def reset(self) -> None:
        """Zero every accumulator and clear the logs (un-seals)."""
        super().reset()
        self._sealed = False
        self._clear_logs()

    # -- aggregate views ------------------------------------------------------

    def snapshot(self):
        self._finalize()
        return super().snapshot()

    @property
    def kernel_time_ns(self) -> float:
        self._finalize()
        return StatsTracker.kernel_time_ns.fget(self)

    @property
    def kernel_energy_nj(self) -> float:
        self._finalize()
        return StatsTracker.kernel_energy_nj.fget(self)

    @property
    def copy_time_ns(self) -> float:
        self._finalize()
        return StatsTracker.copy_time_ns.fget(self)

    @property
    def copy_energy_nj(self) -> float:
        self._finalize()
        return StatsTracker.copy_energy_nj.fget(self)

    @property
    def copy_bytes(self) -> int:
        self._finalize()
        return StatsTracker.copy_bytes.fget(self)

    @property
    def total_command_count(self) -> int:
        self._finalize()
        return StatsTracker.total_command_count.fget(self)


# -- strict equivalence ------------------------------------------------------


def _bits(value: float) -> str:
    """The exact IEEE-754 identity of a float (distinguishes -0.0, NaN)."""
    if isinstance(value, float) and math.isnan(value):
        return "nan:" + struct.pack("<d", value).hex()
    return struct.pack("<d", float(value)).hex()


def _float_equal(a: float, b: float) -> bool:
    return _bits(a) == _bits(b)


def tracker_mismatches(
    vector: StatsTracker, scalar: StatsTracker
) -> "list[str]":
    """Field-by-field bit comparison of two trackers' totals.

    Returns human-readable mismatch descriptions (empty = equivalent).
    Float fields compare by IEEE-754 bit pattern, not ``==``: a
    last-ulp divergence -- exactly what an iterated-add vs multiply
    substitution produces -- is reported, never absorbed.
    """
    for tracker in (vector, scalar):
        finalize = getattr(tracker, "_finalize", None)
        if finalize is not None:
            finalize()
    mismatches: "list[str]" = []

    def check_float(name: str, a: float, b: float) -> None:
        if not _float_equal(a, b):
            mismatches.append(f"{name}: {a!r} != {b!r}")

    def check_int(name: str, a: int, b: int) -> None:
        if int(a) != int(b):
            mismatches.append(f"{name}: {a!r} != {b!r}")

    vec_keys = list(vector.commands)
    ref_keys = list(scalar.commands)
    if vec_keys != ref_keys:
        mismatches.append(
            f"command signature order: {vec_keys!r} != {ref_keys!r}"
        )
    for signature in ref_keys:
        if signature not in vector.commands:
            continue
        mine = vector.commands[signature]
        theirs = scalar.commands[signature]
        check_int(f"commands[{signature}].count", mine.count, theirs.count)
        check_float(
            f"commands[{signature}].latency_ns",
            mine.latency_ns, theirs.latency_ns,
        )
        check_float(
            f"commands[{signature}].energy_nj",
            mine.energy_nj, theirs.energy_nj,
        )

    vec_ops = [(kind.name, count) for kind, count in vector.op_counts.items()]
    ref_ops = [(kind.name, count) for kind, count in scalar.op_counts.items()]
    if vec_ops != ref_ops:
        mismatches.append(f"op_counts: {vec_ops!r} != {ref_ops!r}")

    for direction, attr in COPY_DIRECTIONS.items():
        mine = getattr(vector, attr)
        theirs = getattr(scalar, attr)
        check_int(f"copy[{direction}].num_bytes", mine.num_bytes, theirs.num_bytes)
        check_float(
            f"copy[{direction}].latency_ns", mine.latency_ns, theirs.latency_ns
        )
        check_float(
            f"copy[{direction}].energy_nj", mine.energy_nj, theirs.energy_nj
        )

    check_float(
        "background_energy_nj",
        vector.background_energy_nj, scalar.background_energy_nj,
    )
    check_float("host_time_ns", vector.host_time_ns, scalar.host_time_ns)
    check_float("host_energy_nj", vector.host_energy_nj, scalar.host_energy_nj)
    for field in EVENT_FIELDS:
        check_float(
            f"events.{field}",
            getattr(vector.events, field), getattr(scalar.events, field),
        )
    return mismatches


def verify_equivalence(
    vector_tracker: StatsTracker,
    scalar_tracker: StatsTracker,
    vector_result: "typing.Any | None" = None,
    scalar_result: "typing.Any | None" = None,
    label: str = "cell",
) -> None:
    """Raise :class:`VectorEquivalenceError` unless totals are bit-equal.

    Compares the two trackers field by field, then (when both results
    are given) the serialized benchmark results -- the exact payload
    ``repro suite`` exports, so passing here *is* the byte-identical
    suite JSON guarantee.
    """
    vector_tracker.snapshot()  # force finalize on the vector side
    mismatches = tracker_mismatches(vector_tracker, scalar_tracker)
    if vector_result is not None and scalar_result is not None:
        vec_payload = json.dumps(vector_result.to_dict(), sort_keys=False)
        ref_payload = json.dumps(scalar_result.to_dict(), sort_keys=False)
        if vec_payload != ref_payload:
            mismatches.append(
                "serialized benchmark result diverged "
                f"(vector {len(vec_payload)}B vs scalar {len(ref_payload)}B)"
            )
    if mismatches:
        raise VectorEquivalenceError(label, mismatches)
