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
construction* -- and a ``replay_trace`` of a recorded region re-appends
the recorded entries without re-walking them through the device.  The
tracker only records:
:func:`~repro.perf.plans.compile_plan` exports its logs as a
:class:`~repro.perf.plans.PricingPlan`, and
:func:`~repro.perf.plans.synthesize` prices the distinct shapes **once**
per group of design points through the architecture backend's
:meth:`~repro.arch.base.ArchBackend.cost_table` hook and rebuilds the
accumulators with :func:`~repro.perf.plans.price_plan` -- one point for
a cell, N points for a design-space sweep.

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
equivalence mode: :func:`repro.engine.cells.check_against_oracle`
re-runs vectorized cells through the scalar path (every cell of
``run``/``suite``/``figure``; the first, middle and last batch-priced
cells of a sweep) and :func:`verify_equivalence` compares the two
trackers field by field at full bit precision, raising
:class:`VectorEquivalenceError` on divergence.  See
``docs/VECTORIZATION.md``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
import typing

import numpy as np

from repro.core.stats import COPY_DIRECTIONS, StatsTracker, TraceRecording
from repro.perf.plans import DIRECTIONS, EVENT_FIELDS, PricingPlan

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.commands import PimCmdKind
    from repro.perf.base import CommandArgs

_DIR_INDEX = {name: index for index, name in enumerate(DIRECTIONS)}


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

    def __reduce__(self):
        # Rebuild from the constructor's arguments, not the formatted
        # message, so the error survives the trip home from a worker.
        return type(self), (self.label, self.mismatches)


@dataclasses.dataclass(frozen=True)
class CostTable:
    """Per-shape cost columns, aligned with the tracker's shape list.

    The vector-mode product of :meth:`repro.arch.base.ArchBackend.
    cost_table`: every field is a ``(points, shapes)`` array whose entry
    ``[p, i]`` is the cost of issuing shape ``i`` exactly once at design
    point ``p``, bit-identical to what the scalar path's
    :class:`~repro.perf.memo.CostPipeline` would return for the same
    :class:`~repro.perf.base.CommandArgs` on that point.
    """

    latency_ns: np.ndarray
    execution_nj: np.ndarray
    background_nj: np.ndarray
    row_activations: np.ndarray
    lane_logic_ops: np.ndarray
    alu_word_ops: np.ndarray
    walker_bits: np.ndarray
    gdl_bits: np.ndarray



def _columns(
    log: "list[tuple]", dtypes: "tuple[type, ...]"
) -> "list[np.ndarray]":
    """One array per log-tuple position."""
    if not log:
        return [np.zeros(0, dtype=dtype) for dtype in dtypes]
    return [
        np.array(column, dtype=dtype)
        for column, dtype in zip(zip(*log), dtypes)
    ]


class VectorStatsTracker(TraceRecording):
    """The command, copy and host logs of one vector-mode device.

    The device (in vector mode) registers each distinct command shape
    once and appends ``(shape, signature bucket, kind, multiplicity)``
    entries; copies and host kernels append to their own logs.
    ``recorded_trace`` and ``replay_trace`` are the scalar tracker's
    (:class:`~repro.core.stats.TraceRecording`): a trace holds the
    ``log_command``/``record_copy``/``record_host`` calls and replay
    dispatches them again.  The tracker only records: it holds logs, not
    totals.  :meth:`export_plan` hands the logs on as a
    :class:`~repro.perf.plans.PricingPlan`, which
    :func:`~repro.perf.plans.synthesize` prices into plain
    :class:`~repro.core.stats.StatsTracker` totals.

    Vector mode is analytic-only and unobserved: the tracker never
    carries an event bus (per-issue events cannot be synthesized from a
    histogram), and commands arrive only as histogram entries -- the
    pre-priced ``record_command*`` calls raise :class:`TypeError`.
    """

    #: Vector devices never stream events (``PimDevice`` reads ``bus``).
    bus = None

    def __init__(self) -> None:
        self._recording = None
        self.reset()

    def reset(self) -> None:
        """Clear the logs and the interned tables."""
        # Representative CommandArgs per distinct shape.
        self._shape_args: "list[CommandArgs]" = []
        # Interned signature buckets and command kinds.
        self._bucket_names: "list[str]" = []
        self._bucket_ids: "dict[str, int]" = {}
        self._kind_objs: "list[PimCmdKind]" = []
        self._kind_ids: "dict[object, int]" = {}
        # The three append-only logs (one per float-accumulator family).
        # cmd entry: (shape_idx, bucket_idx, kind_idx, mult, is_batch)
        self._cmd_log: "list[tuple[int, int, int, int, int]]" = []
        # copy entry: (direction_idx, num_bytes, latency_ns, energy_nj)
        self._copy_log: "list[tuple[int, int, float, float]]" = []
        # host entry: (time_ns, energy_nj)
        self._host_log: "list[tuple[float, float]]" = []

    # -- interning ----------------------------------------------------------

    def register_shape(self, args: "CommandArgs") -> int:
        """Intern one distinct command shape; returns its index.

        The *caller* (the device) owns shape deduplication -- it keys on
        the same tuple the cost memo uses, so the shape count here equals
        the scalar path's distinct-shape count.
        """
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
        if self._recording is not None:
            self._recording.append((
                "log_command",
                (shape_idx, bucket_idx, kind_idx, mult, is_batch),
            ))

    def record_command(self, *args, **kwargs) -> None:
        raise TypeError(
            "VectorStatsTracker takes commands only as shape entries "
            "(log_command); issue them through a vector=True PimDevice"
        )

    record_command_batch = record_command

    def record_copy(
        self, direction: str, num_bytes: int, latency_ns: float, energy_nj: float
    ) -> None:
        index = _DIR_INDEX.get(direction)
        if index is None:
            raise ValueError(f"unknown copy direction {direction!r}")
        self._copy_log.append((index, num_bytes, latency_ns, energy_nj))
        if self._recording is not None:
            self._recording.append(
                ("record_copy", (direction, num_bytes, latency_ns, energy_nj))
            )

    def record_host(
        self, time_ns: float, energy_nj: float, label: str = "kernel"
    ) -> None:
        self._host_log.append((time_ns, energy_nj))
        if self._recording is not None:
            self._recording.append(
                ("record_host", (time_ns, energy_nj, label))
            )

    # -- export -------------------------------------------------------------

    def export_plan(self) -> PricingPlan:
        """The logs as a :class:`~repro.perf.plans.PricingPlan`.

        Replays already appended their entries, so the plan's columns hold
        the exact addend sequence the scalar path would have
        accumulated.
        """
        int64, float64 = np.int64, np.float64
        return PricingPlan(
            tuple(self._shape_args),
            tuple(self._bucket_names),
            tuple(self._kind_objs),
            *_columns(self._cmd_log, (int64,) * 5),
            *_columns(self._copy_log, (int64, int64, float64, float64)),
            *_columns(self._host_log, (float64, float64)),
        )


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
