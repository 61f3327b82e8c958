"""Statistics tracking: the numbers Listing 3 reports.

The tracker aggregates, per simulated run: data-copy bytes/latency/energy
in each direction, per-command counts with estimated runtime and energy,
background energy, and host-kernel time/energy for PIM+Host benchmarks.
Latencies accumulate in nanoseconds and energies in nanojoules internally;
reports convert to the paper's ms / mJ units.
"""

from __future__ import annotations

import contextlib
import dataclasses
import typing
from collections import OrderedDict

from repro.core.commands import PimCmdKind

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.events import EventBus

#: Copy-direction name -> StatsTracker attribute holding its bucket.
COPY_DIRECTIONS = {
    "h2d": "host_to_device",
    "d2h": "device_to_host",
    "d2d": "device_to_device",
}


@dataclasses.dataclass
class CmdStats:
    """Accumulated cost of one command signature (e.g. ``add.int32.v``)."""

    count: int = 0
    latency_ns: float = 0.0
    energy_nj: float = 0.0

    def record(self, latency_ns: float, energy_nj: float, count: int = 1) -> None:
        self.count += count
        self.latency_ns += latency_ns
        self.energy_nj += energy_nj


@dataclasses.dataclass(frozen=True)
class EventCounts:
    """Physical-event census: what the modeled hardware actually did.

    Accumulated from the performance models' cost records; the basis of
    the per-benchmark activity analysis (row activations dominate
    bit-serial energy, GDL traffic exposes the bank-level bottleneck).
    """

    row_activations: float = 0.0
    lane_logic_ops: float = 0.0
    alu_word_ops: float = 0.0
    walker_bits: float = 0.0
    gdl_bits: float = 0.0

    def __add__(self, other: "EventCounts") -> "EventCounts":
        return EventCounts(
            row_activations=self.row_activations + other.row_activations,
            lane_logic_ops=self.lane_logic_ops + other.lane_logic_ops,
            alu_word_ops=self.alu_word_ops + other.alu_word_ops,
            walker_bits=self.walker_bits + other.walker_bits,
            gdl_bits=self.gdl_bits + other.gdl_bits,
        )

    def __sub__(self, other: "EventCounts") -> "EventCounts":
        return EventCounts(
            row_activations=self.row_activations - other.row_activations,
            lane_logic_ops=self.lane_logic_ops - other.lane_logic_ops,
            alu_word_ops=self.alu_word_ops - other.alu_word_ops,
            walker_bits=self.walker_bits - other.walker_bits,
            gdl_bits=self.gdl_bits - other.gdl_bits,
        )

    def scaled(self, factor: float) -> "EventCounts":
        return EventCounts(
            row_activations=self.row_activations * factor,
            lane_logic_ops=self.lane_logic_ops * factor,
            alu_word_ops=self.alu_word_ops * factor,
            walker_bits=self.walker_bits * factor,
            gdl_bits=self.gdl_bits * factor,
        )


@dataclasses.dataclass
class CopyStats:
    """Data-movement accounting for one direction."""

    num_bytes: int = 0
    latency_ns: float = 0.0
    energy_nj: float = 0.0

    def record(self, num_bytes: int, latency_ns: float, energy_nj: float) -> None:
        self.num_bytes += num_bytes
        self.latency_ns += latency_ns
        self.energy_nj += energy_nj


@dataclasses.dataclass
class RecordedTrace:
    """A replayable sub-trace: the recording calls one code region made.

    Captured by :meth:`TraceRecording.recorded_trace` and re-applied by
    :meth:`TraceRecording.replay_trace` on either stats tracker: the
    scalar tracker's ``record_*`` calls, or the vector tracker's
    ``log_command``/``record_copy``/``record_host`` calls.  Replaying
    dispatches the *same method calls with the same arguments in the
    same order*, so the accumulators advance through the identical
    sequence of float operations -- an attached bus sees the identical
    event stream, a vector log receives the identical entries -- as
    re-running the region.  Benchmarks whose analytic inner loops
    repeat an identical command sequence (AES mix-columns per column,
    k-means per iteration, histogram per channel) record one repetition
    and replay the rest.
    """

    #: The tracker class that recorded the calls; only its instances
    #: (or subclasses) have the methods the entries name.
    tracker: type
    entries: "list[tuple[str, tuple]]" = dataclasses.field(
        default_factory=list
    )

    def __len__(self) -> int:
        return len(self.entries)


class TraceRecording:
    """Trace record/replay, shared by both stats trackers.

    A tracker sets ``_recording`` to ``None`` in ``__init__``; its
    recording methods append ``(method name, args)`` to it while a trace
    is being recorded, so when nothing records the cost is one
    (instance) attribute check per call.
    """

    _recording: "list[tuple[str, tuple]] | None"

    @contextlib.contextmanager
    def recorded_trace(self) -> "typing.Iterator[RecordedTrace]":
        """Capture every recording call made inside the ``with`` body.

        The recorded pass itself is billed normally; the returned
        :class:`RecordedTrace` can then be re-applied with
        :meth:`replay_trace`.  Recording does not nest.
        """
        if self._recording is not None:
            raise RuntimeError("a stats trace is already being recorded")
        trace = RecordedTrace(type(self))
        self._recording = trace.entries
        try:
            yield trace
        finally:
            self._recording = None

    def replay_trace(self, trace: RecordedTrace, times: int = 1) -> None:
        """Re-apply a recorded trace ``times`` more times.

        Dispatches each captured call back through the same method, so
        totals, per-signature tables, the event census, any attached
        bus's event stream and the vector logs are bit-identical to
        running the recorded region ``times`` more times.  A trace
        recorded by the other tracker kind raises :class:`TypeError`
        before anything is billed.
        """
        if times < 0:
            raise ValueError(f"times must be >= 0, got {times}")
        if self._recording is not None:
            raise RuntimeError("cannot replay while recording a trace")
        if not isinstance(self, trace.tracker):
            raise TypeError(
                f"a {trace.tracker.__name__} trace cannot be replayed on "
                f"a {type(self).__name__}"
            )
        calls = [(getattr(self, name), args) for name, args in trace.entries]
        for _ in range(times):
            for method, args in calls:
                method(*args)


class StatsTracker(TraceRecording):
    """Mutable statistics store attached to a device.

    ``bus`` is the optional observability hook: when an
    :class:`repro.obs.events.EventBus` is attached, every recorded
    command/copy/host kernel is also published as an event on the
    simulated timeline.  When ``bus`` is ``None`` (the default) the only
    cost is one attribute check per record call.
    """

    def __init__(self, bus: "EventBus | None" = None) -> None:
        self.bus = bus
        self.commands: "OrderedDict[str, CmdStats]" = OrderedDict()
        self.op_counts: "dict[PimCmdKind, int]" = {}
        self.host_to_device = CopyStats()
        self.device_to_host = CopyStats()
        self.device_to_device = CopyStats()
        self.background_energy_nj = 0.0
        self.host_time_ns = 0.0
        self.host_energy_nj = 0.0
        self.events = EventCounts()
        self._recording = None

    # -- recording ----------------------------------------------------------

    def record_command(
        self,
        kind: PimCmdKind,
        signature: str,
        latency_ns: float,
        energy_nj: float,
        background_energy_nj: float = 0.0,
        count: int = 1,
        events: "EventCounts | None" = None,
    ) -> None:
        self.commands.setdefault(signature, CmdStats()).record(
            latency_ns, energy_nj, count
        )
        self.op_counts[kind] = self.op_counts.get(kind, 0) + count
        self.background_energy_nj += background_energy_nj
        if events is not None:
            self.events = self.events + events
        bus = self.bus
        if bus is not None:
            args = {"count": count, "energy_nj": energy_nj}
            if events is not None:
                args.update(
                    row_activations=events.row_activations,
                    lane_logic_ops=events.lane_logic_ops,
                    alu_word_ops=events.alu_word_ops,
                    walker_bits=events.walker_bits,
                    gdl_bits=events.gdl_bits,
                )
            bus.emit_complete(signature, "command", latency_ns, args)
        if self._recording is not None:
            self._recording.append((
                "record_command",
                (kind, signature, latency_ns, energy_nj,
                 background_energy_nj, count, events),
            ))

    def record_command_batch(
        self,
        kind: PimCmdKind,
        signature: str,
        latency_ns: float,
        energy_nj: float,
        background_energy_nj: float = 0.0,
        count: int = 1,
        events: "EventCounts | None" = None,
    ) -> None:
        """Bill ``count`` back-to-back issues of one command.

        The per-issue arguments are the same a single
        :meth:`record_command` call takes; the accumulators advance by
        iterated addition -- the *same* float operations ``count``
        individual calls would perform -- so the totals are
        bit-identical to the per-call loop (``a + a + a`` is not
        ``3 * a`` at float precision).  That makes this path a drop-in
        batching of existing loops, unlike ``record_command``'s
        pre-multiplied ``repeat`` billing.  The bucket/dict lookups and
        event-census objects are paid once; an attached bus still gets
        one event per issue, preserving the pre-batching stream.
        """
        stats = self.commands.setdefault(signature, CmdStats())
        stats.count += count
        bucket_latency = stats.latency_ns
        bucket_energy = stats.energy_nj
        background = self.background_energy_nj
        for _ in range(count):
            bucket_latency += latency_ns
            bucket_energy += energy_nj
            background += background_energy_nj
        stats.latency_ns = bucket_latency
        stats.energy_nj = bucket_energy
        self.background_energy_nj = background
        self.op_counts[kind] = self.op_counts.get(kind, 0) + count
        if events is not None:
            row = self.events.row_activations
            lane = self.events.lane_logic_ops
            alu = self.events.alu_word_ops
            walker = self.events.walker_bits
            gdl = self.events.gdl_bits
            for _ in range(count):
                row += events.row_activations
                lane += events.lane_logic_ops
                alu += events.alu_word_ops
                walker += events.walker_bits
                gdl += events.gdl_bits
            self.events = EventCounts(
                row_activations=row,
                lane_logic_ops=lane,
                alu_word_ops=alu,
                walker_bits=walker,
                gdl_bits=gdl,
            )
        bus = self.bus
        if bus is not None:
            args = {"count": 1, "energy_nj": energy_nj}
            if events is not None:
                args.update(
                    row_activations=events.row_activations,
                    lane_logic_ops=events.lane_logic_ops,
                    alu_word_ops=events.alu_word_ops,
                    walker_bits=events.walker_bits,
                    gdl_bits=events.gdl_bits,
                )
            for _ in range(count):
                bus.emit_complete(signature, "command", latency_ns, dict(args))
        if self._recording is not None:
            self._recording.append((
                "record_command_batch",
                (kind, signature, latency_ns, energy_nj,
                 background_energy_nj, count, events),
            ))

    def record_copy(
        self, direction: str, num_bytes: int, latency_ns: float, energy_nj: float
    ) -> None:
        attr = COPY_DIRECTIONS.get(direction)
        if attr is None:
            raise ValueError(f"unknown copy direction {direction!r}")
        getattr(self, attr).record(num_bytes, latency_ns, energy_nj)
        bus = self.bus
        if bus is not None:
            bus.emit_complete(
                f"copy.{direction}", "copy", latency_ns,
                {"direction": direction, "bytes": num_bytes,
                 "energy_nj": energy_nj},
            )
        if self._recording is not None:
            self._recording.append(
                ("record_copy", (direction, num_bytes, latency_ns, energy_nj))
            )

    def record_host(
        self, time_ns: float, energy_nj: float, label: str = "kernel"
    ) -> None:
        self.host_time_ns += time_ns
        self.host_energy_nj += energy_nj
        bus = self.bus
        if bus is not None:
            bus.emit_complete(
                f"host.{label}", "host", time_ns, {"energy_nj": energy_nj}
            )
        if self._recording is not None:
            self._recording.append(
                ("record_host", (time_ns, energy_nj, label))
            )

    def reset(self) -> None:
        """Zero every accumulator; the attached bus (if any) is kept."""
        self.commands.clear()
        self.op_counts.clear()
        self.host_to_device = CopyStats()
        self.device_to_host = CopyStats()
        self.device_to_device = CopyStats()
        self.background_energy_nj = 0.0
        self.host_time_ns = 0.0
        self.host_energy_nj = 0.0
        self.events = EventCounts()

    # -- aggregate views ------------------------------------------------------

    @property
    def kernel_time_ns(self) -> float:
        """Total modeled PIM-kernel latency."""
        return self.snapshot().kernel_time_ns

    @property
    def kernel_energy_nj(self) -> float:
        """Total modeled PIM-kernel energy, excluding background."""
        return self.snapshot().kernel_energy_nj

    @property
    def copy_time_ns(self) -> float:
        return self.snapshot().copy_time_ns

    @property
    def copy_energy_nj(self) -> float:
        return self.snapshot().copy_energy_nj

    @property
    def copy_bytes(self) -> int:
        return self.snapshot().copy_bytes

    @property
    def total_command_count(self) -> int:
        return sum(stats.count for stats in self.commands.values())

    def snapshot(self) -> "StatsSnapshot":
        """Freeze the current totals (used by benchmark phase accounting)."""
        commands = self.commands.values()
        return StatsSnapshot.of(
            [stats.latency_ns for stats in commands],
            [stats.energy_nj for stats in commands],
            (self.host_to_device, self.device_to_host, self.device_to_device),
            self.background_energy_nj,
            self.host_time_ns,
            self.host_energy_nj,
            self.events,
        )


@dataclasses.dataclass(frozen=True)
class StatsSnapshot:
    """Immutable totals at one point in time; supports interval deltas."""

    kernel_time_ns: float = 0.0
    kernel_energy_nj: float = 0.0
    copy_time_ns: float = 0.0
    copy_energy_nj: float = 0.0
    copy_bytes: int = 0
    background_energy_nj: float = 0.0
    host_time_ns: float = 0.0
    host_energy_nj: float = 0.0
    events: EventCounts = dataclasses.field(default_factory=EventCounts)

    @classmethod
    def of(
        cls,
        latencies: "typing.Iterable[float]",
        energies: "typing.Iterable[float]",
        copies: "typing.Sequence[CopyStats]",
        background_energy_nj: float,
        host_time_ns: float,
        host_energy_nj: float,
        events: EventCounts,
    ) -> "StatsSnapshot":
        """Fold accumulator totals into a snapshot: the one summation.

        ``latencies``/``energies`` are the per-signature command totals
        in table order, ``copies`` the h2d, d2h and d2d buckets.  Both a
        tracker and a priced plan row freeze through here.
        """
        h2d, d2h, d2d = copies
        return cls(
            kernel_time_ns=sum(latencies),
            kernel_energy_nj=sum(energies),
            copy_time_ns=h2d.latency_ns + d2h.latency_ns + d2d.latency_ns,
            copy_energy_nj=h2d.energy_nj + d2h.energy_nj + d2d.energy_nj,
            copy_bytes=h2d.num_bytes + d2h.num_bytes + d2d.num_bytes,
            background_energy_nj=background_energy_nj,
            host_time_ns=host_time_ns,
            host_energy_nj=host_energy_nj,
            events=events,
        )

    def __sub__(self, other: "StatsSnapshot") -> "StatsSnapshot":
        return StatsSnapshot(
            kernel_time_ns=self.kernel_time_ns - other.kernel_time_ns,
            kernel_energy_nj=self.kernel_energy_nj - other.kernel_energy_nj,
            copy_time_ns=self.copy_time_ns - other.copy_time_ns,
            copy_energy_nj=self.copy_energy_nj - other.copy_energy_nj,
            copy_bytes=self.copy_bytes - other.copy_bytes,
            background_energy_nj=self.background_energy_nj - other.background_energy_nj,
            host_time_ns=self.host_time_ns - other.host_time_ns,
            host_energy_nj=self.host_energy_nj - other.host_energy_nj,
            events=self.events - other.events,
        )

    @property
    def total_time_ns(self) -> float:
        return self.kernel_time_ns + self.copy_time_ns + self.host_time_ns

    @property
    def total_energy_nj(self) -> float:
        return (
            self.kernel_energy_nj
            + self.copy_energy_nj
            + self.background_energy_nj
            + self.host_energy_nj
        )
