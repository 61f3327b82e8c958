"""Stats-tracker trace record/replay: the batching tool behind benchmarks.

``recorded_trace()`` captures the recording calls a code region makes;
``replay_trace(trace, times=N)`` re-dispatches them, which must be
indistinguishable -- in every accumulator, on an attached bus and in a
vector tracker's logs -- from running the region ``N`` more times.  Both
trackers share the implementation, so the guards run on both.
"""

import copy

import pytest

from repro.config import bitserial_config
from repro.core.commands import PimCmdKind
from repro.core.device import PimDevice
from repro.core.stats import StatsTracker
from repro.obs import EventBus, RingBufferSink
from repro.perf.vector import VectorStatsTracker


def _region(device, objs):
    obj_a, obj_b, dest = objs
    device.copy_host_to_device(None, obj_a)
    device.execute(PimCmdKind.ADD, (obj_a, obj_b), dest)
    device.execute(PimCmdKind.MUL_SCALAR, (obj_a,), dest, scalar=3)
    device.stats.record_host(120.0, 44.0, label="unit-host")


def _device(bus=None):
    device = PimDevice(bitserial_config(4), functional=False, bus=bus)
    obj_a = device.alloc(512)
    objs = (obj_a, device.alloc_associated(obj_a), device.alloc_associated(obj_a))
    return device, objs


class TestRecordReplay:
    def test_replay_equals_rerunning(self):
        looped, looped_objs = _device()
        for _ in range(4):
            _region(looped, looped_objs)

        replayed, replayed_objs = _device()
        with replayed.stats.recorded_trace() as trace:
            _region(replayed, replayed_objs)
        replayed.stats.replay_trace(trace, times=3)

        assert len(trace) == 4  # copy + two commands + host kernel
        assert replayed.stats.snapshot() == looped.stats.snapshot()
        assert replayed.stats.commands == looped.stats.commands
        assert replayed.stats.op_counts == looped.stats.op_counts
        assert replayed.stats.host_to_device == looped.stats.host_to_device

    def test_replay_zero_times_is_noop(self):
        device, objs = _device()
        with device.stats.recorded_trace() as trace:
            _region(device, objs)
        before = device.stats.snapshot()
        device.stats.replay_trace(trace, times=0)
        assert device.stats.snapshot() == before

    def test_bus_stream_matches_rerunning(self):
        looped_bus = EventBus()
        looped_sink = looped_bus.subscribe(RingBufferSink())
        looped, looped_objs = _device(bus=looped_bus)
        for _ in range(3):
            _region(looped, looped_objs)

        replayed_bus = EventBus()
        replayed_sink = replayed_bus.subscribe(RingBufferSink())
        replayed, replayed_objs = _device(bus=replayed_bus)
        with replayed.stats.recorded_trace() as trace:
            _region(replayed, replayed_objs)
        replayed.stats.replay_trace(trace, times=2)

        def shape(events):
            return [
                (e.name, e.cat, e.ph, e.ts_ns, e.dur_ns, e.args)
                for e in events
            ]

        assert shape(replayed_sink.events) == shape(looped_sink.events)

    def test_batch_records_replay_too(self):
        looped = StatsTracker()
        for _ in range(3):
            looped.record_command_batch(
                PimCmdKind.ADD, "add.int32.v", 10.5, 2.25, 0.125, count=4
            )
        replayed = StatsTracker()
        with replayed.recorded_trace() as trace:
            replayed.record_command_batch(
                PimCmdKind.ADD, "add.int32.v", 10.5, 2.25, 0.125, count=4
            )
        replayed.replay_trace(trace, times=2)
        assert replayed.snapshot() == looped.snapshot()
        assert replayed.commands == looped.commands


def _record_region(tracker):
    """One command, copy and host kernel, in the tracker's own form."""
    if isinstance(tracker, VectorStatsTracker):
        tracker.log_command(
            tracker.register_shape(("add",)),
            tracker.bucket_index("add.int32.v"),
            tracker.kind_index(PimCmdKind.ADD), 1,
        )
    else:
        tracker.record_command(PimCmdKind.ADD, "add.int32.v", 0.1, 0.2)
    tracker.record_copy("d2d", 8, 0.3, 0.4)
    tracker.record_host(0.5, 0.6)


def _state(tracker):
    """Everything a replay can change: scalar totals or vector logs."""
    if isinstance(tracker, VectorStatsTracker):
        return copy.deepcopy(
            (tracker._cmd_log, tracker._copy_log, tracker._host_log)
        )
    return copy.deepcopy(
        (tracker.snapshot(), tracker.commands, tracker.op_counts)
    )


class TestRecordingGuards:
    """The record/replay guards; the subclass below reruns them on the
    vector tracker, which shares the same implementation."""

    tracker_cls = StatsTracker

    def test_recording_does_not_nest(self):
        tracker = self.tracker_cls()
        with tracker.recorded_trace():
            with pytest.raises(RuntimeError, match="already"):
                with tracker.recorded_trace():
                    pass  # pragma: no cover - the guard raises first

    def test_replay_while_recording_rejected(self):
        tracker = self.tracker_cls()
        with tracker.recorded_trace() as trace:
            tracker.record_host(5.0, 1.0)
            with pytest.raises(RuntimeError, match="replay"):
                tracker.replay_trace(trace)

    def test_negative_times_rejected(self):
        tracker = self.tracker_cls()
        with tracker.recorded_trace() as trace:
            _record_region(tracker)
        before = _state(tracker)
        with pytest.raises(ValueError, match="times"):
            tracker.replay_trace(trace, times=-1)
        assert _state(tracker) == before

    def test_recording_cleared_after_exception(self):
        tracker = self.tracker_cls()
        with pytest.raises(RuntimeError, match="boom"):
            with tracker.recorded_trace():
                raise RuntimeError("boom")
        # The tap must not leak: subsequent records go nowhere special.
        tracker.record_host(1.0, 1.0)
        with tracker.recorded_trace() as trace:
            pass
        assert len(trace) == 0

    def test_replay_zero_times_is_noop(self):
        tracker = self.tracker_cls()
        with tracker.recorded_trace() as trace:
            _record_region(tracker)
        assert len(trace) == 3
        before = _state(tracker)
        tracker.replay_trace(trace, times=0)
        assert _state(tracker) == before


class TestVectorRecordingGuards(TestRecordingGuards):
    tracker_cls = VectorStatsTracker
