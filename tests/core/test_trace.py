"""Tests for trace recording, serialization, and cross-target replay."""

import numpy as np
import pytest

from repro.config.device import PimDeviceType
from repro.core.commands import PimCmdKind
from repro.core.errors import PimError
from repro.trace import TraceEvent, TraceRecorder, load_trace, replay_trace

from tests.conftest import make_device


def record_axpy(recorder, n=2048, scale=5):
    x = np.arange(n, dtype=np.int32) if recorder.functional else None
    y = np.ones(n, dtype=np.int32) if recorder.functional else None
    obj_x = recorder.alloc(n)
    obj_y = recorder.alloc_associated(obj_x)
    recorder.copy_host_to_device(x, obj_x)
    recorder.copy_host_to_device(y, obj_y)
    recorder.execute(PimCmdKind.SCALED_ADD, (obj_x, obj_y), obj_y, scalar=scale)
    result = recorder.copy_device_to_host(obj_y)
    recorder.free(obj_x)
    recorder.free(obj_y)
    return result


class TestRecording:
    def test_captures_event_sequence(self):
        recorder = TraceRecorder(make_device(PimDeviceType.FULCRUM))
        record_axpy(recorder)
        actions = [event.action for event in recorder.events]
        assert actions == [
            "alloc", "alloc_assoc", "h2d", "h2d", "execute", "d2h",
            "free", "free",
        ]

    def test_forwarding_preserves_function(self):
        recorder = TraceRecorder(make_device(PimDeviceType.FULCRUM))
        result = record_axpy(recorder, n=128, scale=3)
        assert np.array_equal(result, 3 * np.arange(128) + 1)

    def test_stats_accumulate_on_wrapped_device(self):
        recorder = TraceRecorder(make_device(PimDeviceType.FULCRUM))
        record_axpy(recorder)
        assert recorder.stats.total_command_count == 1
        assert recorder.stats.copy_bytes > 0


class TestSerialization:
    def test_json_roundtrip(self):
        recorder = TraceRecorder(make_device(PimDeviceType.FULCRUM))
        record_axpy(recorder)
        events = load_trace(recorder.to_json())
        assert events == recorder.events

    def test_event_dict_drops_empty_fields(self):
        event = TraceEvent(action="free", obj_ids=(3,))
        data = event.to_dict()
        assert "kind" not in data
        assert data["obj_ids"] == [3] or data["obj_ids"] == (3,)

    def test_roundtrip_replays_to_identical_costs(self):
        # JSON round-trip must preserve enough to reproduce the model
        # exactly: record, serialize, parse, replay, compare stats.
        recorder = TraceRecorder(make_device(PimDeviceType.FULCRUM))
        record_axpy(recorder)
        events = load_trace(recorder.to_json())
        replayed = replay_trace(
            events, make_device(PimDeviceType.FULCRUM, functional=False)
        )
        assert replayed.stats.snapshot() == recorder.stats.snapshot()


class TestReplay:
    def test_replay_reproduces_costs_on_same_target(self):
        recorder = TraceRecorder(
            make_device(PimDeviceType.FULCRUM, functional=False)
        )
        record_axpy(recorder)
        replayed = replay_trace(
            recorder.events, make_device(PimDeviceType.FULCRUM, functional=False)
        )
        assert replayed.stats.kernel_time_ns == pytest.approx(
            recorder.stats.kernel_time_ns
        )
        assert replayed.stats.copy_bytes == recorder.stats.copy_bytes

    @pytest.mark.parametrize("target", list(PimDeviceType),
                             ids=lambda d: d.value)
    def test_cross_architecture_replay(self, target):
        """One recorded program costs out on every simulation target."""
        recorder = TraceRecorder(
            make_device(PimDeviceType.FULCRUM, functional=False)
        )
        record_axpy(recorder, n=100_000)
        replayed = replay_trace(recorder.events, make_device(target,
                                                             functional=False))
        assert replayed.stats.kernel_time_ns > 0
        assert replayed.resources.num_live_objects == 0

    def test_replay_resolves_auto_layout_per_target(self):
        recorder = TraceRecorder(
            make_device(PimDeviceType.FULCRUM, functional=False)
        )
        obj = recorder.alloc(1000)
        recorder.execute(PimCmdKind.BROADCAST, (), obj, scalar=1)
        recorder.free(obj)
        bitserial = make_device(PimDeviceType.BITSIMD_V_AP, functional=False)
        replay_trace(recorder.events, bitserial)
        # The bit-serial device must have used its native vertical layout:
        # a 32-bit broadcast writes 32 rows, not one.
        assert "broadcast.int32.v" in bitserial.stats.commands

    def test_replay_requires_analytic_device(self):
        recorder = TraceRecorder(
            make_device(PimDeviceType.FULCRUM, functional=False)
        )
        record_axpy(recorder)
        with pytest.raises(PimError):
            replay_trace(recorder.events, make_device(PimDeviceType.FULCRUM))

    def test_gather_and_shift_events_replay(self):
        source = TraceRecorder(
            make_device(PimDeviceType.BITSIMD_V_AP, functional=False)
        )
        a = source.alloc(4096)
        b = source.alloc_associated(a)
        source.copy_device_to_device(a, b, shift_elements=4)
        source.model_gather(b)
        replayed = replay_trace(
            source.events, make_device(PimDeviceType.BANK_LEVEL,
                                       functional=False)
        )
        assert replayed.stats.device_to_device.num_bytes > 0


class TestBenchmarkTraces:
    """The exported trace is what the run billed, replays included."""

    @pytest.mark.parametrize("key", ["kmeans", "histogram", "aes-enc"])
    def test_replay_equals_the_direct_run(self, key):
        from repro.bench.registry import make_benchmark
        from repro.perf.vector import tracker_mismatches

        direct = make_device(PimDeviceType.FULCRUM, functional=False)
        make_benchmark(key).run(direct)
        recorder = TraceRecorder(
            make_device(PimDeviceType.FULCRUM, functional=False)
        )
        make_benchmark(key).run(recorder)
        replayed = replay_trace(
            load_trace(recorder.to_json()),
            make_device(PimDeviceType.FULCRUM, functional=False),
        )
        assert tracker_mismatches(replayed.stats, direct.stats) == []
        assert tracker_mismatches(recorder.device.stats, direct.stats) == []

    def test_gather_replays_its_byte_count(self):
        source = TraceRecorder(
            make_device(PimDeviceType.FULCRUM, functional=False)
        )
        obj = source.alloc(65536)
        source.model_gather(obj, num_bytes=64)
        replayed = replay_trace(
            load_trace(source.to_json()),
            make_device(PimDeviceType.FULCRUM, functional=False),
        )
        assert replayed.stats.device_to_device.num_bytes == 64

    def test_unrecorded_region_cannot_be_replayed(self):
        device = make_device(PimDeviceType.FULCRUM, functional=False)
        with device.stats.recorded_trace() as trace:
            pass
        with pytest.raises(PimError, match="not recorded under trace"):
            TraceRecorder(device).stats.replay_trace(trace)


def batched_program(device, n=4096, count=7):
    """A scalar add issued ``count`` times by one ``execute_batch``."""
    obj = device.alloc(n)
    out = device.alloc_associated(obj)
    device.copy_host_to_device(
        np.arange(n, dtype=np.int32) if device.functional else None, obj
    )
    device.execute_batch(
        PimCmdKind.ADD_SCALAR, (obj,), out, scalar=3, count=count
    )
    device.execute(PimCmdKind.REDSUM, (out,))
    device.free(obj)
    device.free(out)


class TestExecuteBatch:
    """A batching program traces, serializes and replays on any target."""

    def test_records_count_in_repeat(self):
        recorder = TraceRecorder(
            make_device(PimDeviceType.FULCRUM, functional=False)
        )
        batched_program(recorder)
        (event,) = [e for e in recorder.events if e.action == "execute_batch"]
        assert (event.kind, event.scalar, event.repeat) == ("ADD_SCALAR", 3, 7)
        assert load_trace(recorder.to_json()) == recorder.events

    @pytest.mark.parametrize("target", list(PimDeviceType))
    def test_replay_keeps_iterated_add_billing(self, target):
        """Replayed on another target, the trace bills what seven
        back-to-back ``execute`` calls bill there, bit for bit."""
        from repro.perf.vector import tracker_mismatches

        recorder = TraceRecorder(
            make_device(PimDeviceType.FULCRUM, functional=False)
        )
        batched_program(recorder)
        replayed = replay_trace(
            load_trace(recorder.to_json()),
            make_device(target, functional=False),
        )
        direct = make_device(target, functional=False)
        batched_program(direct)
        looped = make_device(target, functional=False)
        obj = looped.alloc(4096)
        out = looped.alloc_associated(obj)
        looped.copy_host_to_device(None, obj)
        for _ in range(7):
            looped.execute(PimCmdKind.ADD_SCALAR, (obj,), out, scalar=3)
        looped.execute(PimCmdKind.REDSUM, (out,))
        assert tracker_mismatches(replayed.stats, direct.stats) == []
        assert tracker_mismatches(replayed.stats, looped.stats) == []
