"""Command-trace recording, export, and cross-architecture replay.

The PIM API doubles as an intermediate representation (the paper's
Section II suggests "targeting this API ... with a compiler" as future
work).  This module records the exact command/copy trace a program issues
against one device, serializes it to JSON, and replays it on any other
simulation target -- giving an apples-to-apples cost comparison of one
program across architectures without re-running the program logic.

Replay is analytic (costs only): traces capture shapes and scalars, not
payload data.  The trace is what the program billed: a host kernel is a
``host`` event, and a region a benchmark records once on
``device.stats`` and bills again by replay (k-means iterations,
histogram channels, AES mix-columns) is exported once per billing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import typing

from repro.config.device import PimAllocType, PimDataType
from repro.core.commands import PimCmdKind
from repro.core.device import PimDevice
from repro.core.errors import PimError


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One recorded API action.

    ``action`` is "alloc", "alloc_assoc", "free", "execute",
    "execute_batch", "h2d", "d2h", "d2d", or "host"; object references
    use the recorded object ids.  An "execute_batch" carries its issue
    count in ``repeat`` and replays with ``execute_batch`` billing
    (iterated adds).  A gather (a one-object "d2d") carries its byte
    count in ``scalar``; a host kernel carries its label in ``kind``
    and its modeled time in ``time_ns``.
    """

    action: str
    obj_ids: "tuple[int, ...]" = ()
    kind: "str | None" = None
    scalar: "int | None" = None
    repeat: int = 1
    num_elements: "int | None" = None
    dtype: "str | None" = None
    layout: "str | None" = None
    time_ns: "float | None" = None

    def to_dict(self) -> dict:
        return {k: v for k, v in dataclasses.asdict(self).items()
                if v not in (None, ())}

    @classmethod
    def from_dict(cls, data: dict) -> "TraceEvent":
        data = dict(data)
        if "obj_ids" in data:
            data["obj_ids"] = tuple(data["obj_ids"])
        return cls(**data)


class _TracedStats:
    """``device.stats`` as a program under trace sees it.

    Forwards to the wrapped device's tracker, but records the two ways
    a benchmark bills work without an API call: a host kernel, and a
    stats region it replays, whose events are appended again as often
    as the region is billed again.
    """

    def __init__(self, recorder: "TraceRecorder") -> None:
        self._device = recorder.device
        self._events = recorder.events
        self._regions: "list[tuple[typing.Any, list[TraceEvent]]]" = []

    def __getattr__(self, name: str) -> typing.Any:
        return getattr(self._device.stats, name)

    def record_host(
        self, time_ns: float, energy_nj: float, label: str = "kernel"
    ) -> None:
        self._events.append(
            TraceEvent(action="host", kind=label, time_ns=time_ns)
        )
        self._device.stats.record_host(time_ns, energy_nj, label)

    @contextlib.contextmanager
    def recorded_trace(self) -> typing.Iterator[typing.Any]:
        start = len(self._events)
        with self._device.stats.recorded_trace() as trace:
            yield trace
        self._regions.append((trace, self._events[start:]))

    def replay_trace(self, trace: typing.Any, times: int = 1) -> None:
        regions = [events for recorded, events in self._regions
                   if recorded is trace]
        if not regions:
            raise PimError("stats region was not recorded under trace")
        self._device.stats.replay_trace(trace, times)
        self._events.extend(regions[0] * times)


class TraceRecorder:
    """Wraps a device, recording every API action it performs.

    Use as the device handle inside the program under trace; all calls
    forward to the wrapped device.
    """

    def __init__(self, device: PimDevice) -> None:
        self.device = device
        self.events: "list[TraceEvent]" = []
        self._stats = _TracedStats(self)

    def _publish(self, action: str, **args) -> None:
        # Allocation-lifecycle markers on the simulated timeline; the
        # execute/copy costs are already published by the stats tracker.
        bus = self.device.stats.bus
        if bus is not None:
            bus.emit_instant(f"trace.{action}", "trace", args or None)

    # -- forwarded API ------------------------------------------------------

    @property
    def functional(self) -> bool:
        return self.device.functional

    @property
    def config(self):
        return self.device.config

    @property
    def stats(self):
        return self._stats

    @property
    def energy(self):
        return self.device.energy

    def alloc(self, num_elements, dtype=PimDataType.INT32,
              layout=PimAllocType.AUTO):
        obj = self.device.alloc(num_elements, dtype, layout)
        # Record the *requested* layout so a cross-architecture replay
        # resolves AUTO to the target's native layout.
        self.events.append(TraceEvent(
            action="alloc", obj_ids=(obj.obj_id,), num_elements=num_elements,
            dtype=dtype.name, layout=layout.name,
        ))
        self._publish(
            "alloc", obj_id=obj.obj_id, num_elements=num_elements,
            dtype=dtype.name,
        )
        return obj

    def alloc_associated(self, ref, dtype=None):
        obj = self.device.alloc_associated(ref, dtype)
        self.events.append(TraceEvent(
            action="alloc_assoc", obj_ids=(obj.obj_id, ref.obj_id),
            dtype=obj.dtype.name,
        ))
        self._publish("alloc_assoc", obj_id=obj.obj_id, ref=ref.obj_id)
        return obj

    def free(self, obj):
        self.events.append(TraceEvent(action="free", obj_ids=(obj.obj_id,)))
        self._publish("free", obj_id=obj.obj_id)
        self.device.free(obj)

    def copy_host_to_device(self, values, obj, repeat: int = 1):
        self.events.append(TraceEvent(
            action="h2d", obj_ids=(obj.obj_id,), repeat=repeat,
        ))
        self.device.copy_host_to_device(values, obj, repeat)

    def copy_device_to_host(self, obj, repeat: int = 1):
        self.events.append(TraceEvent(
            action="d2h", obj_ids=(obj.obj_id,), repeat=repeat,
        ))
        return self.device.copy_device_to_host(obj, repeat)

    def copy_device_to_device(self, src, dst, shift_elements=0,
                              pattern="local"):
        self.events.append(TraceEvent(
            action="d2d", obj_ids=(src.obj_id, dst.obj_id),
            scalar=shift_elements, kind=pattern,
        ))
        self.device.copy_device_to_device(src, dst, shift_elements, pattern)

    def model_gather(self, dst, values=None, num_bytes=None):
        self.events.append(TraceEvent(
            action="d2d", obj_ids=(dst.obj_id,), kind="gather",
            scalar=num_bytes,
        ))
        self.device.model_gather(dst, values, num_bytes)

    def _command(self, action, kind, inputs, dest, scalar, repeat) -> None:
        obj_ids = tuple(obj.obj_id for obj in inputs)
        if dest is not None:
            obj_ids = obj_ids + (dest.obj_id,)
        self.events.append(TraceEvent(
            action=action, obj_ids=obj_ids, kind=kind.name,
            scalar=scalar, repeat=repeat,
        ))

    def execute(self, kind, inputs=(), dest=None, scalar=None, repeat=1):
        self._command("execute", kind, inputs, dest, scalar, repeat)
        return self.device.execute(kind, inputs, dest, scalar, repeat)

    def execute_batch(self, kind, inputs=(), dest=None, scalar=None, count=1):
        self._command("execute_batch", kind, inputs, dest, scalar, count)
        return self.device.execute_batch(kind, inputs, dest, scalar, count)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps([event.to_dict() for event in self.events],
                          indent=2)


def load_trace(text: str) -> "list[TraceEvent]":
    return [TraceEvent.from_dict(item) for item in json.loads(text)]


def replay_trace(
    events: "typing.Iterable[TraceEvent]", device: PimDevice
) -> PimDevice:
    """Re-issue a recorded trace against another device (analytic).

    The device must be in analytic mode: traces carry no payload data.
    Returns the device so its stats can be inspected.
    """
    if device.functional:
        raise PimError("trace replay requires an analytic-mode device")
    objects: "dict[int, typing.Any]" = {}
    for event in events:
        if event.action == "alloc":
            obj = device.alloc(
                event.num_elements,
                PimDataType[event.dtype],
                PimAllocType[event.layout],
            )
            objects[event.obj_ids[0]] = obj
        elif event.action == "alloc_assoc":
            obj = device.alloc_associated(
                objects[event.obj_ids[1]], PimDataType[event.dtype]
            )
            objects[event.obj_ids[0]] = obj
        elif event.action == "free":
            device.free(objects.pop(event.obj_ids[0]))
        elif event.action == "h2d":
            device.copy_host_to_device(
                None, objects[event.obj_ids[0]], event.repeat
            )
        elif event.action == "d2h":
            device.copy_device_to_host(objects[event.obj_ids[0]], event.repeat)
        elif event.action == "d2d":
            if len(event.obj_ids) == 1:
                device.model_gather(
                    objects[event.obj_ids[0]], num_bytes=event.scalar
                )
            else:
                device.copy_device_to_device(
                    objects[event.obj_ids[0]], objects[event.obj_ids[1]],
                    event.scalar or 0, event.kind or "local",
                )
        elif event.action == "host":
            device.stats.record_host(
                event.time_ns, device.energy.host_energy_nj(event.time_ns),
                event.kind,
            )
        elif event.action in ("execute", "execute_batch"):
            kind = PimCmdKind[event.kind]
            obj_ids = event.obj_ids
            dest = None
            if not kind.spec.produces_scalar:
                dest = objects[obj_ids[-1]]
                obj_ids = obj_ids[:-1]
            issue = (
                device.execute if event.action == "execute"
                else device.execute_batch
            )
            issue(
                kind, tuple(objects[i] for i in obj_ids), dest,
                event.scalar, event.repeat,
            )
        else:
            raise PimError(f"unknown trace action {event.action!r}")
    return device
