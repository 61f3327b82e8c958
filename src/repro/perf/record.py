"""Target-independent recordings of a benchmark's PIM API stream.

A benchmark issues the same API calls on every target: which objects it
allocates, which commands it runs on them, what it copies and which host
kernels it models depend on its parameters alone, never on the device's
geometry or architecture.  Only the *layout* of that stream is
target-dependent -- how many cores an object spans, which command shape
and stats bucket each call becomes, what a copy costs.

:class:`Recorder` is the device a benchmark runs against to capture the
stream once: it plans no layout and prices nothing.  Objects are
interned by *operand class* -- ``(element count, dtype, requested alloc
type)``, the whole of what a target's layout of an object depends on
-- and calls by *site* -- ``(kind, scalar, input classes, dest class)``
-- so a loop that allocates fresh objects of the same size every
iteration reuses one site: paper-scale AES-decrypt's 13,580 issues
fall to 168 sites over two classes.

The product is a :class:`Recording`; :func:`repro.perf.plans.
layout_plan` lays it out on one target as the
:class:`~repro.perf.plans.PricingPlan` a live ``vector=True`` device
would have exported, bit for bit.
"""

from __future__ import annotations

import contextlib
import dataclasses
import typing

import numpy as np

from repro.config.device import PimAllocType, PimDataType
from repro.core.errors import (
    PimAllocationError,
    PimInvalidObjectError,
    PimTypeError,
)

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.common import PimBenchmark
    from repro.core.commands import PimCmdKind

#: Layout version of a pickled :class:`Recording` (part of its store key).
RECORDING_SCHEMA = 1

#: Copy-event methods: how one copy event prices on a target.
COPY_H2D, COPY_D2H, COPY_D2D, COPY_GATHER = range(4)


@dataclasses.dataclass(frozen=True, eq=False)
class Recording:
    """One benchmark's API stream, with no target in it.

    The int64 issue columns hold one entry per issue, in issue order; a
    stats region the benchmark replays (``device.stats.replay_trace``)
    is appended again as often as it is billed again, as the live
    vector tracker appends it.  Copies and host kernels keep their own
    logs, each in order: every log feeds its own float accumulators.
    """

    benchmark_key: str
    benchmark_name: str
    #: Operand classes ``(element count, dtype, requested alloc type)``,
    #: in first-allocation order.  An associated object takes its
    #: reference's element count and requested type.
    classes: "tuple[tuple[int, PimDataType, PimAllocType], ...]"
    #: Call sites ``(kind, scalar, input classes, dest class or None)``,
    #: in first-issue order.
    sites: "tuple[tuple[PimCmdKind, typing.Any, tuple[int, ...], int | None], ...]"
    issue_site: np.ndarray
    issue_repeat: np.ndarray
    #: 1 for ``execute_batch`` billing (iterated adds), 0 for ``repeat=``.
    issue_batch: np.ndarray
    #: ``(A, 3)`` int64 alloc/free stream: issues before the event, the
    #: allocated class (``-1`` for a free), the object id.
    allocs: np.ndarray
    #: ``(E, 3)`` int64 copy events: method, bytes moved, repeat.
    copies: np.ndarray
    host_time: np.ndarray
    host_labels: "tuple[str, ...]"
    # Device-independent roofline baselines.
    cpu_time_ns: float = 0.0
    cpu_energy_nj: float = 0.0
    gpu_time_ns: float = 0.0
    gpu_energy_nj: float = 0.0


class _Handle:
    """A recorded object: its id, class and liveness; no layout, no data."""

    __slots__ = ("obj_id", "cls", "num_elements", "dtype", "request", "freed")

    def __init__(self, obj_id, cls, num_elements, dtype, request) -> None:
        self.obj_id = obj_id
        self.cls = cls
        self.num_elements = num_elements
        self.dtype = dtype
        self.request = request
        self.freed = False

    @property
    def nbytes(self) -> int:
        """Transfer size, as :attr:`repro.core.object.PimObject.nbytes`."""
        return (self.num_elements * self.dtype.bits + 7) // 8

    def require_live(self) -> None:
        if self.freed:
            raise PimInvalidObjectError(f"object {self.obj_id} has been freed")


@dataclasses.dataclass
class _Region:
    """A stats region: where each log stood when it opened and closed."""

    owner: "Recorder"
    start: "tuple[int, int, int]"
    stop: "tuple[int, int, int] | None" = None


class Recorder:
    """The device a benchmark's analytic run records against.

    Exposes the part of :class:`~repro.core.device.PimDevice` that
    benchmarks call (``alloc``/``free``, copies, ``execute``/
    ``execute_batch``) and of its stats tracker (host kernels and
    ``recorded_trace``/``replay_trace`` regions; the recorder is its
    own ``stats``).  The checks that do not depend on a target run here,
    with the live device's messages: liveness, operand counts, scalar
    and destination presence, d2d sizes.  Layout compatibility and
    capacity depend on the target and are checked when the recording
    is laid out.  There is no ``config``: a program whose calls depend
    on the target cannot be recorded once for every target.
    """

    functional = False
    #: A recording streams no events (``repro.obs.spans.device_bus``).
    bus = None

    def __init__(self) -> None:
        self._classes: "dict[tuple, int]" = {}
        self._sites: "dict[tuple, tuple[int, int | None]]" = {}
        self._site_table: "list[tuple]" = []
        self._issue_site: "list[int]" = []
        self._issue_repeat: "list[int]" = []
        self._issue_batch: "list[int]" = []
        self._allocs: "list[tuple[int, int, int]]" = []
        self._copies: "list[tuple[int, int, int]]" = []
        self._host_time: "list[float]" = []
        self._host_labels: "list[str]" = []
        self._region: "_Region | None" = None
        self._next_id = 1

    # -- the device's and the tracker's faces -------------------------------

    @property
    def stats(self) -> "Recorder":
        return self

    @property
    def energy(self) -> "Recorder":
        # HostModel prices a host kernel's energy before billing it; the
        # recording keeps only its time, and layout prices it per target.
        return self

    @staticmethod
    def host_energy_nj(time_ns: float) -> float:
        return 0.0

    # -- allocation -----------------------------------------------------------

    def _new(self, num_elements, dtype, request) -> _Handle:
        cls = self._classes.setdefault(
            (num_elements, dtype, request), len(self._classes)
        )
        obj = _Handle(self._next_id, cls, num_elements, dtype, request)
        self._next_id += 1
        self._allocs.append((len(self._issue_site), cls, obj.obj_id))
        return obj

    def alloc(
        self,
        num_elements: int,
        dtype: PimDataType = PimDataType.INT32,
        layout: PimAllocType = PimAllocType.AUTO,
    ) -> _Handle:
        if num_elements <= 0:
            raise PimAllocationError(
                f"num_elements must be positive, got {num_elements}"
            )
        return self._new(num_elements, dtype, layout)

    def alloc_associated(
        self, ref: _Handle, dtype: "PimDataType | None" = None
    ) -> _Handle:
        ref.require_live()
        return self._new(ref.num_elements, dtype or ref.dtype, ref.request)

    def free(self, obj: _Handle) -> None:
        obj.require_live()
        obj.freed = True
        self._allocs.append((len(self._issue_site), -1, obj.obj_id))

    # -- data movement ----------------------------------------------------------

    def copy_host_to_device(self, values, obj: _Handle, repeat: int = 1) -> None:
        obj.require_live()
        self._copies.append((COPY_H2D, obj.nbytes, repeat))

    def copy_device_to_host(self, obj: _Handle, repeat: int = 1) -> None:
        obj.require_live()
        self._copies.append((COPY_D2H, obj.nbytes, repeat))
        return None

    def copy_device_to_device(
        self, src: _Handle, dst: _Handle, shift_elements: int = 0,
        pattern: str = "local",
    ) -> None:
        src.require_live()
        dst.require_live()
        if src.num_elements != dst.num_elements:
            raise PimTypeError(
                f"d2d copy size mismatch: {src.num_elements} vs "
                f"{dst.num_elements}"
            )
        method = {"local": COPY_D2D, "gather": COPY_GATHER}.get(pattern)
        if method is None:
            raise PimTypeError(f"unknown d2d pattern {pattern!r}")
        self._copies.append((method, src.nbytes, 1))

    def model_gather(self, dst: _Handle, values=None, num_bytes=None) -> None:
        dst.require_live()
        moved = dst.nbytes if num_bytes is None else num_bytes
        self._copies.append((COPY_GATHER, moved, 1))

    # -- commands ---------------------------------------------------------------

    def execute(self, kind, inputs=(), dest=None, scalar=None, repeat=1):
        if repeat < 1:
            raise PimTypeError(f"repeat must be >= 1, got {repeat}")
        return self._issue(kind, inputs, dest, scalar, repeat, 0)

    def execute_batch(self, kind, inputs=(), dest=None, scalar=None, count=1):
        if count < 1:
            raise PimTypeError(f"count must be >= 1, got {count}")
        return self._issue(kind, inputs, dest, scalar, count, 1)

    def _issue(self, kind, inputs, dest, scalar, mult, batch):
        """Append one issue: liveness checks, one dict hit, three appends.

        ``id(kind)`` keys the site because command kinds are enum
        singletons that live for the whole process (hashing an enum
        member runs Python code).
        """
        classes = []
        for obj in inputs:
            if obj.freed:
                obj.require_live()
            classes.append(obj.cls)
        if dest is None:
            dest_cls = None
        else:
            if dest.freed:
                dest.require_live()
            dest_cls = dest.cls
        key = (id(kind), scalar, tuple(classes), dest_cls)
        entry = self._sites.get(key)
        if entry is None:
            entry = self._register(kind, inputs, dest, scalar, key)
        self._issue_site.append(entry[0])
        self._issue_repeat.append(mult)
        self._issue_batch.append(batch)
        return entry[1]

    def _register(self, kind, inputs, dest, scalar, key):
        """First issue from a site: the target-free checks, then intern."""
        spec = kind.spec
        if len(inputs) != spec.num_vector_inputs:
            raise PimTypeError(
                f"{kind.name} takes {spec.num_vector_inputs} vector operands, "
                f"got {len(inputs)}"
            )
        if spec.has_scalar and scalar is None:
            raise PimTypeError(f"{kind.name} requires a scalar")
        if not spec.produces_scalar and dest is None:
            raise PimTypeError(f"{kind.name} requires a destination object")
        entry = (len(self._site_table), 0 if spec.produces_scalar else None)
        self._site_table.append((kind, scalar, key[2], key[3]))
        self._sites[key] = entry
        return entry

    # -- host kernels and stats regions -----------------------------------------

    def record_host(
        self, time_ns: float, energy_nj: float, label: str = "kernel"
    ) -> None:
        """Keep a host kernel's time and label; layout bills it at the
        target's host energy for that time, as ``HostModel`` does."""
        self._host_time.append(time_ns)
        self._host_labels.append(label)

    def _marks(self) -> "tuple[int, int, int]":
        return (len(self._issue_site), len(self._copies), len(self._host_time))

    @contextlib.contextmanager
    def recorded_trace(self) -> "typing.Iterator[_Region]":
        """Mark a region of the stream for :meth:`replay_trace`."""
        if self._region is not None:
            raise RuntimeError("a stats trace is already being recorded")
        region = self._region = _Region(self, self._marks())
        try:
            yield region
        finally:
            region.stop = self._marks()
            self._region = None

    def replay_trace(self, region: _Region, times: int = 1) -> None:
        """Bill a recorded region ``times`` more times: append it again."""
        if times < 0:
            raise ValueError(f"times must be >= 0, got {times}")
        if self._region is not None:
            raise RuntimeError("cannot replay while recording a trace")
        if not isinstance(region, _Region) or region.owner is not self:
            raise TypeError(
                f"a {type(region).__name__} was not recorded by this recorder"
            )
        issues, copies, hosts = region.start
        issues_end, copies_end, hosts_end = region.stop
        for log, start, stop in (
            (self._issue_site, issues, issues_end),
            (self._issue_repeat, issues, issues_end),
            (self._issue_batch, issues, issues_end),
            (self._copies, copies, copies_end),
            (self._host_time, hosts, hosts_end),
            (self._host_labels, hosts, hosts_end),
        ):
            log.extend(log[start:stop] * times)

    # -- the product ------------------------------------------------------------

    def recording(self, benchmark_key: str, benchmark_name: str,
                  **baselines: float) -> Recording:
        """The stream recorded so far, as int64/float64 columns."""
        int64 = np.int64
        return Recording(
            benchmark_key=benchmark_key,
            benchmark_name=benchmark_name,
            classes=tuple(self._classes),
            sites=tuple(self._site_table),
            issue_site=np.array(self._issue_site, dtype=int64),
            issue_repeat=np.array(self._issue_repeat, dtype=int64),
            issue_batch=np.array(self._issue_batch, dtype=int64),
            allocs=np.array(self._allocs, dtype=int64).reshape(-1, 3),
            copies=np.array(self._copies, dtype=int64).reshape(-1, 3),
            host_time=np.array(self._host_time, dtype=np.float64),
            host_labels=tuple(self._host_labels),
            **baselines,
        )


def record(benchmark_key: str, bench: "PimBenchmark") -> Recording:
    """Run ``bench``'s PIM phase once against a :class:`Recorder`.

    Also takes the device-independent CPU/GPU baselines, so a recording
    is everything a plan needs besides its target.
    """
    from repro.baselines.cpu import CpuModel
    from repro.baselines.gpu import GpuModel
    from repro.host.model import HostModel

    recorder = Recorder()
    cpu = CpuModel()
    bench.run_pim(recorder, HostModel(recorder, cpu))
    cpu_time, cpu_energy = cpu.run(bench.cpu_profile())
    gpu_time, gpu_energy = GpuModel().run(bench.gpu_profile())
    return recorder.recording(
        benchmark_key, bench.name,
        cpu_time_ns=cpu_time, cpu_energy_nj=cpu_energy,
        gpu_time_ns=gpu_time, gpu_energy_nj=gpu_energy,
    )
