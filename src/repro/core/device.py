"""The PIM device: command execution, data movement, and accounting.

``PimDevice`` binds together the resource manager, the architecture's
performance model, and the energy model (the structure of Figure 5).  It
runs in one of two modes:

* *functional* -- objects carry numpy shadows and every command computes
  its real result (used by tests and examples; mirrors the artifact's
  functional-verification flow), and
* *analytic* -- objects are shape-only and commands only accrue modeled
  latency/energy (used to run the paper-scale workloads of the evaluation
  without materializing multi-gigabyte vectors).

Either way the modeled numbers are identical, because the performance
model depends only on the command trace and the operand layouts.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.config.device import (
    DeviceConfig,
    PimAllocType,
    PimDataType,
)
from repro.config.power import PowerConfig
from repro.core.commands import PimCmdKind
from repro.core.errors import PimTypeError
from repro.core.object import PimObject
from repro.core.resource import ResourceManager
from repro.core.stats import EventCounts, StatsTracker
from repro.energy.model import EnergyModel
from repro.perf import DataMovementModel, make_perf_model
from repro.perf.base import CommandArgs
from repro.perf.memo import CostPipeline


def _wrap_scalar(scalar: int, dtype: PimDataType):
    """Clamp a Python int into the dtype's range with wraparound."""
    bits = dtype.bits
    if dtype is PimDataType.BOOL:
        return bool(scalar)
    mask = (1 << bits) - 1
    value = int(scalar) & mask
    if dtype.signed and value >= 1 << (bits - 1):
        value -= 1 << bits
    return np.dtype(dtype.numpy_name).type(value)


def _popcount(values: np.ndarray, bits: int) -> np.ndarray:
    """Vectorized per-element population count."""
    unsigned = values.astype(np.uint64) & np.uint64((1 << bits) - 1)
    counts = np.zeros(values.shape, dtype=np.uint64)
    for i in range(bits):
        counts += (unsigned >> np.uint64(i)) & np.uint64(1)
    return counts


class PimDevice:
    """One simulated PIM device instance."""

    def __init__(
        self,
        config: "DeviceConfig | None" = None,
        functional: bool = True,
        power: "PowerConfig | None" = None,
        enforce_capacity: bool = True,
        bus: "typing.Any | None" = None,
        faults: "typing.Any | None" = None,
        vector: bool = False,
    ) -> None:
        self.config = config or DeviceConfig()
        self.functional = functional
        self.vector = vector
        if vector:
            # Vector mode is analytic-only and unobserved: there is no
            # data path to compute with, no per-issue event stream to
            # publish, and no functional state for faults to corrupt
            # (see docs/VECTORIZATION.md "when the scalar path runs").
            if functional:
                raise PimTypeError("vector mode is analytic-only "
                                   "(functional=False required)")
            if bus is not None:
                raise PimTypeError("vector mode cannot stream per-issue "
                                   "events; attach no bus")
            if faults is not None:
                raise PimTypeError("vector mode has no functional data "
                                   "path for fault injection")
        self.resources = ResourceManager(self.config, enforce_capacity)
        self.perf = make_perf_model(self.config)
        self.energy = EnergyModel(self.config, power)
        # The memoized cost pipeline in front of the perf/energy models:
        # identical-shape commands pay the closed-form derivation once
        # (see docs/PERFORMANCE.md §5).
        from repro.arch.registry import arch_for

        self._backend = arch_for(self.config)
        self.pipeline = CostPipeline(self.perf, self.energy, self._backend)
        # ``bus`` is an optional repro.obs EventBus: attaching one makes
        # every command/copy/host record also stream onto the simulated
        # timeline (see docs/OBSERVABILITY.md); None costs nothing.
        if vector:
            from repro.perf.vector import VectorStatsTracker

            self.stats: "StatsTracker | VectorStatsTracker" = (
                VectorStatsTracker()
            )
        else:
            self.stats = StatsTracker(bus)
        self._signatures: "dict[tuple, str]" = {}
        # Vector-mode call-site cache: maps a call's operand tokens
        # (plus kind/scalar) to its interned (shape, bucket, kind)
        # indices, so a hot loop's issue cost is liveness checks, one
        # dict hit, and one log append.  Tokens intern ``(layout,
        # dtype)`` pairs *by value* (ObjectLayout is a frozen
        # dataclass), so freshly allocated objects with the same
        # geometry reuse the site of every earlier equal-shaped call.
        self._vector_sites: "dict[tuple, tuple[int, int, int, bool]]" = {}
        self._vector_shapes: "dict[tuple, int]" = {}
        self._layout_tokens: "dict[tuple, int]" = {}
        self.data_movement = DataMovementModel(self.config)
        # ``faults`` is an optional repro.faults FaultInjector (or a
        # FaultPlan, wrapped here): seeded, deterministic corruption of
        # the functional data path (see docs/RESILIENCE.md); None costs
        # a single attribute check per hook site.
        if faults is not None and not hasattr(faults, "on_command_dest"):
            from repro.faults.injector import FaultInjector

            faults = FaultInjector(faults)
        self.faults = faults

    def attach_bus(self, bus) -> None:
        """Attach (or replace) the observability event bus."""
        if self.vector and bus is not None:
            raise PimTypeError(
                "vector mode cannot stream per-issue events; attach no bus"
            )
        self.stats.bus = bus

    # -- allocation -----------------------------------------------------------

    def alloc(
        self,
        num_elements: int,
        dtype: PimDataType = PimDataType.INT32,
        layout: PimAllocType = PimAllocType.AUTO,
    ) -> PimObject:
        return self.resources.alloc(num_elements, dtype, layout)

    def alloc_associated(
        self, ref: PimObject, dtype: "PimDataType | None" = None
    ) -> PimObject:
        return self.resources.alloc_associated(ref, dtype)

    def free(self, obj: PimObject) -> None:
        self.resources.free(obj)

    # -- data movement ----------------------------------------------------------

    def copy_host_to_device(
        self, values: "np.ndarray | None", obj: PimObject, repeat: int = 1
    ) -> None:
        """Copy a host array into an object; ``values`` may be None in
        analytic mode (only the transfer is modeled).  ``repeat`` models
        that many back-to-back transfers of the same size (analytic bulk
        loops); the data is installed once."""
        obj.require_live()
        if self.functional:
            if values is None:
                raise PimTypeError("functional mode requires host data")
            obj.set_data(values)
            if self.faults is not None:
                self.faults.on_data_install(obj, self.stats.bus)
        num_bytes = obj.nbytes
        latency = self.data_movement.host_transfer_ns(num_bytes)
        energy = self.energy.transfer_energy_nj(num_bytes, "h2d")
        self.stats.record_copy(
            "h2d", num_bytes * repeat, latency * repeat, energy * repeat
        )

    def copy_device_to_host(
        self, obj: PimObject, repeat: int = 1
    ) -> "np.ndarray | None":
        """Copy an object's contents back; returns None in analytic mode."""
        obj.require_live()
        num_bytes = obj.nbytes
        latency = self.data_movement.host_transfer_ns(num_bytes)
        energy = self.energy.transfer_energy_nj(num_bytes, "d2h")
        self.stats.record_copy(
            "d2h", num_bytes * repeat, latency * repeat, energy * repeat
        )
        if self.functional:
            return obj.require_data().copy()
        return None

    def copy_device_to_device(
        self,
        src: PimObject,
        dst: PimObject,
        shift_elements: int = 0,
        pattern: str = "local",
    ) -> None:
        """Device-internal copy (data re-layout between kernels).

        ``shift_elements`` rotates the data by that many positions (the
        in-row shifted copies image kernels use); ``pattern`` selects the
        cost model: "local" for the massively parallel in-subarray row
        copy, "gather" for random inter-core movement serialized over the
        module's internal bus.
        """
        src.require_live()
        dst.require_live()
        if src.num_elements != dst.num_elements:
            raise PimTypeError(
                f"d2d copy size mismatch: {src.num_elements} vs {dst.num_elements}"
            )
        if self.functional:
            data = src.require_data()
            if shift_elements:
                data = np.roll(data, -shift_elements)
            dst.set_data(data.astype(dst.numpy_dtype()))
            if self.faults is not None:
                self.faults.on_data_install(dst, self.stats.bus)
        num_bytes = src.nbytes
        if pattern == "gather":
            latency = self.data_movement.device_gather_ns(num_bytes)
        elif pattern == "local":
            latency = self.data_movement.device_transfer_ns(num_bytes)
        else:
            raise PimTypeError(f"unknown d2d pattern {pattern!r}")
        energy = self.energy.transfer_energy_nj(num_bytes, "d2d")
        self.stats.record_copy("d2d", num_bytes, latency, energy)

    def model_gather(
        self, dst: PimObject, values: "np.ndarray | None" = None,
        num_bytes: "int | None" = None,
    ) -> None:
        """Model a random on-device gather materializing ``dst``.

        Used when the gather's source spans an object of different size
        (e.g. collecting adjacency rows for an edge batch out of a resident
        bitmap).  In functional mode the gathered ``values`` are installed
        directly; the movement is billed at the internal-bus rate.
        """
        dst.require_live()
        if self.functional:
            if values is None:
                raise PimTypeError("functional mode requires gathered values")
            dst.set_data(values)
            if self.faults is not None:
                self.faults.on_data_install(dst, self.stats.bus)
        moved = dst.nbytes if num_bytes is None else num_bytes
        latency = self.data_movement.device_gather_ns(moved)
        energy = self.energy.transfer_energy_nj(moved, "d2d")
        self.stats.record_copy("d2d", moved, latency, energy)

    # -- command execution ---------------------------------------------------

    def execute(
        self,
        kind: PimCmdKind,
        inputs: "typing.Sequence[PimObject]" = (),
        dest: "PimObject | None" = None,
        scalar: "int | None" = None,
        repeat: int = 1,
    ) -> "int | None":
        """Run one PIM command; returns the value for scalar-producing ones.

        ``repeat`` accounts for ``repeat`` back-to-back issues of the same
        command in one call (used by benchmarks whose inner loops would
        otherwise issue millions of identical commands); the functional
        result is computed once, the modeled cost ``repeat`` times.
        """
        if repeat < 1:
            raise PimTypeError(f"repeat must be >= 1, got {repeat}")
        if self.vector:
            return self._vector_issue(kind, inputs, dest, scalar, repeat,
                                      is_batch=False)
        spec, cost, energy, signature = self._prepare(kind, inputs, dest, scalar)
        self.stats.record_command(
            kind,
            signature,
            cost.latency_ns * repeat,
            energy.execution_nj * repeat,
            energy.background_nj * repeat,
            count=repeat,
            events=EventCounts(
                row_activations=cost.row_activations,
                lane_logic_ops=cost.lane_logic_ops,
                alu_word_ops=cost.alu_word_ops,
                walker_bits=cost.walker_bits,
                gdl_bits=cost.gdl_bits,
            ).scaled(repeat),
        )

        if self.functional:
            return self._functional_issue(kind, spec, inputs, dest, scalar, cost)
        if spec.produces_scalar:
            return 0
        return None

    def execute_batch(
        self,
        kind: PimCmdKind,
        inputs: "typing.Sequence[PimObject]" = (),
        dest: "PimObject | None" = None,
        scalar: "int | None" = None,
        count: int = 1,
    ) -> "int | None":
        """Issue the same command ``count`` times back to back.

        Equivalent -- in stats, energy, fault behaviour, and bus event
        stream -- to calling :meth:`execute` ``count`` times with the
        same arguments, but the validation, cost derivation, and stats
        bucket lookup happen once.  Unlike ``repeat=`` (which bills one
        multiplied record), each issue is billed individually, so the
        accumulated floats match the per-call loop bit for bit.  In
        functional mode every issue runs the full compute/fault path and
        the last issue's value is returned.
        """
        if count < 1:
            raise PimTypeError(f"count must be >= 1, got {count}")
        if self.vector:
            return self._vector_issue(kind, inputs, dest, scalar, count,
                                      is_batch=True)
        spec, cost, energy, signature = self._prepare(kind, inputs, dest, scalar)
        self.stats.record_command_batch(
            kind,
            signature,
            cost.latency_ns,
            energy.execution_nj,
            energy.background_nj,
            count=count,
            events=EventCounts(
                row_activations=cost.row_activations,
                lane_logic_ops=cost.lane_logic_ops,
                alu_word_ops=cost.alu_word_ops,
                walker_bits=cost.walker_bits,
                gdl_bits=cost.gdl_bits,
            ),
        )

        if self.functional:
            value: "int | None" = None
            for _ in range(count):
                value = self._functional_issue(
                    kind, spec, inputs, dest, scalar, cost
                )
            return value
        if spec.produces_scalar:
            return 0
        return None

    def _validate(self, kind, inputs, dest, scalar):
        """Validate one command's operands; returns its spec."""
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
        for obj in inputs:
            obj.require_live()
        if dest is not None:
            dest.require_live()
            self.resources.check_layout_compatible(
                *(list(inputs[-min(2, len(inputs)):]) + [dest])
                if inputs
                else [dest]
            )
        return spec

    def _prepare(self, kind, inputs, dest, scalar):
        """Validate one command and derive its (spec, cost, energy, signature)."""
        spec = self._validate(kind, inputs, dest, scalar)
        anchor = inputs[-1] if inputs else dest  # drives width/sign/signature
        args = CommandArgs(
            kind=kind,
            bits=anchor.bits,
            inputs=tuple(obj.layout for obj in inputs),
            dest=dest.layout if dest is not None else None,
            scalar=scalar,
            signed=anchor.dtype.signed,
        )
        cost, energy = self.pipeline.cost_and_energy(args)
        return spec, cost, energy, self._signature(kind, anchor)

    def _vector_issue(self, kind, inputs, dest, scalar, mult, is_batch):
        """Vector-mode issue: append to the shape histogram, price later.

        Every operand carries a cached small-int token interning its
        ``(layout, dtype)`` pair by value, so the steady-state cost of
        an issue is liveness checks, one dict hit, and one log append
        -- and a freshly allocated object with the geometry of an
        earlier one reuses its call site instead of re-validating.
        Validation and the memo-key derivation run once per distinct
        site; the interned shape indices key on the same tuple the
        scalar cost memo uses, so the histogram has exactly as many
        rows as the memo has shapes.  ``id(kind)`` is a sound key
        component because command kinds are enum singletons that live
        for the whole process.
        """
        tokens = self._layout_tokens
        in_toks = []
        for obj in inputs:
            obj.require_live()
            tok = getattr(obj, "_vector_token", None)
            if tok is None:
                # The layout and dtype are fixed for an object's whole
                # lifetime, so the token can live on the object itself.
                tok = tokens.setdefault((obj.layout, obj.dtype), len(tokens))
                obj._vector_token = tok
            in_toks.append(tok)
        if dest is not None:
            dest.require_live()
            dest_tok = getattr(dest, "_vector_token", None)
            if dest_tok is None:
                dest_tok = tokens.setdefault(
                    (dest.layout, dest.dtype), len(tokens)
                )
                dest._vector_token = dest_tok
        else:
            dest_tok = None
        site_key = (id(kind), scalar, tuple(in_toks), dest_tok)
        site = self._vector_sites.get(site_key)
        if site is None:
            site = self._vector_register(kind, inputs, dest, scalar)
            self._vector_sites[site_key] = site
        shape_idx, bucket_idx, kind_idx, produces_scalar = site
        self.stats.log_command(shape_idx, bucket_idx, kind_idx, mult, is_batch)
        if produces_scalar:
            return 0
        return None

    def _vector_register(self, kind, inputs, dest, scalar):
        """First issue from a call site: validate, intern, dedupe by shape."""
        spec = self._validate(kind, inputs, dest, scalar)
        anchor = inputs[-1] if inputs else dest
        args = CommandArgs(
            kind=kind,
            bits=anchor.bits,
            inputs=tuple(obj.layout for obj in inputs),
            dest=dest.layout if dest is not None else None,
            scalar=scalar,
            signed=anchor.dtype.signed,
        )
        shape_key = (
            args.kind,
            args.bits,
            args.signed,
            self._backend.cost_memo_param(args),
            args.inputs,
            args.dest,
        )
        shape_idx = self._vector_shapes.get(shape_key)
        if shape_idx is None:
            shape_idx = self.stats.register_shape(args)
            self._vector_shapes[shape_key] = shape_idx
        bucket_idx = self.stats.bucket_index(self._signature(kind, anchor))
        kind_idx = self.stats.kind_index(kind)
        return (shape_idx, bucket_idx, kind_idx, spec.produces_scalar)

    def _functional_issue(self, kind, spec, inputs, dest, scalar, cost):
        """One functional issue: fault gate, compute, destination faults."""
        faults = self.faults
        if faults is not None:
            bus = self.stats.bus
            if faults.drops_command(kind.api_name, bus):
                # The command was billed but never committed: the
                # destination keeps its stale contents, and a
                # scalar-producing command reports garbage (0).
                return 0 if spec.produces_scalar else None
            value = self._compute(kind, inputs, dest, scalar)
            if dest is not None:
                faults.on_command_dest(dest, cost.row_activations, bus)
            return value
        return self._compute(kind, inputs, dest, scalar)

    def _signature(self, kind: PimCmdKind, anchor: PimObject) -> str:
        key = (kind, anchor.dtype, anchor.layout.layout)
        signature = self._signatures.get(key)
        if signature is None:
            layout_letter = (
                "v" if anchor.layout.layout is PimAllocType.VERTICAL else "h"
            )
            signature = f"{kind.api_name}.{anchor.dtype.numpy_name}.{layout_letter}"
            self._signatures[key] = signature
        return signature

    # -- functional engine -----------------------------------------------------

    def _compute(
        self,
        kind: PimCmdKind,
        inputs: "typing.Sequence[PimObject]",
        dest: "PimObject | None",
        scalar: "int | None",
    ) -> "int | None":
        with np.errstate(over="ignore"):
            return self._compute_inner(kind, inputs, dest, scalar)

    def _compute_inner(
        self,
        kind: PimCmdKind,
        inputs: "typing.Sequence[PimObject]",
        dest: "PimObject | None",
        scalar: "int | None",
    ) -> "int | None":
        data = [obj.require_data() for obj in inputs]
        k = PimCmdKind

        if kind is k.BROADCAST:
            value = _wrap_scalar(scalar, dest.dtype)
            dest.data = np.full(dest.num_elements, value, dtype=dest.numpy_dtype())
            return None
        if kind is k.REDSUM:
            return int(np.sum(data[0], dtype=np.int64))

        if kind in (k.ADD, k.SUB, k.MUL, k.AND, k.OR, k.XOR, k.XNOR,
                    k.MIN, k.MAX, k.LT, k.GT, k.EQ, k.NE):
            a, b = data
            result = _BINARY_FUNCS[kind](a, b)
        elif kind is k.SELECT:
            cond, a, b = data
            result = np.where(cond.astype(bool), a, b)
        elif kind is k.SCALED_ADD:
            a, b = data
            factor = _wrap_scalar(scalar, inputs[0].dtype)
            result = a * factor + b
        elif kind is k.SAT_ADD_SCALAR:
            dtype_info = np.iinfo(inputs[0].numpy_dtype())
            widened = data[0].astype(np.int64) + int(scalar)
            result = np.clip(widened, dtype_info.min, dtype_info.max)
        elif kind in (k.ADD_SCALAR, k.SUB_SCALAR, k.MUL_SCALAR,
                      k.MIN_SCALAR, k.MAX_SCALAR, k.EQ_SCALAR,
                      k.LT_SCALAR, k.GT_SCALAR, k.AND_SCALAR,
                      k.OR_SCALAR, k.XOR_SCALAR):
            value = _wrap_scalar(scalar, inputs[0].dtype)
            result = _SCALAR_FUNCS[kind](data[0], value)
        elif kind is k.NOT:
            result = np.invert(data[0])
        elif kind is k.ABS:
            result = np.abs(data[0])
        elif kind is k.POPCOUNT:
            result = _popcount(data[0], inputs[0].bits)
        elif kind is k.COPY:
            result = data[0]
        elif kind is k.SHIFT_LEFT:
            result = np.left_shift(data[0], scalar)
        elif kind is k.SHIFT_RIGHT:
            result = np.right_shift(data[0], scalar)
        else:  # pragma: no cover - exhaustive over PimCmdKind
            raise NotImplementedError(f"functional engine lacks {kind}")

        dest.data = np.asarray(result).astype(dest.numpy_dtype())
        return None


_BINARY_FUNCS = {
    PimCmdKind.ADD: np.add,
    PimCmdKind.SUB: np.subtract,
    PimCmdKind.MUL: np.multiply,
    PimCmdKind.AND: np.bitwise_and,
    PimCmdKind.OR: np.bitwise_or,
    PimCmdKind.XOR: np.bitwise_xor,
    PimCmdKind.XNOR: lambda a, b: np.invert(np.bitwise_xor(a, b)),
    PimCmdKind.MIN: np.minimum,
    PimCmdKind.MAX: np.maximum,
    PimCmdKind.LT: np.less,
    PimCmdKind.GT: np.greater,
    PimCmdKind.EQ: np.equal,
    PimCmdKind.NE: np.not_equal,
}

_SCALAR_FUNCS = {
    PimCmdKind.ADD_SCALAR: np.add,
    PimCmdKind.SUB_SCALAR: np.subtract,
    PimCmdKind.MUL_SCALAR: np.multiply,
    PimCmdKind.MIN_SCALAR: np.minimum,
    PimCmdKind.MAX_SCALAR: np.maximum,
    PimCmdKind.EQ_SCALAR: np.equal,
    PimCmdKind.LT_SCALAR: np.less,
    PimCmdKind.GT_SCALAR: np.greater,
    PimCmdKind.AND_SCALAR: np.bitwise_and,
    PimCmdKind.OR_SCALAR: np.bitwise_or,
    PimCmdKind.XOR_SCALAR: np.bitwise_xor,
}
