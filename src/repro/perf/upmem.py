"""`PerfModel` adapter over the Section V-E toy UPMEM model.

The backend (:class:`repro.arch.upmem.UpmemBackend`) builds it in
``make_perf_model``.  Cost mapping: each command streams its operand
bytes through MRAM at the DPU's streaming bandwidth and spends the
command's documented ALU cycle class per element at the DPU clock --
serialized, as PIMeval's toy model does.  Only ``alu_word_ops`` is
emitted for energy (DPUs have no DRAM-row or GDL events to price).
"""

from __future__ import annotations

from repro.arch.upmem import UPMEM_DEVICE
from repro.config.device import DeviceConfig
from repro.perf.base import CmdCost, CommandArgs
from repro.upmem.model import UpmemConfig, UpmemKernel, UpmemToyModel


class UpmemPerfModel:
    """`PerfModel` adapter over :class:`~repro.upmem.UpmemToyModel`."""

    def __init__(self, config: DeviceConfig) -> None:
        # Parametric derivatives carry "upmem@<digest>" values; the
        # guard accepts them (the cost model reads only the geometry).
        base_value = str(config.device_type.value).partition("@")[0]
        if base_value != UPMEM_DEVICE.value:
            from repro.core.errors import PimTypeError

            raise PimTypeError(
                "UpmemPerfModel requires an UPMEM config, got "
                f"{config.device_type}",
                device_type=str(getattr(config.device_type, "value", "?")),
            )
        self.config = config
        self.upmem = UpmemConfig(
            num_dpus=config.dram.geometry.num_banks
        )
        self.toy = UpmemToyModel(self.upmem)

    def _kernel_for(self, args: CommandArgs) -> UpmemKernel:
        """Per-element streaming/compute costs of one command."""
        element_bytes = max(1, args.bits // 8)
        # Every vector operand streams through MRAM once; the result
        # streams back.  Scalar-producing commands only read.
        streams = len(args.inputs) + (1 if args.dest is not None else 0)
        instructions = max(1, args.kind.spec.alu_cycles)
        return UpmemKernel(
            name=args.kind.name,
            bytes_per_element=float(max(1, streams) * element_bytes),
            instructions_per_element=float(instructions),
        )

    def cost_of(self, args: CommandArgs) -> CmdCost:
        driving = args.driving_layout
        num_elements = max(1, driving.num_elements)
        kernel = self._kernel_for(args)
        latency = self.toy.kernel_time_ns(kernel, num_elements)
        if args.kind.spec.produces_scalar:
            # Per-DPU partials return over the channel, as on the other
            # backends' reductions.
            partial_bytes = self.upmem.num_dpus * max(4, args.bits // 8)
            latency += partial_bytes / self.config.dram.transfer_bandwidth_bytes_per_ns
        instructions = kernel.instructions_per_element * num_elements
        return CmdCost(
            latency_ns=latency,
            alu_word_ops=instructions,
            cores_active=min(self.upmem.num_dpus, driving.num_cores_used),
        )
