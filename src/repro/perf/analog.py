"""Performance model of the analog bit-serial (TRA) device.

The extension variant of Section IX: the same subarray-level bit-serial
organization as DRAM-AP, but computing with triple row activation instead
of per-sense-amp digital logic.  Every high-level command reuses the
digital microprogram library; each digital micro-op is expanded into its
MAJ/AAP/DCC construction (see :mod:`repro.microcode.analog`), which makes
the copy-into-compute-rows overhead and the MAJ-composition blowup --
the reasons DRAM vendors prefer digital PIM (Section IV) -- directly
measurable.
"""

from __future__ import annotations

from repro.config.device import DeviceConfig
from repro.core.commands import PimCmdKind
from repro.core.errors import PimTypeError
from repro.microcode.analog import AnalogTiming, translate_program
from repro.perf.base import CmdCost, CommandArgs
from repro.perf.bitserial import POPCOUNT_TREE_STAGES, resolve_program


class AnalogBitSerialPerfModel:
    """Cost model for analog (TRA) bit-serial devices."""

    def __init__(
        self, config: DeviceConfig, timing: "AnalogTiming | None" = None
    ) -> None:
        device_type = config.device_type
        if not (device_type.is_bit_serial and device_type.is_analog):
            raise PimTypeError(
                "AnalogBitSerialPerfModel requires an analog bit-serial "
                f"config, got {device_type}"
            )
        self.config = config
        self.analog_timing = timing or AnalogTiming()

    def cost_of(self, args: CommandArgs) -> CmdCost:
        dram_timing = self.config.dram.timing
        driving = args.driving_layout
        groups = driving.groups_per_core
        cores = driving.num_cores_used

        # Resolve the digital microprogram (same scalar baking and
        # signedness handling as the digital device), then read its
        # TRA-level primitive counts, expanded once per process.
        per_pass = translate_program(resolve_program(args))
        total = per_pass.scaled(groups)

        popcount_ns = (
            dram_timing.row_read_ns + POPCOUNT_TREE_STAGES * dram_timing.tccd_ns
        )
        latency = total.latency_ns(self.analog_timing, popcount_ns)
        if args.kind is PimCmdKind.REDSUM:
            partial_bytes = cores * max(4, args.bits // 8)
            latency += (
                partial_bytes / self.config.dram.transfer_bandwidth_bytes_per_ns
            )

        # Energy accounting: an AAP is two row activations; a TRA charges
        # three simultaneously-opened rows at roughly double one cycle.
        row_activations = (2 * total.num_aaps + 2 * total.num_tras) * cores
        row_activations += total.num_popcount_rows * cores
        return CmdCost(
            latency_ns=latency,
            row_activations=row_activations,
            cores_active=cores,
        )
