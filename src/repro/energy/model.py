"""Energy model: prices the event counts the performance models emit.

Section V-D decomposes energy into (i) data-transfer energy, (ii)
application-execution energy (row activations + logic/ALU switching +
walker and GDL movement), and (iii) background energy of all
simultaneously-active subarrays for the duration of the kernel.  Host
kernels are priced at CPU TDP; CPU idle power accrues while the host waits
on PIM.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.config.device import DeviceConfig
from repro.config.power import PowerConfig
from repro.energy.micron import MicronEnergyModel

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.base import CmdCost


@dataclasses.dataclass(frozen=True)
class CommandEnergy:
    """Energy of one command split into execution and background parts."""

    execution_nj: float
    background_nj: float

    @property
    def total_nj(self) -> float:
        return self.execution_nj + self.background_nj


class EnergyModel:
    """Per-device energy accounting."""

    def __init__(
        self,
        config: DeviceConfig,
        power: "PowerConfig | None" = None,
        alu_op_pj: "float | None" = None,
    ) -> None:
        self.config = config
        self.power = power or PowerConfig()
        self.micron = MicronEnergyModel(self.power.micron, config.dram)
        # Constants of this (config, power) pairing, resolved lazily on
        # first use (the backend registry may not be populated yet at
        # construction time) and then reused for every command: the
        # registry dispatch and the per-chip background derivation are
        # pure functions of immutable configuration.  A caller that
        # already holds the config's backend (the sweep pricer) passes
        # its ``alu_op_pj(power)`` to skip the registry dispatch: the
        # value ``arch_for(config)`` would resolve, or a float64 array
        # of one such value per design point priced at once.
        self._alu_pj: "float | None" = alu_op_pj
        self._background_w: "float | None" = None

    def _alu_op_pj(self) -> float:
        """Per-word-op switching energy, priced by the device's backend."""
        pj = self._alu_pj
        if pj is None:
            from repro.arch.registry import arch_for

            pj = arch_for(self.config).alu_op_pj(self.power)
            self._alu_pj = pj
        return pj

    def background_power_w(self) -> float:
        """Standby-delta power of the whole active module.

        Section V-D(iii) describes subtracting precharge standby from
        active standby; that IDD3N - IDD2N delta is a *per-chip* current,
        so the module-wide background is the delta times the chip count.
        (The paper's own VGG-19 numbers -- 45 J of PIM execution against
        22 J of 10 W CPU idle over the same interval -- confirm the
        background is watt-scale, not the kilowatt a per-subarray reading
        of the text would give.)
        """
        watts = self._background_w
        if watts is None:
            geometry = self.config.dram.geometry
            num_chips = geometry.num_ranks * geometry.chips_per_rank
            watts = self.micron.background_power_w_per_subarray() * num_chips
            self._background_w = watts
        return watts

    def command_energy(self, cost: CmdCost) -> CommandEnergy:
        """Execution plus background energy of one command."""
        compute = self.power.compute
        execution_nj = (
            cost.row_activations * self.micron.row_activation_energy_nj()
            + cost.lane_logic_ops * compute.bitserial_logic_pj * 1e-3
            + cost.alu_word_ops * self._alu_op_pj() * 1e-3
            + cost.walker_bits * compute.walker_latch_pj_per_bit * 1e-3
            + cost.gdl_bits * compute.gdl_transfer_pj_per_bit * 1e-3
        )
        background_nj = self.background_power_w() * cost.latency_ns  # W*ns == nJ
        return CommandEnergy(execution_nj=execution_nj, background_nj=background_nj)

    def transfer_energy_nj(self, num_bytes: int, direction: str) -> float:
        """Data-movement energy over the channel or within the device."""
        return self.micron.transfer_energy_nj(num_bytes, direction)

    def host_energy_nj(self, host_time_ns: float) -> float:
        """Host-kernel energy at CPU TDP (the paper's pessimistic choice)."""
        return self.power.host.cpu_tdp_w * host_time_ns

    def cpu_idle_energy_nj(self, pim_time_ns: float) -> float:
        """Idle energy of the host CPU while a PIM kernel runs."""
        return self.power.host.cpu_idle_w * pim_time_ns
