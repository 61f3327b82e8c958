"""Energy decomposition: where a run's joules actually went.

Prices the stats tracker's physical-event census with the configured
energy constants, splitting kernel energy into row activation, bit-serial
lane switching, word-ALU, walker, and GDL components, alongside transfer,
background, and host energy -- the breakdown behind the Figure 10b/11
bars.
"""

from __future__ import annotations

import dataclasses
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.device import PimDevice


@dataclasses.dataclass(frozen=True)
class EnergyBreakdown:
    """All energy components of one run, in millijoules."""

    row_activation_mj: float
    lane_logic_mj: float
    alu_mj: float
    walker_mj: float
    gdl_mj: float
    transfer_mj: float
    background_mj: float
    host_mj: float

    @property
    def kernel_mj(self) -> float:
        return (self.row_activation_mj + self.lane_logic_mj + self.alu_mj
                + self.walker_mj + self.gdl_mj)

    @property
    def total_mj(self) -> float:
        return (self.kernel_mj + self.transfer_mj + self.background_mj
                + self.host_mj)

    def shares(self) -> "dict[str, float]":
        """Percentage share of each component."""
        total = self.total_mj
        if total <= 0:
            return {}
        return {
            "row activation": 100.0 * self.row_activation_mj / total,
            "lane logic": 100.0 * self.lane_logic_mj / total,
            "alu": 100.0 * self.alu_mj / total,
            "walker": 100.0 * self.walker_mj / total,
            "gdl": 100.0 * self.gdl_mj / total,
            "transfer": 100.0 * self.transfer_mj / total,
            "background": 100.0 * self.background_mj / total,
            "host": 100.0 * self.host_mj / total,
        }


def energy_breakdown(device: PimDevice) -> EnergyBreakdown:
    """Decompose the device's accumulated energy by physical component."""
    stats = device.stats
    events = stats.events
    compute = device.energy.power.compute
    ap_nj = device.energy.micron.row_activation_energy_nj()
    alu_pj = device.energy._alu_op_pj()
    return EnergyBreakdown(
        row_activation_mj=events.row_activations * ap_nj / 1e6,
        lane_logic_mj=events.lane_logic_ops * compute.bitserial_logic_pj / 1e9,
        alu_mj=events.alu_word_ops * alu_pj / 1e9,
        walker_mj=events.walker_bits * compute.walker_latch_pj_per_bit / 1e9,
        gdl_mj=events.gdl_bits * compute.gdl_transfer_pj_per_bit / 1e9,
        transfer_mj=stats.copy_energy_nj / 1e6,
        background_mj=stats.background_energy_nj / 1e6,
        host_mj=stats.host_energy_nj / 1e6,
    )


def format_energy_breakdown(breakdown: EnergyBreakdown) -> str:
    lines = [f"{'component':<16s} {'mJ':>14s} {'share':>7s}"]
    shares = breakdown.shares()
    values = {
        "row activation": breakdown.row_activation_mj,
        "lane logic": breakdown.lane_logic_mj,
        "alu": breakdown.alu_mj,
        "walker": breakdown.walker_mj,
        "gdl": breakdown.gdl_mj,
        "transfer": breakdown.transfer_mj,
        "background": breakdown.background_mj,
        "host": breakdown.host_mj,
    }
    for name, value in values.items():
        lines.append(
            f"{name:<16s} {value:>14.6f} {shares.get(name, 0.0):>6.1f}%"
        )
    lines.append(f"{'TOTAL':<16s} {breakdown.total_mj:>14.6f} {100.0:>6.1f}%")
    return "\n".join(lines)
