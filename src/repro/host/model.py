"""Host-execution model for PIM+Host benchmarks.

Several PIMbench benchmarks run constituent kernels on the host CPU
because the access pattern is random or requires inter-bank communication
(Table I "PIM + Host").  PIMeval measures those with the host's
high-resolution clock; this reproduction models them with the same
roofline used for the CPU baseline and charges CPU-TDP energy
(Section V-D(ii)), recording both into the device's stats so that the
breakdown of Figure 7 falls out directly.
"""

from __future__ import annotations

import typing

from repro.baselines.cpu import CpuModel
from repro.baselines.roofline import KernelProfile

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.device import PimDevice


class HostModel:
    """Models host kernels and records them against a PIM device run."""

    def __init__(self, device: PimDevice, cpu: "CpuModel | None" = None) -> None:
        self.device = device
        self.cpu = cpu or CpuModel()

    def run(self, profile: KernelProfile) -> float:
        """Model one host kernel; returns its time in ns."""
        time_ns = self.cpu.time_ns(profile)
        energy_nj = self.device.energy.host_energy_nj(time_ns)
        self.device.stats.record_host(time_ns, energy_nj, label=profile.name)
        return time_ns
