"""UPMEM backend: the Section V-E toy model, registered as a target.

The repository has carried a toy UPMEM model
(:class:`repro.upmem.UpmemToyModel`) since the validation work -- DPUs
with serialized MRAM DMA and compute, the exact limitation the paper
measures 23-35% slowdowns from.  Registering it as an
:class:`~repro.arch.base.ArchBackend` proves the registry claim in the
other direction from :mod:`repro.arch.ddr5`: not just a new config over
an existing perf model, but a foreign cost model (per-DPU streaming DMA
plus instruction throughput, nothing row-granular) adapted behind the
same :class:`~repro.perf.base.PerfModel` protocol and run by the same
engine, benchmarks, and cache.  The cost mapping lives in
:mod:`repro.perf.upmem`, which ``make_perf_model`` imports on first use.
"""

from __future__ import annotations

import typing

from repro.arch.base import ArchBackend
from repro.config.device import (
    ArchDeviceType,
    CORE_SCOPE_BANK,
    DeviceConfig,
)
from repro.config.dram import DramGeometry, DramSpec, DramTiming
from repro.upmem.model import UpmemConfig

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perf.base import CommandArgs
    from repro.perf.upmem import UpmemPerfModel

#: One core per "bank": the geometry below makes one bank one DPU.
UPMEM_DEVICE = ArchDeviceType(
    value="upmem",
    name="UPMEM",
    display_name="UPMEM",
    core_scope=CORE_SCOPE_BANK,
)

#: Per-rank DPU count of the mapped geometry (64 DPUs x 40 ranks = the
#: 2560-DPU PrIM-class system of :class:`~repro.upmem.UpmemConfig`).
DPUS_PER_RANK = 64
#: Default rank count reproducing the validation system's 2560 DPUs.
DEFAULT_NUM_RANKS = UpmemConfig().num_dpus // DPUS_PER_RANK


def upmem_geometry(num_ranks: int = DEFAULT_NUM_RANKS) -> DramGeometry:
    """Map the DPU array onto the simulator's memory hierarchy.

    One chip-level bank per DPU, 64 MiB of MRAM each (64 subarrays of
    the standard 1 Mib array), so allocation, layout, and functional
    simulation all work unchanged on the existing resource manager.
    """
    return DramGeometry(
        num_ranks=num_ranks,
        banks_per_rank=DPUS_PER_RANK,
        subarrays_per_bank=64,
        rows_per_subarray=1024,
        cols_per_subarray=8192,
        gdl_width_bits=128,
        chips_per_rank=8,
    )


def upmem_device_config(
    num_ranks: int = DEFAULT_NUM_RANKS, **geometry_overrides: int
) -> DeviceConfig:
    """Device configuration wrapping the toy UPMEM system."""
    geometry = upmem_geometry(num_ranks)
    if geometry_overrides:
        geometry = geometry.scaled(**geometry_overrides)
    # The DDR4-class channel of the PrIM system; array timings are
    # irrelevant to the DPU cost model but keep data movement realistic.
    return DeviceConfig(
        device_type=UPMEM_DEVICE,
        dram=DramSpec(geometry=geometry, timing=DramTiming()),
    )


class UpmemBackend(ArchBackend):
    """Registry entry for the toy UPMEM target."""

    id = "upmem"
    aliases = ("prim", "dpu")
    device_type = UPMEM_DEVICE
    description = "toy UPMEM model (Section V-E): serialized DMA + compute"
    cost_counters = ("alu_word_ops",)
    stamp_sources = ("arch/upmem.py", "perf/upmem.py", "upmem")

    def make_config(
        self, num_ranks: int = DEFAULT_NUM_RANKS, **geometry_overrides: int
    ) -> DeviceConfig:
        return upmem_device_config(num_ranks, **geometry_overrides)

    def make_perf_model(self, config: DeviceConfig) -> "UpmemPerfModel":
        from repro.perf.upmem import UpmemPerfModel

        return UpmemPerfModel(config)

    def cost_memo_param(self, args: CommandArgs) -> None:
        # The DPU kernel mapping reads bits, operand count, and the ALU
        # cycle class -- never the scalar value (see ``_kernel_for``).
        return None

    def compute_freq_mhz(self, config: DeviceConfig) -> "float | None":
        return UpmemConfig().dpu_freq_mhz
