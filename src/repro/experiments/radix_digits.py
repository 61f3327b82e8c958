"""Radix-sort digit-width ablation.

The radix sort benchmark fixes 8-bit digits (4 passes, 256 buckets per
pass).  The digit width trades PIM counting work against host scatter
passes: wider digits halve the host passes but square the per-pass
equality-match count on PIM.  This sweep quantifies the optimum per
architecture -- narrow digits suit devices with slow per-command costs,
and the host scatter dominates everywhere, as Section VIII reports.
"""

from __future__ import annotations

import dataclasses

import typing

from repro.arch import arch_for, device_type_for
from repro.baselines.cpu import CpuModel
from repro.baselines.roofline import KernelProfile
from repro.config.device import PimDataType
from repro.core.commands import PimCmdKind
from repro.host.model import HostModel

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.base import DeviceTypeLike

NUM_ELEMENTS = 67_108_864


@dataclasses.dataclass(frozen=True)
class RadixDigitPoint:
    """Total modeled sort time with one digit width on one device."""

    device_type: "DeviceTypeLike"
    digit_bits: int
    pim_count_ms: float
    host_scatter_ms: float

    @property
    def total_ms(self) -> float:
        return self.pim_count_ms + self.host_scatter_ms

    @property
    def num_passes(self) -> int:
        return 32 // self.digit_bits


def _scatter_profile(n: int) -> KernelProfile:
    return KernelProfile(
        "host-scatter", bytes_accessed=8.0 * n, compute_ops=2.0 * n,
        mem_efficiency=0.15, compute_efficiency=0.3,
    )


def digit_width_sweep(
    digit_widths: "tuple[int, ...]" = (4, 8, 16),
    num_elements: int = NUM_ELEMENTS,
    device_types: "tuple[DeviceTypeLike, ...] | None" = None,
) -> "list[RadixDigitPoint]":
    """Counting-phase and scatter-phase time per digit width."""
    from repro.core.device import PimDevice

    if device_types is None:
        device_types = (device_type_for("bitserial"), device_type_for("fulcrum"))
    cpu = CpuModel()
    points = []
    for device_type in device_types:
        config = arch_for(device_type).make_config(32)
        for digit_bits in digit_widths:
            num_passes = 32 // digit_bits
            num_buckets = 1 << digit_bits
            device = PimDevice(config, functional=False)
            host = HostModel(device, cpu)
            obj_keys = device.alloc(num_elements)
            obj_digit = device.alloc_associated(obj_keys)
            obj_mask = device.alloc_associated(obj_keys, PimDataType.BOOL)
            for _ in range(num_passes):
                device.execute(PimCmdKind.SHIFT_RIGHT, (obj_keys,),
                               obj_digit, scalar=digit_bits)
                device.execute(PimCmdKind.AND_SCALAR, (obj_digit,),
                               obj_digit, scalar=num_buckets - 1)
                device.execute(PimCmdKind.EQ_SCALAR, (obj_digit,), obj_mask,
                               scalar=0x5, repeat=num_buckets)
                device.execute(PimCmdKind.REDSUM, (obj_mask,),
                               repeat=num_buckets)
                host.run(_scatter_profile(num_elements))
            stats = device.stats
            points.append(RadixDigitPoint(
                device_type=device_type,
                digit_bits=digit_bits,
                pim_count_ms=stats.kernel_time_ns / 1e6,
                host_scatter_ms=stats.host_time_ns / 1e6,
            ))
    return points


def format_digit_table(points: "list[RadixDigitPoint]") -> str:
    lines = [
        f"{'device':<12s} {'digit':>6s} {'passes':>7s} {'count ms':>10s} "
        f"{'scatter ms':>11s} {'total ms':>10s}"
    ]
    for point in points:
        lines.append(
            f"{point.device_type.display_name:<12s} {point.digit_bits:>6d} "
            f"{point.num_passes:>7d} {point.pim_count_ms:>10.2f} "
            f"{point.host_scatter_ms:>11.2f} {point.total_ms:>10.2f}"
        )
    return "\n".join(lines)
