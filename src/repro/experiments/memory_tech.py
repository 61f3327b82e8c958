"""DDR4 vs HBM: does the architecture ranking change? (Section IX).

The paper leaves HBM modeling as future work while predicting the
"conclusions about which PIM architecture is best might change".  This
experiment runs the primitive-operation comparison of Section VII on a
capacity-comparable HBM configuration and reports how the per-op winners
and the DDR4/HBM ratios move per architecture.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.config.device import PimDeviceType
from repro.config.hbm import hbm_device_config
from repro.config.presets import make_device_config
from repro.core.commands import PimCmdKind
from repro.experiments.runner import DEVICE_ORDER
from repro.experiments.sensitivity import (
    single_op_latency_ms,
    single_op_operands,
)

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.device import PimDevice

OPERATIONS = {
    "add": PimCmdKind.ADD,
    "mul": PimCmdKind.MUL,
    "reduction": PimCmdKind.REDSUM,
}


@dataclasses.dataclass(frozen=True)
class MemoryTechPoint:
    """Latency of one op on one device over one memory technology."""

    device_type: PimDeviceType
    technology: str  # "ddr4" or "hbm"
    operation: str
    latency_ms: float
    transfer_ms: float  # host<->device time for the operand set


def _measure(device: PimDevice, kind: PimCmdKind) -> "tuple[float, float]":
    """Kernel latency and operand transfer time (ms) of one primitive."""
    with single_op_operands(device, kind) as (inputs, _dest):
        for obj in inputs:
            device.copy_host_to_device(None, obj)
    return single_op_latency_ms(device, kind), device.stats.copy_time_ns / 1e6


def memory_technology_comparison(
    ddr_ranks: int = 32, hbm_stacks: int = 8
) -> "list[MemoryTechPoint]":
    """DDR4 (32 ranks) vs HBM (8 stacks; similar total capacity)."""
    from repro.core.device import PimDevice

    points = []
    for device_type in DEVICE_ORDER:
        configs = {
            "ddr4": make_device_config(device_type, ddr_ranks),
            "hbm": hbm_device_config(device_type, hbm_stacks),
        }
        for technology, config in configs.items():
            for operation, kind in OPERATIONS.items():
                device = PimDevice(config, functional=False)
                kernel_ms, transfer_ms = _measure(device, kind)
                points.append(MemoryTechPoint(
                    device_type=device_type,
                    technology=technology,
                    operation=operation,
                    latency_ms=kernel_ms,
                    transfer_ms=transfer_ms,
                ))
    return points


def format_memory_tech_table(points: "list[MemoryTechPoint]") -> str:
    operations = sorted({p.operation for p in points})
    lines = [
        f"{'device':<12s} {'op':<10s} {'ddr4 (ms)':>11s} {'hbm (ms)':>11s} "
        f"{'kernel x':>9s} {'xfer x':>7s}"
    ]
    for device_type in DEVICE_ORDER:
        for operation in operations:
            ddr = next(p for p in points if p.device_type is device_type
                       and p.operation == operation and p.technology == "ddr4")
            hbm = next(p for p in points if p.device_type is device_type
                       and p.operation == operation and p.technology == "hbm")
            kernel_gain = ddr.latency_ms / hbm.latency_ms if hbm.latency_ms else 0
            xfer_gain = ddr.transfer_ms / hbm.transfer_ms if hbm.transfer_ms else 0
            lines.append(
                f"{device_type.display_name:<12s} {operation:<10s} "
                f"{ddr.latency_ms:>11.4f} {hbm.latency_ms:>11.4f} "
                f"{kernel_gain:>9.2f} {xfer_gain:>7.2f}"
            )
    return "\n".join(lines)
