"""Figure 6: sensitivity of the PIM variants to #columns and #banks.

Reproduces Section VII: latency of the four primitive operations
(addition, multiplication, reduction, popcount) over a 256M-element
32-bit integer vector, excluding host data movement, while sweeping the
subarray column count (Figure 6a) and the per-rank bank count (Figure
6b).  Bit-serial is the most sensitive to columns; the bit-parallel
variants respond to bank-level parallelism.  The sweep uses 8 ranks so
the 256M-element vector both fits at the smallest geometry and spans
multiple row groups per core across the whole parameter range.
"""

from __future__ import annotations

import dataclasses

from repro.config.device import PimDeviceType
from repro.config.presets import make_device_config
from repro.core.commands import PimCmdKind
from repro.core.device import PimDevice
from repro.experiments.runner import DEVICE_ORDER

NUM_ELEMENTS = 256 * 1024 * 1024
COLUMN_SWEEP = (1024, 2048, 4096, 8192)
BANK_SWEEP = (16, 32, 64, 128)
OPERATIONS = ("add", "mul", "reduction", "popcount")

_OP_KINDS = {
    "add": PimCmdKind.ADD,
    "mul": PimCmdKind.MUL,
    "reduction": PimCmdKind.REDSUM,
    "popcount": PimCmdKind.POPCOUNT,
}


@dataclasses.dataclass(frozen=True)
class SensitivityPoint:
    """Latency of one op on one device at one swept parameter value."""

    device_type: PimDeviceType
    operation: str
    parameter: str  # "cols" or "banks"
    value: int
    latency_ms: float


def single_op_latency_ms(device: PimDevice, kind: PimCmdKind) -> float:
    """Kernel latency (ms) of one primitive over the 256M-element vector."""
    obj_a = device.alloc(NUM_ELEMENTS)
    inputs = [obj_a]
    if kind.spec.num_vector_inputs == 2:
        inputs.append(device.alloc_associated(obj_a))
    dest = None if kind.spec.produces_scalar else device.alloc_associated(obj_a)
    before = device.stats.kernel_time_ns
    device.execute(kind, tuple(inputs), dest)
    latency_ms = (device.stats.kernel_time_ns - before) / 1e6
    for obj in inputs + ([dest] if dest is not None else []):
        device.free(obj)
    return latency_ms


def column_sensitivity(num_ranks: int = 8) -> "list[SensitivityPoint]":
    """Figure 6a: latency vs subarray column count."""
    points = []
    for device_type in DEVICE_ORDER:
        for cols in COLUMN_SWEEP:
            config = make_device_config(
                device_type, num_ranks, cols_per_subarray=cols
            )
            device = PimDevice(config, functional=False)
            for operation in OPERATIONS:
                points.append(SensitivityPoint(
                    device_type=device_type,
                    operation=operation,
                    parameter="cols",
                    value=cols,
                    latency_ms=single_op_latency_ms(
                        device, _OP_KINDS[operation]
                    ),
                ))
    return points


def bank_sensitivity(num_ranks: int = 8) -> "list[SensitivityPoint]":
    """Figure 6b: latency vs per-rank bank count."""
    points = []
    for device_type in DEVICE_ORDER:
        for banks in BANK_SWEEP:
            config = make_device_config(
                device_type, num_ranks, banks_per_rank=banks
            )
            device = PimDevice(config, functional=False)
            for operation in OPERATIONS:
                points.append(SensitivityPoint(
                    device_type=device_type,
                    operation=operation,
                    parameter="banks",
                    value=banks,
                    latency_ms=single_op_latency_ms(
                        device, _OP_KINDS[operation]
                    ),
                ))
    return points


def format_sensitivity_table(points: "list[SensitivityPoint]") -> str:
    """Figure 6 as text: one row per (device, op), one column per value."""
    if not points:
        return "(no data)"
    parameter = points[0].parameter
    values = sorted({p.value for p in points})
    header = f"{'device':<12s} {'op':<10s}" + "".join(
        f" {parameter}={v:<8d}" for v in values
    )
    lines = [header]
    for device_type in DEVICE_ORDER:
        for operation in OPERATIONS:
            cells = []
            for value in values:
                match = [
                    p for p in points
                    if p.device_type is device_type
                    and p.operation == operation and p.value == value
                ]
                cells.append(f" {match[0].latency_ms:>12.4f}" if match else " " * 13)
            lines.append(
                f"{device_type.display_name:<12s} {operation:<10s}" + "".join(cells)
            )
    return "\n".join(lines)
