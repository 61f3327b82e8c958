"""Data-type sensitivity: how element width moves the tradeoffs.

Section V-C notes that bit-serial performance is "determined by ... data
type (e.g., int32, int8)"; this sweep quantifies it across all variants:
bit-serial addition scales linearly with bit width and multiplication
quadratically, while the bit-parallel variants pack narrow elements into
SIMD lanes and are (nearly) width-insensitive per element -- so the
bit-serial-vs-Fulcrum crossover moves with the data type.
"""

from __future__ import annotations

import dataclasses

from repro.config.device import PimDataType, PimDeviceType
from repro.config.presets import make_device_config
from repro.core.commands import PimCmdKind
from repro.experiments.runner import DEVICE_ORDER

NUM_ELEMENTS = 64 * 1024 * 1024
DTYPE_SWEEP = (
    PimDataType.INT8,
    PimDataType.INT16,
    PimDataType.INT32,
    PimDataType.INT64,
)


@dataclasses.dataclass(frozen=True)
class DtypePoint:
    """Latency of one op at one element width on one device."""

    device_type: PimDeviceType
    operation: str
    dtype: PimDataType
    latency_ms: float


def dtype_sensitivity(
    num_ranks: int = 32,
    operations: "tuple[str, ...]" = ("add", "mul"),
    num_elements: int = NUM_ELEMENTS,
) -> "list[DtypePoint]":
    """Latency of add/mul per data type per architecture."""
    from repro.core.device import PimDevice

    kinds = {"add": PimCmdKind.ADD, "mul": PimCmdKind.MUL}
    points = []
    for device_type in DEVICE_ORDER:
        config = make_device_config(device_type, num_ranks)
        for dtype in DTYPE_SWEEP:
            device = PimDevice(config, functional=False)
            obj_a = device.alloc(num_elements, dtype)
            obj_b = device.alloc_associated(obj_a)
            dest = device.alloc_associated(obj_a)
            for operation in operations:
                before = device.stats.kernel_time_ns
                device.execute(kinds[operation], (obj_a, obj_b), dest)
                points.append(DtypePoint(
                    device_type=device_type,
                    operation=operation,
                    dtype=dtype,
                    latency_ms=(device.stats.kernel_time_ns - before) / 1e6,
                ))
    return points


def format_dtype_table(points: "list[DtypePoint]") -> str:
    operations = sorted({p.operation for p in points})
    lines = []
    for operation in operations:
        lines.append(f"-- {operation} --")
        header = f"{'device':<12s}" + "".join(
            f" {d.numpy_name:>10s}" for d in DTYPE_SWEEP
        )
        lines.append(header)
        for device_type in DEVICE_ORDER:
            cells = []
            for dtype in DTYPE_SWEEP:
                match = [
                    p for p in points
                    if p.device_type is device_type
                    and p.operation == operation and p.dtype is dtype
                ]
                cells.append(f" {match[0].latency_ms:>10.4f}" if match
                             else " " * 11)
            lines.append(f"{device_type.display_name:<12s}" + "".join(cells))
    return "\n".join(lines)
