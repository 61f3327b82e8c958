"""Problem-size / batching exploration (Section IX).

"A comprehensive exploration of problem size is an essential direction
for future work.  A further consideration is that many use cases call for
smaller problem sizes, requiring batching to utilize the full PIM
computation bandwidth."  This sweep supplies both: per-architecture
kernel latency across problem sizes (exposing the utilization knee where
added elements stop being free), and the batching counterpart -- one
large batched command vs many small ones.
"""

from __future__ import annotations

import dataclasses

from repro.config.device import PimDeviceType
from repro.config.presets import make_device_config
from repro.core.commands import PimCmdKind
from repro.experiments.runner import DEVICE_ORDER

SIZE_SWEEP = tuple(1 << p for p in range(16, 32, 2))  # 64K .. 2G elements


@dataclasses.dataclass(frozen=True)
class ProblemSizePoint:
    """Kernel latency and per-element cost at one problem size."""

    device_type: PimDeviceType
    num_elements: int
    latency_ms: float

    @property
    def ns_per_element(self) -> float:
        return self.latency_ms * 1e6 / self.num_elements


def problem_size_sweep(
    num_ranks: int = 32,
    kind: PimCmdKind = PimCmdKind.ADD,
    sizes: "tuple[int, ...]" = SIZE_SWEEP,
) -> "list[ProblemSizePoint]":
    """Kernel latency of one op across problem sizes."""
    from repro.core.device import PimDevice

    points = []
    for device_type in DEVICE_ORDER:
        config = make_device_config(device_type, num_ranks)
        for num_elements in sizes:
            device = PimDevice(config, functional=False,
                               enforce_capacity=False)
            obj_a = device.alloc(num_elements)
            obj_b = device.alloc_associated(obj_a)
            dest = device.alloc_associated(obj_a)
            device.execute(kind, (obj_a, obj_b), dest)
            points.append(ProblemSizePoint(
                device_type=device_type,
                num_elements=num_elements,
                latency_ms=device.stats.kernel_time_ns / 1e6,
            ))
    return points


def utilization_knee(points: "list[ProblemSizePoint]",
                     device_type: PimDeviceType) -> int:
    """Smallest size whose latency exceeds the smallest size's by >10%.

    Below the knee, the device is under-filled and extra elements are
    free; batching small problems up to the knee costs nothing.
    """
    series = sorted(
        (p for p in points if p.device_type is device_type),
        key=lambda p: p.num_elements,
    )
    base = series[0].latency_ms
    for point in series:
        if point.latency_ms > 1.1 * base:
            return point.num_elements
    return series[-1].num_elements


@dataclasses.dataclass(frozen=True)
class BatchingPoint:
    """Batched vs unbatched execution of the same total work."""

    device_type: PimDeviceType
    batch_count: int
    batched_ms: float
    unbatched_ms: float

    @property
    def batching_gain(self) -> float:
        return self.unbatched_ms / self.batched_ms if self.batched_ms else 0.0


def batching_comparison(
    num_ranks: int = 32,
    problem_elements: int = 1 << 20,
    batch_count: int = 64,
) -> "list[BatchingPoint]":
    """One command over batch_count problems vs batch_count commands."""
    from repro.core.device import PimDevice

    points = []
    for device_type in DEVICE_ORDER:
        config = make_device_config(device_type, num_ranks)

        unbatched = PimDevice(config, functional=False)
        obj_a = unbatched.alloc(problem_elements)
        obj_b = unbatched.alloc_associated(obj_a)
        dest = unbatched.alloc_associated(obj_a)
        unbatched.execute(PimCmdKind.ADD, (obj_a, obj_b), dest,
                          repeat=batch_count)
        unbatched_ms = unbatched.stats.kernel_time_ns / 1e6

        batched = PimDevice(config, functional=False)
        obj_a = batched.alloc(problem_elements * batch_count)
        obj_b = batched.alloc_associated(obj_a)
        dest = batched.alloc_associated(obj_a)
        batched.execute(PimCmdKind.ADD, (obj_a, obj_b), dest)
        batched_ms = batched.stats.kernel_time_ns / 1e6

        points.append(BatchingPoint(
            device_type=device_type,
            batch_count=batch_count,
            batched_ms=batched_ms,
            unbatched_ms=unbatched_ms,
        ))
    return points


def format_problem_size_table(points: "list[ProblemSizePoint]") -> str:
    sizes = sorted({p.num_elements for p in points})
    header = f"{'device':<12s}" + "".join(
        f" {size >> 20 or size:>9}{'M' if size >= 1 << 20 else ''}"
        for size in sizes
    )
    lines = [header]
    for device_type in DEVICE_ORDER:
        cells = []
        for size in sizes:
            match = [p for p in points
                     if p.device_type is device_type and p.num_elements == size]
            cells.append(f" {match[0].latency_ms:>10.4f}" if match else " " * 11)
        lines.append(f"{device_type.display_name:<12s}" + "".join(cells))
    return "\n".join(lines)
