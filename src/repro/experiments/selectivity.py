"""Filter-by-key selectivity and record-width sweep.

Section VIII's filter discussion ends with a prediction: "Higher speedup
would be expected if the selected items consisted of more than a single
field, since the filtering would lead to eliminating more data fetching."
This sweep tests it: PIM-vs-CPU speedup across predicate selectivities
and record widths.  Wider records shift more of the CPU baseline's time
into scanning data the PIM-side filter never touches, so the PIM speedup
grows with record width and falls with selectivity -- the predicted
shape.
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

NUM_RECORDS = 1 << 28


@dataclasses.dataclass(frozen=True)
class SelectivityPoint:
    """One (selectivity, record width) cell of the sweep."""

    selectivity: float
    record_bytes: int
    pim_ms: float
    cpu_ms: float

    @property
    def speedup(self) -> float:
        return self.cpu_ms / self.pim_ms if self.pim_ms else 0.0


def _gather_profile(n: int, matches: int, record_bytes: int) -> KernelProfile:
    scan = KernelProfile(
        "host-bitmap-scan", bytes_accessed=n / 8.0, compute_ops=n / 8.0,
        mem_efficiency=0.8, compute_efficiency=0.3,
    )
    gather = KernelProfile(
        "host-record-gather", bytes_accessed=float(matches) * record_bytes,
        compute_ops=float(matches), mem_efficiency=0.05,
    )
    return scan + gather


def _cpu_profile(n: int, matches: int, record_bytes: int) -> KernelProfile:
    # The CPU must stream every record (key + payload) past the predicate.
    scan = KernelProfile(
        "cpu-filter-scan", bytes_accessed=float(n) * record_bytes,
        compute_ops=float(n), mem_efficiency=0.8, compute_efficiency=0.4,
    )
    gather = KernelProfile(
        "cpu-record-gather", bytes_accessed=float(matches) * record_bytes,
        compute_ops=float(matches), mem_efficiency=0.05,
    )
    return scan + gather


def selectivity_sweep(
    selectivities: "tuple[float, ...]" = (0.001, 0.01, 0.1),
    record_widths: "tuple[int, ...]" = (8, 32, 128),
    num_records: int = NUM_RECORDS,
    device_type: "DeviceTypeLike | None" = None,
) -> "list[SelectivityPoint]":
    """PIM-vs-CPU filter speedup across the (selectivity, width) grid."""
    from repro.core.device import PimDevice

    if device_type is None:
        device_type = device_type_for("bitserial")
    cpu = CpuModel()
    points = []
    for record_bytes in record_widths:
        for selectivity in selectivities:
            matches = int(num_records * selectivity)
            device = PimDevice(
                arch_for(device_type).make_config(32), functional=False
            )
            host = HostModel(device, cpu)
            obj_keys = device.alloc(num_records)
            obj_mask = device.alloc_associated(obj_keys, PimDataType.BOOL)
            device.execute(
                PimCmdKind.LT_SCALAR, (obj_keys,), obj_mask, scalar=12345
            )
            device.execute(PimCmdKind.REDSUM, (obj_mask,))
            device.copy_device_to_host(obj_mask)
            host.run(_gather_profile(num_records, matches, record_bytes))
            pim_ms = device.stats.snapshot().total_time_ns / 1e6
            cpu_ms = cpu.time_ns(
                _cpu_profile(num_records, matches, record_bytes)
            ) / 1e6
            points.append(SelectivityPoint(
                selectivity=selectivity,
                record_bytes=record_bytes,
                pim_ms=pim_ms,
                cpu_ms=cpu_ms,
            ))
    return points


def format_selectivity_table(points: "list[SelectivityPoint]") -> str:
    selectivities = sorted({p.selectivity for p in points})
    widths = sorted({p.record_bytes for p in points})
    lines = [
        f"{'record bytes':<14s}" + "".join(
            f" sel={s:<8g}" for s in selectivities
        )
    ]
    for width in widths:
        cells = []
        for selectivity in selectivities:
            match = [p for p in points
                     if p.record_bytes == width and p.selectivity == selectivity]
            cells.append(f" {match[0].speedup:>11.2f}x" if match else " " * 13)
        lines.append(f"{width:<14d}" + "".join(cells))
    return "\n".join(lines)
