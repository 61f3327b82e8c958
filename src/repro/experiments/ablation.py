"""Ablation studies of the modeled design choices (DESIGN.md Section 6).

The paper's Section IX flags several parameters whose tradeoffs its
architecture comparison rests on; these sweeps quantify them:

* GDL width for bank-level PIM (the stated bank-level bottleneck),
* ALU clock for the Fulcrum-style ALPUs,
* the bit-serial reduction strategy: row-wide popcount hardware vs
  offloading raw data to the host,
* the Fulcrum SIMD word width (32- vs 64-bit ALU, called out as future
  work in Section IX).
"""

from __future__ import annotations

import dataclasses

from repro.arch import resolve_backend
from repro.config.device import PimArchParams
from repro.core.commands import PimCmdKind
from repro.core.device import PimDevice
from repro.experiments.sensitivity import NUM_ELEMENTS, single_op_latency_ms


@dataclasses.dataclass(frozen=True)
class AblationPoint:
    """One swept value and the latency it produces."""

    study: str
    value: float
    latency_ms: float


def gdl_width_sweep(
    widths: "tuple[int, ...]" = (32, 64, 128, 256, 512),
    kind: PimCmdKind = PimCmdKind.ADD,
) -> "list[AblationPoint]":
    """Bank-level latency vs GDL width: the bank-level bottleneck."""
    points = []
    for width in widths:
        config = resolve_backend("bank").make_config(32, gdl_width_bits=width)
        device = PimDevice(config, functional=False)
        points.append(AblationPoint(
            study="gdl_width",
            value=float(width),
            latency_ms=single_op_latency_ms(device, kind),
        ))
    return points


def alu_clock_sweep(
    freqs_mhz: "tuple[float, ...]" = (82.0, 164.0, 328.0, 656.0),
    kind: PimCmdKind = PimCmdKind.MUL,
) -> "list[AblationPoint]":
    """Fulcrum latency vs ALU clock (row access eventually dominates)."""
    points = []
    for freq in freqs_mhz:
        config = resolve_backend("fulcrum").make_config(32)
        config = dataclasses.replace(
            config, arch=PimArchParams(fulcrum_alu_freq_mhz=freq)
        )
        device = PimDevice(config, functional=False)
        points.append(AblationPoint(
            study="alu_clock",
            value=freq,
            latency_ms=single_op_latency_ms(device, kind),
        ))
    return points


def fulcrum_simd_width_sweep(
    widths: "tuple[int, ...]" = (32, 64),
) -> "list[AblationPoint]":
    """Fulcrum 32- vs 64-bit ALU on int32 addition (Section IX future work)."""
    points = []
    for width in widths:
        config = resolve_backend("fulcrum").make_config(32)
        config = dataclasses.replace(
            config, arch=PimArchParams(fulcrum_alu_bits=width)
        )
        device = PimDevice(config, functional=False)
        points.append(AblationPoint(
            study="fulcrum_simd",
            value=float(width),
            latency_ms=single_op_latency_ms(device, PimCmdKind.ADD),
        ))
    return points


def bitserial_reduction_strategies() -> "list[AblationPoint]":
    """Row-wide popcount reduction vs host-offloaded reduction.

    The host-offload alternative ships the whole vector to the CPU and
    sums there; the popcount hardware amortizes that to a handful of row
    reads -- quantifying the "appropriate hardware support" the paper's
    reduction handling assumes.
    """
    config = resolve_backend("bitserial").make_config(32)
    device = PimDevice(config, functional=False)
    on_pim = single_op_latency_ms(device, PimCmdKind.REDSUM)

    # Host offload: one device-to-host transfer plus a streaming host sum.
    from repro.baselines.cpu import CpuModel
    from repro.baselines.roofline import KernelProfile

    obj = device.alloc(NUM_ELEMENTS)
    before = device.stats.copy_time_ns
    device.copy_device_to_host(obj)
    transfer_ms = (device.stats.copy_time_ns - before) / 1e6
    device.free(obj)
    host_ms = CpuModel().time_ns(KernelProfile(
        "host-redsum", bytes_accessed=4.0 * NUM_ELEMENTS,
        compute_ops=float(NUM_ELEMENTS), mem_efficiency=0.85,
    )) / 1e6
    return [
        AblationPoint("reduction_strategy:popcount", 0.0, on_pim),
        AblationPoint("reduction_strategy:host", 1.0, transfer_ms + host_ms),
    ]


def fused_vs_portable_brightness(
    num_pixels: int = 1_400_000_000,
) -> "list[AblationPoint]":
    """Portable min+add vs the fused saturating add (Section IX).

    The brightness kernel written portably issues two commands
    (min_scalar then add_scalar); an architecture-specific fused
    ``sat_add_scalar`` does it in one.  Quantifies the paper's remark
    that "architecture-specific PIM API calls may help".
    """
    from repro.config.device import PimDataType

    points = []
    for name in ("bitserial", "fulcrum", "bank"):
        backend = resolve_backend(name)
        device_type = backend.device_type
        config = backend.make_config(32)
        for label, commands in (
            ("portable", [(PimCmdKind.MIN_SCALAR, 215), (PimCmdKind.ADD_SCALAR, 40)]),
            ("fused", [(PimCmdKind.SAT_ADD_SCALAR, 40)]),
        ):
            device = PimDevice(config, functional=False)
            obj = device.alloc(num_pixels, PimDataType.UINT8)
            dest = device.alloc_associated(obj)
            for kind, scalar in commands:
                device.execute(kind, (obj,), dest, scalar=scalar)
            points.append(AblationPoint(
                study=f"brightness:{device_type.value}:{label}",
                value=float(len(commands)),
                latency_ms=device.stats.kernel_time_ns / 1e6,
            ))
    return points


def digital_vs_analog_bitserial(
    kinds: "tuple[PimCmdKind, ...]" = (
        PimCmdKind.ADD, PimCmdKind.MUL, PimCmdKind.AND, PimCmdKind.XOR,
    ),
) -> "list[AblationPoint]":
    """Digital DRAM-AP vs analog TRA bit-serial, per primitive op.

    Quantifies Section IV's motivation for going digital: TRA compute
    pays operand copies into the designated compute rows plus the MAJ
    composition of every gate, so the analog variant is several times
    slower on the same microprograms.
    """
    points = []
    for name, label in (("bitserial", "digital"), ("analog", "analog")):
        config = resolve_backend(name).make_config(32)
        device = PimDevice(config, functional=False)
        for index, kind in enumerate(kinds):
            points.append(AblationPoint(
                study=f"bitserial:{label}:{kind.api_name}",
                value=float(index),
                latency_ms=single_op_latency_ms(device, kind),
            ))
    return points


def format_ablation(points: "list[AblationPoint]") -> str:
    lines = [f"{'study':<28s} {'value':>10s} {'latency (ms)':>14s}"]
    for point in points:
        lines.append(
            f"{point.study:<28s} {point.value:>10.1f} {point.latency_ms:>14.4f}"
        )
    return "\n".join(lines)
