"""Listing-3 style statistics reports.

Formats a device's accumulated statistics the way the PIMeval artifact
prints them after each benchmark run: the device parameters, the data-copy
totals, and the per-command count/runtime/energy table.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.device import PimDevice
    from repro.obs.metrics import MetricsRegistry

_RULE = "-" * 40


def format_params(device: PimDevice) -> str:
    """The "PIM Params" block of the artifact output."""
    config = device.config
    geometry = config.dram.geometry
    timing = config.dram.timing
    lines = [
        "PIM Params:",
        f"  PIM Simulation Target          : {config.device_type.name}",
        "  Rank, Bank, Subarray, Row, Col : "
        f"{geometry.num_ranks}, {geometry.banks_per_rank}, "
        f"{geometry.subarrays_per_bank}, {geometry.rows_per_subarray}, "
        f"{geometry.cols_per_subarray}",
        f"  Number of PIM Cores            : {config.num_cores}",
        f"  Number of Rows per Core        : {config.rows_per_core}",
        f"  Number of Cols per Core        : {config.cols_per_core}",
        f"  Typical Rank BW                : {timing.rank_bandwidth_gbps:.6f} GB/s",
        f"  Row Read (ns)                  : {timing.row_read_ns:.6f}",
        f"  Row Write (ns)                 : {timing.row_write_ns:.6f}",
        f"  tCCD (ns)                      : {timing.tccd_ns:.6f}",
    ]
    return "\n".join(lines)


def format_copy_stats(device: PimDevice) -> str:
    """The "Data Copy Stats" block."""
    stats = device.stats
    total_bytes = stats.copy_bytes
    lines = [
        "Data Copy Stats:",
        f"  Host to Device   : {stats.host_to_device.num_bytes} bytes",
        f"  Device to Host   : {stats.device_to_host.num_bytes} bytes",
        f"  Device to Device : {stats.device_to_device.num_bytes} bytes",
        f"  TOTAL ---------  : {total_bytes} bytes "
        f"{stats.copy_time_ns / 1e6:.6f}ms Runtime "
        f"{stats.copy_energy_nj / 1e6:.6f}mj Energy",
    ]
    return "\n".join(lines)


def format_command_stats(device: PimDevice) -> str:
    """The "PIM Command Stats" table."""
    stats = device.stats
    lines = [
        "PIM Command Stats:",
        "  PIM-CMD                 :        CNT "
        "EstimatedRuntime(ms) EstimatedEnergyConsumption(mJ)",
    ]
    for signature, cmd in stats.commands.items():
        lines.append(
            f"  {signature:<24s}: {cmd.count:>10d} "
            f"{cmd.latency_ns / 1e6:>20.6f} {cmd.energy_nj / 1e6:>30.6f}"
        )
    lines.append(
        f"  {'TOTAL -----':<24s}: {stats.total_command_count:>10d} "
        f"{stats.kernel_time_ns / 1e6:>20.6f} "
        f"{stats.kernel_energy_nj / 1e6:>30.6f}"
    )
    return "\n".join(lines)


def format_hottest_commands(
    registry: "MetricsRegistry", top_n: int = 10
) -> str:
    """Top-N command signatures by modeled latency, from a metrics registry.

    The profiling answer to "where does kernel time go": fed by the
    :class:`repro.obs.metrics.MetricsSink` aggregation of the event
    stream, so it works across whole suite runs, not just one device.
    """
    from repro.obs.metrics import hottest_commands

    hotspots = hottest_commands(registry, top_n)
    lines = [
        f"Hottest command signatures (top {top_n} by modeled runtime):",
        "  PIM-CMD                 :        CNT "
        "Runtime(ms)   Share(%)   Energy(mJ)",
    ]
    total_ns = sum(h.latency_ns for h in hotspots) or 1.0
    grand_total = registry.value("commands.latency_ns") or total_ns
    for h in hotspots:
        lines.append(
            f"  {h.signature:<24s}: {int(h.count):>10d} "
            f"{h.latency_ns / 1e6:>11.6f} {100.0 * h.latency_ns / grand_total:>10.2f} "
            f"{h.energy_nj / 1e6:>12.6f}"
        )
    if not hotspots:
        lines.append("  (no command events recorded)")
    return "\n".join(lines)


def format_report(device: PimDevice, title: str = "") -> str:
    """Full Listing-3 style report."""
    blocks = [_RULE]
    if title:
        blocks.append(title)
    blocks.extend([
        format_params(device),
        format_copy_stats(device),
        "",
        format_command_stats(device),
        _RULE,
    ])
    return "\n".join(blocks)
