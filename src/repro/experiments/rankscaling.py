"""Figures 12 and 13: rank-count sensitivity.

Figure 12 sweeps the rank count (8, 16, 32 vs the 4-rank baseline) with
capacity scaling alongside, reporting per-benchmark kernel speedup with
data movement excluded.  Figure 13 compares 1 rank against 32 ranks at
the *same total capacity* (the single-rank module uses 32x-taller
subarrays, so it holds the same data with 1/32 of the processing
elements), isolating the value of the added parallelism -- the paper's
Section IX discussion of why bit-parallel variants gain most.
"""

from __future__ import annotations

import dataclasses

from repro.config.device import PimDeviceType
from repro.experiments.runner import DEVICE_ORDER, run_suite

FIG12_RANKS = (4, 8, 16, 32)
FIG12_BASELINE_RANKS = 4


@dataclasses.dataclass(frozen=True)
class RankScalingRow:
    """Kernel-only speedup of one benchmark at one rank count."""

    benchmark: str
    device_type: PimDeviceType
    num_ranks: int
    speedup: float  # over the baseline configuration


def _kernel_host_ns(result) -> float:
    return result.stats.kernel_time_ns + result.stats.host_time_ns


def rank_scaling_table(
    ranks: "tuple[int, ...]" = FIG12_RANKS,
    baseline_ranks: int = FIG12_BASELINE_RANKS,
    jobs: "int | None" = None,
) -> "list[RankScalingRow]":
    """Figure 12: speedups over the 4-rank run, capacity scaling by rank."""
    baseline = run_suite(
        num_ranks=baseline_ranks, paper_scale=True, enforce_capacity=False,
        jobs=jobs,
    )
    rows = []
    for num_ranks in ranks:
        if num_ranks == baseline_ranks:
            suite = baseline
        else:
            suite = run_suite(
                num_ranks=num_ranks, paper_scale=True, enforce_capacity=False,
                jobs=jobs,
            )
        for device_type in DEVICE_ORDER:
            for key in suite.benchmark_keys():
                base_time = _kernel_host_ns(baseline.result(key, device_type))
                this_time = _kernel_host_ns(suite.result(key, device_type))
                rows.append(RankScalingRow(
                    benchmark=suite.result(key, device_type).benchmark,
                    device_type=device_type,
                    num_ranks=num_ranks,
                    speedup=base_time / this_time if this_time else 0.0,
                ))
    return rows


def capacity_matched_table(
    jobs: "int | None" = None,
) -> "list[RankScalingRow]":
    """Figure 13: 32 ranks vs 1 rank at equal total capacity."""
    single = run_suite(
        num_ranks=1,
        paper_scale=True,
        geometry_overrides={"rows_per_subarray": 1024 * 32},
        jobs=jobs,
    )
    full = run_suite(num_ranks=32, paper_scale=True, jobs=jobs)
    rows = []
    for device_type in DEVICE_ORDER:
        for key in full.benchmark_keys():
            slow = _kernel_host_ns(single.result(key, device_type))
            fast = _kernel_host_ns(full.result(key, device_type))
            rows.append(RankScalingRow(
                benchmark=full.result(key, device_type).benchmark,
                device_type=device_type,
                num_ranks=32,
                speedup=slow / fast if fast else 0.0,
            ))
    return rows


def format_rank_table(rows: "list[RankScalingRow]") -> str:
    ranks = sorted({row.num_ranks for row in rows})
    lines = [
        f"{'benchmark':<22s} {'device':<12s}"
        + "".join(f" r={r:<8d}" for r in ranks)
    ]
    seen = {}
    for row in rows:
        seen.setdefault((row.benchmark, row.device_type), {})[row.num_ranks] = (
            row.speedup
        )
    for (benchmark, device_type), by_rank in seen.items():
        cells = "".join(
            f" {by_rank.get(r, float('nan')):>9.2f}" for r in ranks
        )
        lines.append(
            f"{benchmark:<22s} {device_type.display_name:<12s}{cells}"
        )
    return "\n".join(lines)
