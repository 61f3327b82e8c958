"""Section IX future-work explorations: HBM, problem size, batching."""

from paper_claims import emit

from repro.config.device import PimDeviceType
from repro.experiments import (
    batching_comparison,
    format_memory_tech_table,
    format_problem_size_table,
    memory_technology_comparison,
    problem_size_sweep,
    utilization_knee,
)


def test_hbm_vs_ddr4():
    points = memory_technology_comparison()
    emit("Future work: DDR4 (32 ranks) vs HBM (8 stacks)",
         format_memory_tech_table(points))

    # The paper's prediction that the ranking may change: bank-level
    # improves (wider internal path), Fulcrum regresses (fewer, narrower
    # subarrays), and every variant's data movement gets ~4x cheaper.
    def kernel(device_type, technology):
        return next(p.latency_ms for p in points
                    if p.device_type is device_type
                    and p.technology == technology and p.operation == "add")

    assert kernel(PimDeviceType.BANK_LEVEL, "hbm") < \
        kernel(PimDeviceType.BANK_LEVEL, "ddr4")
    assert kernel(PimDeviceType.FULCRUM, "hbm") > \
        kernel(PimDeviceType.FULCRUM, "ddr4")


def test_problem_size_and_batching():
    points = problem_size_sweep()
    emit("Future work: problem-size sweep (int32 add, kernel only)",
         format_problem_size_table(points))

    knees = {
        d: utilization_knee(points, d)
        for d in (PimDeviceType.BITSIMD_V_AP, PimDeviceType.FULCRUM,
                  PimDeviceType.BANK_LEVEL)
    }
    emit("Utilization knees (elements)",
         "\n".join(f"  {d.display_name:<12s} {knee:>14,d}"
                   for d, knee in knees.items()))
    assert knees[PimDeviceType.BITSIMD_V_AP] >= 1 << 29

    gains = batching_comparison()
    emit("Batching 64 x 1M-element problems into one command",
         "\n".join(f"  {p.device_type.display_name:<12s} "
                   f"{p.batching_gain:6.1f}x" for p in gains))
    assert all(p.batching_gain >= 1.0 for p in gains)
