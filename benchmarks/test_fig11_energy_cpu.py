"""Figure 11: energy efficiency of the PIM architectures vs the CPU."""

from paper_claims import emit

from repro.config.device import PimDeviceType
from repro.experiments import energy_table, format_energy_table

BIT_SERIAL = PimDeviceType.BITSIMD_V_AP
FULCRUM = PimDeviceType.FULCRUM


def test_fig11_energy_vs_cpu(paper_suite):
    rows = energy_table(paper_suite)
    emit("Figure 11: Energy Reduction vs CPU", format_energy_table(rows))

    def bar(name, device_type):
        return next(r.reduction_cpu for r in rows
                    if r.benchmark == name and r.device_type is device_type)

    # Streaming element-wise kernels show the big energy wins...
    assert bar("Vector Addition", BIT_SERIAL) > 3
    assert bar("Brightness", BIT_SERIAL) > 3
    assert bar("K-means", FULCRUM) > 1
    assert bar("Linear Regression", BIT_SERIAL) > 1
    # ...while GEMM shows none (Section VIII).
    assert bar("GEMM", BIT_SERIAL) < 1

    # Most benchmarks do reduce energy vs the CPU on subarray-level PIM.
    fulcrum_rows = [r for r in rows if r.device_type is FULCRUM]
    assert sum(1 for r in fulcrum_rows if r.reduction_cpu > 1) >= 9
