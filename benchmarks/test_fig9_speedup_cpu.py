"""Figure 9: speedup of the three PIM variants over the CPU baseline."""

from paper_claims import emit

from repro.config.device import PimDeviceType
from repro.experiments import DEVICE_ORDER
from repro.experiments import format_speedup_table, gmean_summary, speedup_table

BIT_SERIAL = PimDeviceType.BITSIMD_V_AP
FULCRUM = PimDeviceType.FULCRUM
BANK = PimDeviceType.BANK_LEVEL


def test_fig9_speedup_over_cpu(paper_suite):
    rows = speedup_table(paper_suite)
    emit("Figure 9: Speedup over CPU at 32 ranks (kernel+DM and kernel)",
         format_speedup_table(rows))

    def bar(name, device_type, metric="speedup_cpu_total"):
        row = next(r for r in rows
                   if r.benchmark == name and r.device_type is device_type)
        return {"speedup_cpu_total": row.speedup_total,
                "speedup_cpu_kernel": row.speedup_kernel}[metric]

    # Per-benchmark winners (Section VIII).
    assert bar("Vector Addition", BIT_SERIAL, "speedup_cpu_kernel") > \
        bar("Vector Addition", FULCRUM, "speedup_cpu_kernel")
    assert bar("AXPY", FULCRUM, "speedup_cpu_kernel") == max(
        bar("AXPY", d, "speedup_cpu_kernel") for d in DEVICE_ORDER
    )
    assert bar("GEMV", FULCRUM, "speedup_cpu_kernel") == max(
        bar("GEMV", d, "speedup_cpu_kernel") for d in DEVICE_ORDER
    )
    assert bar("GEMM", FULCRUM) < 1 < bar("GEMM", FULCRUM, "speedup_cpu_kernel")
    assert 0.2 < bar("Radix Sort", BIT_SERIAL) < 2
    assert bar("AES-Encryption", BIT_SERIAL) > 1
    assert bar("K-means", BIT_SERIAL) > 10

    # Conclusion: Fulcrum achieves the best kernel-level Gmean among the
    # variants (the paper reports ~5.2x over the CPU).
    summary = gmean_summary(rows)
    assert summary[FULCRUM]["kernel"] > 2
    assert summary[FULCRUM]["kernel"] > summary[BANK]["kernel"]
