"""Figure 10: speedup (a) and energy reduction (b) over the GPU."""

from paper_claims import emit

from repro.config.device import PimDeviceType
from repro.experiments import (
    energy_table,
    format_energy_table,
    format_speedup_table,
    geometric_mean,
    speedup_table,
)

BIT_SERIAL = PimDeviceType.BITSIMD_V_AP
FULCRUM = PimDeviceType.FULCRUM
BANK = PimDeviceType.BANK_LEVEL


def test_fig10a_speedup_over_gpu(paper_suite):
    rows = speedup_table(paper_suite)
    emit("Figure 10a: Speedup over GPU (PCIe transfer factored out)",
         format_speedup_table(rows))

    def gpu(name, device_type):
        return next(r.speedup_gpu for r in rows
                    if r.benchmark == name and r.device_type is device_type)

    # The paper: no PIM variant consistently beats the A100 ...
    assert gpu("GEMM", FULCRUM) < 1
    assert gpu("Radix Sort", BIT_SERIAL) < 1
    assert gpu("VGG-16", FULCRUM) < 1
    assert gpu("AES-Encryption", BIT_SERIAL) < 1
    # ... but element-wise image/clustering kernels do win.
    assert gpu("Brightness", BIT_SERIAL) > 1
    assert gpu("Image Down Sampling", FULCRUM) > 1
    assert gpu("K-means", BIT_SERIAL) > 1


def test_fig10b_energy_vs_gpu(paper_suite):
    rows = energy_table(paper_suite)
    emit("Figure 10b: Energy Reduction vs GPU", format_energy_table(rows))

    # Conclusions: Fulcrum lands near the paper's ~2x Gmean over the GPU
    # while the bank-level approach cannot beat it.  (The bit-serial Gmean
    # here is pulled below the paper's ~2x by the VGG mapping deviation
    # documented in EXPERIMENTS.md.)
    def gmean(device_type):
        return geometric_mean(
            r.reduction_gpu for r in rows if r.device_type is device_type
        )
    assert gmean(BANK) < 1
    assert 1 < gmean(FULCRUM) < 4
    assert gmean(FULCRUM) > gmean(BANK)
