"""Figure 7: runtime breakdown (data movement / host / kernel)."""

from paper_claims import emit

from repro.config.device import PimDeviceType
from repro.experiments import breakdown_table, format_breakdown_table


def test_fig7_breakdown(paper_suite):
    rows = breakdown_table(paper_suite)
    emit("Figure 7: Performance Breakdown (%) at 32 ranks",
         format_breakdown_table(rows))

    by_key = {(r.benchmark, r.device_type): r for r in rows}
    bs = PimDeviceType.BITSIMD_V_AP

    # Filter-by-key: the host gather dominates (~99% in the paper).
    assert by_key[("Filter-By-Key", bs)].host_pct > 90
    # Radix sort is host-bound by the scatter phase.
    assert by_key[("Radix Sort", bs)].host_pct > 50
    # Vector addition is pure PIM: no host time at all.
    assert by_key[("Vector Addition", bs)].host_pct == 0
    # AES is compute-dominated on PIM: kernel share is the largest.
    aes = by_key[("AES-Encryption", bs)]
    assert aes.kernel_pct > aes.data_movement_pct
    assert aes.kernel_pct > aes.host_pct
    # Triangle count is dominated by the row-gather data movement.
    assert by_key[("Triangle Count", bs)].data_movement_pct > 80
