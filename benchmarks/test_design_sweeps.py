"""Design sweeps extending Section VIII's per-benchmark discussions."""

from paper_claims import emit

from repro.config.device import PimDeviceType
from repro.experiments import (
    digit_width_sweep,
    format_digit_table,
    format_selectivity_table,
    selectivity_sweep,
)


def test_filter_selectivity_sweep():
    points = selectivity_sweep()
    emit("Filter-By-Key: speedup vs selectivity and record width",
         format_selectivity_table(points))

    def speedup(width, sel):
        return next(p.speedup for p in points
                    if p.record_bytes == width and p.selectivity == sel)

    # Section VIII's prediction holds: wider records raise the PIM win.
    assert speedup(128, 0.001) > 2 * speedup(8, 0.001)
    # And at high selectivity the host gather equalizes everything.
    assert speedup(128, 0.1) < 2 * speedup(8, 0.1)


def test_radix_digit_width():
    points = digit_width_sweep()
    emit("Radix sort: digit-width tradeoff (counting vs scatter)",
         format_digit_table(points))

    # PIMbench's fixed 8-bit digit is the sweet spot on both subarray
    # architectures; 16-bit digits square the PIM counting work.
    for device_type in (PimDeviceType.BITSIMD_V_AP, PimDeviceType.FULCRUM):
        by_width = {p.digit_bits: p.total_ms for p in points
                    if p.device_type is device_type}
        assert by_width[8] == min(by_width.values())
