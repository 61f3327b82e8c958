"""Figure 13: 1 vs 32 ranks at the same total memory capacity."""

from paper_claims import emit

from repro.config.device import PimDeviceType
from repro.experiments import DEVICE_ORDER
from repro.experiments import capacity_matched_table, format_rank_table


def test_fig13_capacity_matched():
    rows = capacity_matched_table()
    emit("Figure 13: Speedup of 32 ranks over 1 rank (same capacity)",
         format_rank_table(rows))

    def speedup(name, device_type):
        return next(
            r.speedup for r in rows
            if r.benchmark == name and r.device_type is device_type
        )

    # With capacity fixed, the 32x processing-element increase dominates
    # the large streaming benchmarks (up to ~32x, Section IX)...
    for device_type in DEVICE_ORDER:
        assert speedup("Vector Addition", device_type) > 8

    # ...but not benchmarks whose inputs cannot fill the added units.
    assert speedup("GEMV", PimDeviceType.BITSIMD_V_AP) < 4

    # Host-bound benchmarks gain little end-to-end parallelism.
    assert speedup("Filter-By-Key", PimDeviceType.FULCRUM) < 4
