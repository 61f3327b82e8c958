"""Figure 12: rank sensitivity (8/16/32 vs 4), capacity scaling by rank."""

from paper_claims import emit

from repro.config.device import PimDeviceType
from repro.experiments import format_rank_table, rank_scaling_table


def test_fig12_rank_scaling():
    rows = rank_scaling_table()
    emit("Figure 12: Speedup over #Rank=4 (kernel only, capacity scales)",
         format_rank_table(rows))

    def speedup(name, device_type, ranks):
        return next(
            r.speedup for r in rows
            if r.benchmark == name and r.device_type is device_type
            and r.num_ranks == ranks
        )

    # Bit-parallel variants gain strongly from added ranks (Section IX).
    for device_type in (PimDeviceType.FULCRUM, PimDeviceType.BANK_LEVEL):
        assert speedup("Vector Addition", device_type, 32) > 4
        assert speedup("AXPY", device_type, 32) > 2

    # Bit-serial GEMV shows no rank scaling: the vertical layout cannot
    # fill the added subarrays at this problem size (Section IX).
    assert speedup("GEMV", PimDeviceType.BITSIMD_V_AP, 32) < 1.5
    # Fulcrum GEMV saturates well below the 8x rank growth (56% util at 8).
    assert speedup("GEMV", PimDeviceType.FULCRUM, 32) < 8

    # Host-bound radix sort cannot realize the benefit of more ranks.
    assert speedup("Radix Sort", PimDeviceType.FULCRUM, 32) < 3
