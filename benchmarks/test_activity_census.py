"""Physical-activity census across the suite (model-explanation table)."""

from paper_claims import emit

from repro.config.device import PimDeviceType
from repro.experiments import activity_table, format_activity_table


def test_activity_census(paper_suite):
    rows = activity_table(paper_suite)
    emit("Activity census: row activations / lane ops / ALU ops / GDL bits",
         format_activity_table(rows))

    def events(name, device_type):
        return next(r.events for r in rows
                    if r.benchmark == name and r.device_type is device_type)

    # The census explains the figures: bit-serial GEMV's energy collapse
    # is its row-activation count; the bank-level ceiling is GDL traffic.
    assert events("GEMV", PimDeviceType.BITSIMD_V_AP).row_activations > \
        100 * events("Vector Addition",
                     PimDeviceType.BITSIMD_V_AP).row_activations
    assert events("Histogram", PimDeviceType.BANK_LEVEL).gdl_bits > \
        events("Vector Addition", PimDeviceType.BANK_LEVEL).gdl_bits
    assert events("AES-Encryption",
                  PimDeviceType.BITSIMD_V_AP).lane_logic_ops > 0
