"""Figure 6: #column and #bank sensitivity of the PIM variants."""

from paper_claims import emit

from repro.config.device import PimDeviceType
from repro.experiments import DEVICE_ORDER
from repro.experiments import (
    bank_sensitivity,
    column_sensitivity,
    format_sensitivity_table,
)


def _latency(points, device_type, operation, value):
    return next(
        p.latency_ms for p in points
        if p.device_type is device_type and p.operation == operation
        and p.value == value
    )


def test_fig6a_columns():
    points = column_sensitivity()
    emit("Figure 6a: Latency vs #Columns (256M int32)",
         format_sensitivity_table(points))

    # Bit-serial scales inversely with columns; it wins add and reduction,
    # Fulcrum wins multiplication, and bit-serial still beats bank-level
    # at multiplication (Section VII).
    bs = PimDeviceType.BITSIMD_V_AP
    assert _latency(points, bs, "add", 1024) > 7 * _latency(points, bs, "add", 8192)
    for op in ("add", "reduction"):
        values = {d: _latency(points, d, op, 8192) for d in DEVICE_ORDER}
        assert values[bs] == min(values.values()), op
    mul = {d: _latency(points, d, "mul", 8192) for d in DEVICE_ORDER}
    assert mul[PimDeviceType.FULCRUM] == min(mul.values())
    assert mul[bs] < mul[PimDeviceType.BANK_LEVEL]


def test_fig6b_banks():
    points = bank_sensitivity()
    emit("Figure 6b: Latency vs #Banks (256M int32)",
         format_sensitivity_table(points))

    # Every variant gains bank-level parallelism; popcount stays Fulcrum's
    # weak spot (12-cycle SWAR, Section VII).
    for device_type in DEVICE_ORDER:
        few = _latency(points, device_type, "add", 16)
        many = _latency(points, device_type, "add", 128)
        assert few > 7 * many
    pop = {d: _latency(points, d, "popcount", 128) for d in DEVICE_ORDER}
    assert pop[PimDeviceType.BITSIMD_V_AP] < pop[PimDeviceType.FULCRUM]
