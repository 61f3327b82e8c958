"""Data-type sensitivity sweep (extends Section V-C's dtype discussion)."""

from paper_claims import emit

from repro.config.device import PimDataType, PimDeviceType
from repro.experiments import dtype_sensitivity, format_dtype_table


def test_dtype_sweep():
    points = dtype_sensitivity()
    emit("Data-type sensitivity (64M elements, kernel only)",
         format_dtype_table(points))

    def latency(device_type, operation, dtype):
        return next(
            p.latency_ms for p in points
            if p.device_type is device_type and p.operation == operation
            and p.dtype is dtype
        )

    # Bit-serial addition is linear in width; multiplication quadratic.
    bs = PimDeviceType.BITSIMD_V_AP
    assert latency(bs, "add", PimDataType.INT64) > \
        6 * latency(bs, "add", PimDataType.INT8)
    assert latency(bs, "mul", PimDataType.INT32) > \
        10 * latency(bs, "mul", PimDataType.INT8)
    # Fulcrum packs narrow types into its word ALU, so its width scaling
    # (row traffic only) stays well below bit-serial's linear scaling.
    f8 = latency(PimDeviceType.FULCRUM, "add", PimDataType.INT8)
    f64 = latency(PimDeviceType.FULCRUM, "add", PimDataType.INT64)
    bs_ratio = (latency(bs, "add", PimDataType.INT64)
                / latency(bs, "add", PimDataType.INT8))
    assert f64 / f8 < 0.7 * bs_ratio
