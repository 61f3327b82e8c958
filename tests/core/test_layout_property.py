"""Property-based tests on layout planning invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.device import PimAllocType, PimDeviceType
from repro.config.presets import make_device_config
from repro.core.errors import PimAllocationError
from repro.core.layout import plan_layout

CONFIGS = {
    device_type: make_device_config(device_type, 4)
    for device_type in PimDeviceType
}


@st.composite
def layout_case(draw):
    device_type = draw(st.sampled_from(sorted(CONFIGS, key=lambda d: d.value)))
    num_elements = draw(st.integers(1, 1 << 24))
    bits = draw(st.sampled_from([1, 8, 16, 32, 64]))
    layout = draw(st.sampled_from([
        PimAllocType.AUTO, PimAllocType.HORIZONTAL, PimAllocType.VERTICAL,
    ]))
    return CONFIGS[device_type], num_elements, bits, layout


@settings(max_examples=200, deadline=None)
@given(layout_case())
def test_layout_invariants(case):
    config, num_elements, bits, layout = case
    try:
        plan = plan_layout(config, num_elements, bits, layout)
    except PimAllocationError:
        # Overflow is only acceptable when the demand really exceeds
        # what the per-core row budget can hold.
        return

    # 1. Every element is placed: cores x elements-per-core covers N.
    assert plan.num_cores_used * plan.elements_per_core >= num_elements
    # 2. No phantom cores: one fewer core would not suffice.
    assert (plan.num_cores_used - 1) * plan.elements_per_core < num_elements
    # 3. Core count bounded by the device.
    assert 1 <= plan.num_cores_used <= config.num_cores
    # 4. Row budget respected.
    assert 1 <= plan.rows_per_core <= config.rows_per_core
    # 5. Groups cover the per-core elements.
    assert plan.groups_per_core * plan.elements_per_group >= plan.elements_per_core
    # 6. Row math is consistent with the layout style.
    if plan.layout is PimAllocType.VERTICAL:
        assert plan.rows_per_core == bits * plan.groups_per_core
        assert plan.elements_per_group == config.cols_per_core
    else:
        assert plan.rows_per_core == plan.groups_per_core
        assert plan.elements_per_group == max(1, config.cols_per_core // bits)
    # 7. AUTO resolved to the device's native layout.
    if layout is PimAllocType.AUTO:
        assert plan.layout is config.native_layout


@settings(max_examples=100, deadline=None)
@given(layout_case())
def test_footprint_accounting(case):
    config, num_elements, bits, layout = case
    try:
        plan = plan_layout(config, num_elements, bits, layout)
    except PimAllocationError:
        return
    assert plan.total_bits == num_elements * bits
    assert plan.total_bytes == num_elements * max(1, bits // 8)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 1 << 20), st.sampled_from([8, 16, 32]))
def test_monotone_rows_in_elements(num_elements, bits):
    """More elements never need fewer rows per core."""
    config = CONFIGS[PimDeviceType.BITSIMD_V_AP]
    try:
        small = plan_layout(config, num_elements, bits, PimAllocType.VERTICAL)
        large = plan_layout(config, num_elements * 2, bits, PimAllocType.VERTICAL)
    except PimAllocationError:
        return
    assert large.rows_per_core >= small.rows_per_core
