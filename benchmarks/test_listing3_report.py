"""Listing 3: the per-run statistics report of the artifact."""

import numpy as np
from paper_claims import emit

from repro.analysis import format_report
from repro.api import (
    pim_add,
    pim_alloc,
    pim_alloc_associated,
    pim_copy_device_to_host,
    pim_copy_host_to_device,
    pim_create_device,
    pim_delete_device,
)
from repro.config.device import PimDeviceType


def vecadd_report():
    device = pim_create_device(PimDeviceType.FULCRUM, num_ranks=4)
    try:
        n = 2048
        obj_x = pim_alloc(n)
        obj_y = pim_alloc_associated(obj_x)
        obj_z = pim_alloc_associated(obj_x)
        pim_copy_host_to_device(np.arange(n, dtype=np.int32), obj_x)
        pim_copy_host_to_device(np.arange(n, dtype=np.int32) * 2, obj_y)
        pim_add(obj_x, obj_y, obj_z)
        pim_copy_device_to_host(obj_z)
        return format_report(device, "Running Vector Add on PIM (Listing 3)")
    finally:
        pim_delete_device()


def test_listing3_vecadd_report():
    text = vecadd_report()
    emit("Listing 3: Vector Add Output", text)

    assert "4, 128, 32, 1024, 8192" in text
    assert "Host to Device   : 16384 bytes" in text
    assert "add.int32.h" in text
    # The modeled kernel runtime reproduces the artifact's 0.001660 ms.
    assert "0.001661" in text or "0.001660" in text
