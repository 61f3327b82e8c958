"""Simulated values of the paper's published anchors, as relative errors.

Usage::

    python3 perfbench/model_anchors.py OUT.json

Writes ``model.listing3_rel_err`` (the simulated Fulcrum vec-add kernel
of Listing 3 against the artifact's 1.660 us) and
``model.upmem_vecadd_rel_err`` / ``model.upmem_gemv_rel_err`` (the toy
UPMEM model's slowdowns against ``repro.upmem.PAPER_SLOWDOWNS``).  These
are simulated time, not host time: they repeat exactly on every run and
move only when the model changes.  The model is unvalidated beyond
these three anchors.
"""

from __future__ import annotations

import json
import sys

#: Listing 3's reported kernel time of the 2048-element vec-add (ns).
LISTING3_KERNEL_NS = 1660.0


def listing3_kernel_ns() -> float:
    """Kernel time of Listing 3's program on a 4-rank Fulcrum device."""
    import numpy as np

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
        return device.stats.snapshot().kernel_time_ns
    finally:
        pim_delete_device()


def anchors() -> "dict[str, float]":
    from repro.upmem import PAPER_SLOWDOWNS, upmem_validation_table

    rows = {row.kernel: row for row in upmem_validation_table()}
    out = {
        "model.listing3_rel_err":
            abs(listing3_kernel_ns() - LISTING3_KERNEL_NS) / LISTING3_KERNEL_NS,
    }
    for kernel, name in (("Vector Add", "vecadd"), ("GEMV", "gemv")):
        paper = PAPER_SLOWDOWNS[kernel]
        out[f"model.upmem_{name}_rel_err"] = (
            abs(rows[kernel].slowdown - paper) / paper
        )
    return out


if __name__ == "__main__":
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(anchors(), fh)
