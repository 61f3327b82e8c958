"""Vector Addition (Table I, Linear Algebra; adapted from PrIM).

Element-wise z = x + y.  The paper's ideal bit-serial candidate: addition
is linear in bit width, so the row-wide bit-slice parallelism dominates
and bit-serial shows the largest speedups (Section VIII "Vector
Addition").
"""

from __future__ import annotations

import typing

from repro.baselines.roofline import KernelProfile
from repro.bench.common import PimBenchmark
from repro.core.commands import PimCmdKind
from repro.host.model import HostModel

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.device import PimDevice


class VectorAddBenchmark(PimBenchmark):
    key = "vecadd"
    name = "Vector Addition"
    domain = "Linear Algebra"
    execution_type = "PIM"
    paper_input = "2,035,544,320 32-bit INT"

    @classmethod
    def default_params(cls):
        return {"num_elements": 4096, "seed": 7}

    @classmethod
    def paper_params(cls):
        return {"num_elements": 2_035_544_320, "seed": 7}

    def run_pim(self, device: PimDevice, host: HostModel):
        from repro.workloads.vectors import random_int_vector

        n = self.params["num_elements"]
        x = y = None
        if device.functional:
            x = random_int_vector(n, seed=self.params["seed"])
            y = random_int_vector(n, seed=self.params["seed"] + 1)
        obj_x = device.alloc(n)
        obj_y = device.alloc_associated(obj_x)
        obj_z = device.alloc_associated(obj_x)
        with self.phase(device, "load"):
            device.copy_host_to_device(x, obj_x)
            device.copy_host_to_device(y, obj_y)
        with self.phase(device, "kernel"):
            device.execute(PimCmdKind.ADD, (obj_x, obj_y), obj_z)
        with self.phase(device, "readback"):
            result = device.copy_device_to_host(obj_z)
        for obj in (obj_x, obj_y, obj_z):
            device.free(obj)
        if device.functional:
            return {"x": x, "y": y, "result": result}
        return None

    def verify(self, outputs) -> bool:
        import numpy as np

        expected = outputs["x"] + outputs["y"]
        return np.array_equal(outputs["result"], expected)

    def cpu_profile(self) -> KernelProfile:
        n = self.params["num_elements"]
        # STREAM-class kernel: two loads, one store per element.
        return KernelProfile(
            name="cpu-vecadd",
            bytes_accessed=12.0 * n,
            compute_ops=float(n),
            mem_efficiency=0.85,
        )

    def gpu_profile(self) -> KernelProfile:
        n = self.params["num_elements"]
        return KernelProfile(
            name="gpu-vecadd",
            bytes_accessed=12.0 * n,
            compute_ops=float(n),
            mem_efficiency=0.85,
        )
