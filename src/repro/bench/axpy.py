"""AXPY (Table I, Linear Algebra; collected from InSituBench).

y = a * x + y through ``pimScaledAdd`` (the Listing 1 kernel).  The mix of
one multiplication and one addition favors the bit-parallel Fulcrum
device: bit-serial pays its quadratic multiplication latency and
bank-level pays the narrow GDL (Section VIII "AXPY").
"""

from __future__ import annotations

import typing

from repro.baselines.roofline import KernelProfile
from repro.bench.common import PimBenchmark
from repro.core.commands import PimCmdKind
from repro.host.model import HostModel

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.device import PimDevice


class AxpyBenchmark(PimBenchmark):
    key = "axpy"
    name = "AXPY"
    domain = "Linear Algebra"
    execution_type = "PIM"
    paper_input = "16,777,216 32-bit INT"

    @classmethod
    def default_params(cls):
        return {"num_elements": 4096, "scale": 5, "seed": 11}

    @classmethod
    def paper_params(cls):
        return {"num_elements": 16_777_216, "scale": 5, "seed": 11}

    def run_pim(self, device: PimDevice, host: HostModel):
        from repro.workloads.vectors import random_int_vector

        n = self.params["num_elements"]
        scale = self.params["scale"]
        x = y = None
        if device.functional:
            x = random_int_vector(n, seed=self.params["seed"])
            y = random_int_vector(n, seed=self.params["seed"] + 1)
        obj_x = device.alloc(n)
        obj_y = device.alloc_associated(obj_x)
        device.copy_host_to_device(x, obj_x)
        device.copy_host_to_device(y, obj_y)
        device.execute(PimCmdKind.SCALED_ADD, (obj_x, obj_y), obj_y, scalar=scale)
        result = device.copy_device_to_host(obj_y)
        device.free(obj_x)
        device.free(obj_y)
        if device.functional:
            return {"x": x, "y": y, "scale": scale, "result": result}
        return None

    def verify(self, outputs) -> bool:
        import numpy as np

        expected = outputs["x"] * outputs["scale"] + outputs["y"]
        return np.array_equal(outputs["result"], expected)

    def cpu_profile(self) -> KernelProfile:
        n = self.params["num_elements"]
        return KernelProfile(
            name="cpu-axpy",
            bytes_accessed=12.0 * n,
            compute_ops=2.0 * n,
            mem_efficiency=0.85,
        )

    def gpu_profile(self) -> KernelProfile:
        n = self.params["num_elements"]
        return KernelProfile(
            name="gpu-axpy",
            bytes_accessed=12.0 * n,
            compute_ops=2.0 * n,
            mem_efficiency=0.85,
        )
