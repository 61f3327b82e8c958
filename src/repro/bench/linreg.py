"""Linear Regression (Table I, Supervised Learning; from Phoenix).

Least-squares fit of y = b0 + b1*x over 2-D integer points: PIM computes
the four sums (Sx, Sy, Sxy, Sxx) with two multiplications and four
reduction sums; the host solves the 2x2 normal equations.  The high
reduction-to-multiplication ratio makes bit-serial and Fulcrum comparable,
and all three variants beat the CPU and GPU (Section VIII "Linear
Regression").
"""

from __future__ import annotations

import typing

from repro.baselines.roofline import KernelProfile
from repro.bench.common import PimBenchmark
from repro.core.commands import PimCmdKind
from repro.host.model import HostModel

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.device import PimDevice


class LinearRegressionBenchmark(PimBenchmark):
    key = "linreg"
    name = "Linear Regression"
    domain = "Supervised Learning"
    execution_type = "PIM"
    paper_input = "1,500,000,000 2D points"

    @classmethod
    def default_params(cls):
        return {"num_points": 8192, "seed": 43}

    @classmethod
    def paper_params(cls):
        return {"num_points": 1_500_000_000, "seed": 43}

    def run_pim(self, device: PimDevice, host: HostModel):
        from repro.workloads.points import linear_points

        n = self.params["num_points"]
        x = y = None
        if device.functional:
            x, y = linear_points(n, seed=self.params["seed"])
        obj_x = device.alloc(n)
        obj_y = device.alloc_associated(obj_x)
        obj_tmp = device.alloc_associated(obj_x)
        device.copy_host_to_device(x, obj_x)
        device.copy_host_to_device(y, obj_y)
        sum_x = device.execute(PimCmdKind.REDSUM, (obj_x,))
        sum_y = device.execute(PimCmdKind.REDSUM, (obj_y,))
        device.execute(PimCmdKind.MUL, (obj_x, obj_y), obj_tmp)
        sum_xy = device.execute(PimCmdKind.REDSUM, (obj_tmp,))
        device.execute(PimCmdKind.MUL, (obj_x, obj_x), obj_tmp)
        sum_xx = device.execute(PimCmdKind.REDSUM, (obj_tmp,))
        for obj in (obj_x, obj_y, obj_tmp):
            device.free(obj)
        if device.functional:
            denom = n * sum_xx - sum_x * sum_x
            slope = (n * sum_xy - sum_x * sum_y) / denom
            intercept = (sum_y - slope * sum_x) / n
            return {"x": x, "y": y, "slope": slope, "intercept": intercept}
        return None

    def verify(self, outputs) -> bool:
        import numpy as np

        x = outputs["x"].astype(np.float64)
        y = outputs["y"].astype(np.float64)
        n = len(x)
        denom = n * np.dot(x, x) - x.sum() ** 2
        slope = (n * np.dot(x, y) - x.sum() * y.sum()) / denom
        intercept = (y.sum() - slope * x.sum()) / n
        return (
            abs(slope - outputs["slope"]) < 1e-9
            and abs(intercept - outputs["intercept"]) < 1e-9
        )

    def cpu_profile(self) -> KernelProfile:
        n = self.params["num_points"]
        return KernelProfile(
            name="cpu-linreg",
            bytes_accessed=8.0 * n,
            compute_ops=6.0 * n,
            mem_efficiency=0.85,
        )

    def gpu_profile(self) -> KernelProfile:
        n = self.params["num_points"]
        return KernelProfile(
            name="gpu-linreg",
            bytes_accessed=8.0 * n,
            compute_ops=6.0 * n,
            mem_efficiency=0.8,
        )
