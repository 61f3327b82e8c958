"""Matrix-Vector Multiplication / GEMV (Table I, Linear Algebra).

y = M @ x, computed column-at-a-time: each matrix column is streamed to
the device and accumulated with ``pimScaledAdd`` using the corresponding
x element as the scalar.  Fulcrum's single-cycle multiply makes it the
winner; bit-serial suffers its quadratic multiplication (Section VIII
"GEMV").  The paper's chosen problem leaves bit-serial and Fulcrum
under-utilized (Section IX), which the row-granular models reproduce.
"""

from __future__ import annotations

import typing

from repro.baselines.roofline import KernelProfile
from repro.bench.common import PimBenchmark
from repro.core.commands import PimCmdKind
from repro.host.model import HostModel

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.device import PimDevice

#: Scalar stand-in for microprogram costing in analytic mode: 16 of 32
#: bits set, the expected popcount of a random multiplier.
REPRESENTATIVE_SCALAR = 0x55555555


class GemvBenchmark(PimBenchmark):
    key = "gemv"
    name = "GEMV"
    domain = "Linear Algebra"
    execution_type = "PIM"
    paper_input = "2,352,160 x 8,192 32-bit INT"

    @classmethod
    def default_params(cls):
        return {"num_rows": 96, "num_cols": 24, "seed": 3}

    @classmethod
    def paper_params(cls):
        return {"num_rows": 2_352_160, "num_cols": 8_192, "seed": 3}

    def run_pim(self, device: PimDevice, host: HostModel):
        from repro.workloads.vectors import random_int_matrix, random_int_vector

        rows, cols = self.params["num_rows"], self.params["num_cols"]
        matrix = x = None
        if device.functional:
            matrix = random_int_matrix(rows, cols, seed=self.params["seed"])
            x = random_int_vector(cols, seed=self.params["seed"] + 1, low=-50, high=50)
        obj_col = device.alloc(rows)
        obj_acc = device.alloc_associated(obj_col)
        device.execute(PimCmdKind.BROADCAST, (), obj_acc, scalar=0)
        if device.functional:
            for j in range(cols):
                device.copy_host_to_device(matrix[:, j], obj_col)
                device.execute(
                    PimCmdKind.SCALED_ADD, (obj_col, obj_acc), obj_acc,
                    scalar=int(x[j]),
                )
        else:
            device.copy_host_to_device(None, obj_col, repeat=cols)
            device.execute(
                PimCmdKind.SCALED_ADD, (obj_col, obj_acc), obj_acc,
                scalar=REPRESENTATIVE_SCALAR, repeat=cols,
            )
        result = device.copy_device_to_host(obj_acc)
        device.free(obj_col)
        device.free(obj_acc)
        if device.functional:
            return {"matrix": matrix, "x": x, "result": result}
        return None

    def verify(self, outputs) -> bool:
        import numpy as np

        expected = outputs["matrix"].astype(np.int64) @ outputs["x"].astype(np.int64)
        return np.array_equal(outputs["result"], expected.astype(np.int32))

    def cpu_profile(self) -> KernelProfile:
        rows, cols = self.params["num_rows"], self.params["num_cols"]
        # OpenBLAS sgemv streams the matrix once; memory bound.
        return KernelProfile(
            name="cpu-gemv",
            bytes_accessed=4.0 * rows * cols,
            compute_ops=2.0 * rows * cols,
            mem_efficiency=0.8,
        )

    def gpu_profile(self) -> KernelProfile:
        rows, cols = self.params["num_rows"], self.params["num_cols"]
        return KernelProfile(
            name="gpu-gemv",
            bytes_accessed=4.0 * rows * cols,
            compute_ops=2.0 * rows * cols,
            mem_efficiency=0.8,
        )
