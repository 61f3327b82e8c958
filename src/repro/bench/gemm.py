"""Matrix-Matrix Multiplication / GEMM (Table I, Linear Algebra).

Implemented as batched GEMV (Section VIII "GEMM"): the output matrix is a
flat column-major vector of R x C elements; for each inner index k, the
replicated A column and the segment-broadcast B row are streamed in and
combined with one multiply plus one accumulate.  GEMM is compute-intensive
and streams O(K) full-output-size operand vectors, so no PIM variant does
well -- only Fulcrum beats the CPU, and only with data movement excluded,
matching the paper's finding.
"""

from __future__ import annotations

import typing

from repro.baselines.roofline import KernelProfile
from repro.bench.common import PimBenchmark
from repro.core.commands import PimCmdKind
from repro.host.model import HostModel

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.device import PimDevice


class GemmBenchmark(PimBenchmark):
    key = "gemm"
    name = "GEMM"
    domain = "Linear Algebra"
    execution_type = "PIM"
    paper_input = "23,521 x 4,096 and 4,096 x 512 32-bit INT"

    @classmethod
    def default_params(cls):
        return {"m": 24, "k": 12, "n": 8, "seed": 5}

    @classmethod
    def paper_params(cls):
        return {"m": 23_521, "k": 4_096, "n": 512, "seed": 5}

    def run_pim(self, device: PimDevice, host: HostModel):
        import numpy as np

        from repro.workloads.vectors import random_int_matrix

        m, k, n = self.params["m"], self.params["k"], self.params["n"]
        a = b = None
        if device.functional:
            a = random_int_matrix(m, k, seed=self.params["seed"], low=-20, high=20)
            b = random_int_matrix(k, n, seed=self.params["seed"] + 1, low=-20, high=20)
        out_elems = m * n
        obj_a = device.alloc(out_elems)  # A column tiled across output columns
        obj_b = device.alloc_associated(obj_a)  # B row broadcast per segment
        obj_tmp = device.alloc_associated(obj_a)
        obj_acc = device.alloc_associated(obj_a)
        device.execute(PimCmdKind.BROADCAST, (), obj_acc, scalar=0)
        if device.functional:
            for kk in range(k):
                device.copy_host_to_device(np.tile(a[:, kk], n), obj_a)
                device.copy_host_to_device(np.repeat(b[kk, :], m), obj_b)
                device.execute(PimCmdKind.MUL, (obj_a, obj_b), obj_tmp)
                device.execute(PimCmdKind.ADD, (obj_tmp, obj_acc), obj_acc)
        else:
            device.copy_host_to_device(None, obj_a, repeat=k)
            device.copy_host_to_device(None, obj_b, repeat=k)
            device.execute(PimCmdKind.MUL, (obj_a, obj_b), obj_tmp, repeat=k)
            device.execute(PimCmdKind.ADD, (obj_tmp, obj_acc), obj_acc, repeat=k)
        result = device.copy_device_to_host(obj_acc)
        for obj in (obj_a, obj_b, obj_tmp, obj_acc):
            device.free(obj)
        if device.functional:
            return {"a": a, "b": b, "result": result}
        return None

    def verify(self, outputs) -> bool:
        import numpy as np

        a, b = outputs["a"], outputs["b"]
        expected = (a.astype(np.int64) @ b.astype(np.int64)).astype(np.int32)
        produced = outputs["result"].reshape(b.shape[1], a.shape[0]).T
        return np.array_equal(produced, expected)

    def cpu_profile(self) -> KernelProfile:
        m, k, n = self.params["m"], self.params["k"], self.params["n"]
        # OpenBLAS sgemm: compute bound at good fraction of peak.
        return KernelProfile(
            name="cpu-gemm",
            bytes_accessed=4.0 * (m * k + k * n + m * n),
            compute_ops=2.0 * m * k * n,
            compute_efficiency=0.6,
        )

    def gpu_profile(self) -> KernelProfile:
        m, k, n = self.params["m"], self.params["k"], self.params["n"]
        # cuBLAS sgemm approaches peak for these shapes.
        return KernelProfile(
            name="gpu-gemm",
            bytes_accessed=4.0 * (m * k + k * n + m * n),
            compute_ops=2.0 * m * k * n,
            compute_efficiency=0.7,
        )
