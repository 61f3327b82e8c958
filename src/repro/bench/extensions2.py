"""Further extension kernels: transitive closure and PCA.

Section II lists "transitive closure from the IRAM suite" and "Principal
Component Analysis (PCA) ... from Phoenix" among the kernels PIMbench is
being extended with; both are implemented here against the portable API.

* **Transitive Closure** -- Floyd-Warshall over the packed adjacency
  bitmap: for every pivot k, rows that reach k OR-in row k.  The per-pivot
  step is fully data-parallel on PIM (a strided column gather, a
  row-k broadcast, one select and one OR over the whole n x W bitmap).
* **PCA** -- the 2-D principal component from the covariance sums
  (five multiplies + reductions on PIM, a closed-form 2x2
  eigen-decomposition on the host), the natural extension of the linear
  regression kernel.
"""

from __future__ import annotations

import math
import typing

from repro.baselines.roofline import KernelProfile
from repro.bench.common import PimBenchmark
from repro.config.device import PimDataType
from repro.core.commands import PimCmdKind
from repro.host.model import HostModel

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.core.device import PimDevice

WORD_BITS = 32


class TransitiveClosureBenchmark(PimBenchmark):
    key = "transitive"
    name = "Transitive Closure"
    domain = "Graph"
    execution_type = "PIM"
    random_access = True
    paper_input = "extension kernel (not in Table I)"

    @classmethod
    def default_params(cls):
        return {"num_nodes": 48, "num_edges": 96, "seed": 71}

    @classmethod
    def paper_params(cls):
        return {"num_nodes": 8_192, "num_edges": 131_072, "seed": 71}

    def run_pim(self, device: PimDevice, host: HostModel):
        import numpy as np

        from repro.workloads.graphs import random_graph

        n = self.params["num_nodes"]
        words = math.ceil(n / WORD_BITS)
        graph = None
        matrix = None
        if device.functional:
            graph = random_graph(n, self.params["num_edges"],
                                 seed=self.params["seed"])
            matrix = np.zeros((n, words), dtype=np.uint32)
            for u, v in graph.edges():  # directed closure of both arcs
                matrix[u, v // WORD_BITS] |= np.uint32(1 << (v % WORD_BITS))
                matrix[v, u // WORD_BITS] |= np.uint32(1 << (u % WORD_BITS))
            for v in range(n):  # reflexive closure
                matrix[v, v // WORD_BITS] |= np.uint32(1 << (v % WORD_BITS))

        obj_m = device.alloc(n * words, PimDataType.UINT32)
        obj_colbit = device.alloc(n, PimDataType.UINT32)
        obj_reach = device.alloc_associated(obj_colbit, PimDataType.BOOL)
        obj_rowk = device.alloc_associated(obj_m)
        obj_sel = device.alloc_associated(obj_m)
        obj_zero = device.alloc_associated(obj_m)
        obj_mask = device.alloc_associated(obj_m, PimDataType.BOOL)
        device.copy_host_to_device(
            matrix.reshape(-1) if matrix is not None else None, obj_m
        )
        device.execute(PimCmdKind.BROADCAST, (), obj_zero, scalar=0)
        for k in range(n):
            word, bit = k // WORD_BITS, k % WORD_BITS
            # Gather column word `word` of every row (strided on-device
            # gather), then test the pivot bit: reach[i] = A[i][k].
            column = None
            if device.functional:
                column = obj_m.require_data().reshape(n, words)[:, word].copy()
            device.model_gather(obj_colbit, column)
            device.execute(
                PimCmdKind.AND_SCALAR, (obj_colbit,), obj_colbit,
                scalar=1 << bit,
            )
            device.execute(
                PimCmdKind.EQ_SCALAR, (obj_colbit,), obj_reach,
                scalar=1 << bit,
            )
            # Broadcast row k across all rows and the reach mask across
            # all words of each row (on-device replication).
            rowk_tiled = mask_tiled = None
            if device.functional:
                data = obj_m.require_data().reshape(n, words)
                rowk_tiled = np.tile(data[k], n)
                mask_tiled = np.repeat(obj_reach.require_data(), words)
            device.model_gather(obj_rowk, rowk_tiled)
            device.model_gather(obj_mask, mask_tiled)
            # A[i] |= reach[i] ? A[k] : 0
            device.execute(
                PimCmdKind.SELECT, (obj_mask, obj_rowk, obj_zero), obj_sel
            )
            device.execute(PimCmdKind.OR, (obj_m, obj_sel), obj_m)
        closure = device.copy_device_to_host(obj_m)
        for obj in (obj_m, obj_colbit, obj_reach, obj_rowk, obj_sel,
                    obj_zero, obj_mask):
            device.free(obj)
        if device.functional:
            return {
                "graph": graph,
                "closure": closure.reshape(n, words),
                "num_nodes": n,
            }
        return None

    def verify(self, outputs) -> bool:
        from repro.workloads.graphs import connected_components

        graph = outputs["graph"]
        closure = outputs["closure"]
        n = outputs["num_nodes"]
        components = {
            node: component
            for component in connected_components(graph)
            for node in component
        }
        for u in range(n):
            for v in range(n):
                expected = v in components[u]
                actual = bool(closure[u, v // WORD_BITS] >> (v % WORD_BITS) & 1)
                if expected != actual:
                    return False
        return True

    def cpu_profile(self) -> KernelProfile:
        n = self.params["num_nodes"]
        words = math.ceil(n / WORD_BITS)
        # Bit-parallel Floyd-Warshall: n^2 word-OR operations over rows.
        work = float(n) * n * words
        return KernelProfile(
            name="cpu-transitive",
            bytes_accessed=8.0 * work,
            compute_ops=2.0 * work,
            mem_efficiency=0.6,
            compute_efficiency=0.4,
        )

    def gpu_profile(self) -> KernelProfile:
        n = self.params["num_nodes"]
        words = math.ceil(n / WORD_BITS)
        work = float(n) * n * words
        return KernelProfile(
            name="gpu-transitive",
            bytes_accessed=8.0 * work,
            compute_ops=2.0 * work,
            mem_efficiency=0.6,
            compute_efficiency=0.4,
        )


class PcaBenchmark(PimBenchmark):
    key = "pca"
    name = "PCA"
    domain = "Unsupervised Learning"
    execution_type = "PIM + Host"
    paper_input = "extension kernel (not in Table I)"

    @classmethod
    def default_params(cls):
        return {"num_points": 8192, "seed": 73}

    @classmethod
    def paper_params(cls):
        return {"num_points": 268_435_456, "seed": 73}

    def run_pim(self, device: PimDevice, host: HostModel):
        from repro.workloads.points import clustered_points

        n = self.params["num_points"]
        points = None
        if device.functional:
            points, _ = clustered_points(n, 3, seed=self.params["seed"],
                                         spread=400)
        obj_x = device.alloc(n)
        obj_y = device.alloc_associated(obj_x)
        obj_tmp = device.alloc_associated(obj_x)
        device.copy_host_to_device(
            points[:, 0] if points is not None else None, obj_x
        )
        device.copy_host_to_device(
            points[:, 1] if points is not None else None, obj_y
        )
        sum_x = device.execute(PimCmdKind.REDSUM, (obj_x,))
        sum_y = device.execute(PimCmdKind.REDSUM, (obj_y,))
        device.execute(PimCmdKind.MUL, (obj_x, obj_x), obj_tmp)
        sum_xx = device.execute(PimCmdKind.REDSUM, (obj_tmp,))
        device.execute(PimCmdKind.MUL, (obj_y, obj_y), obj_tmp)
        sum_yy = device.execute(PimCmdKind.REDSUM, (obj_tmp,))
        device.execute(PimCmdKind.MUL, (obj_x, obj_y), obj_tmp)
        sum_xy = device.execute(PimCmdKind.REDSUM, (obj_tmp,))
        # Host: assemble the 2x2 covariance and eigen-decompose it.
        host.run(KernelProfile(
            "host-eigen-2x2", bytes_accessed=64.0, compute_ops=32.0,
        ))
        for obj in (obj_x, obj_y, obj_tmp):
            device.free(obj)
        if device.functional:
            cov = _covariance(n, sum_x, sum_y, sum_xx, sum_yy, sum_xy)
            return {"points": points, "component": _principal_axis(cov)}
        return None

    def verify(self, outputs) -> bool:
        import numpy as np

        points = outputs["points"].astype(np.float64)
        centered = points - points.mean(axis=0)
        cov = centered.T @ centered / len(points)
        _, vecs = np.linalg.eigh(cov)
        expected = vecs[:, -1]
        produced = outputs["component"]
        alignment = abs(float(np.dot(expected, produced)))
        return alignment > 0.999

    def cpu_profile(self) -> KernelProfile:
        n = self.params["num_points"]
        return KernelProfile(
            name="cpu-pca",
            bytes_accessed=8.0 * n,
            compute_ops=9.0 * n,
            mem_efficiency=0.8,
        )

    def gpu_profile(self) -> KernelProfile:
        n = self.params["num_points"]
        return KernelProfile(
            name="gpu-pca",
            bytes_accessed=8.0 * n,
            compute_ops=9.0 * n,
            mem_efficiency=0.8,
        )


def _covariance(n, sum_x, sum_y, sum_xx, sum_yy, sum_xy) -> np.ndarray:
    import numpy as np

    mean_x, mean_y = sum_x / n, sum_y / n
    return np.array([
        [sum_xx / n - mean_x**2, sum_xy / n - mean_x * mean_y],
        [sum_xy / n - mean_x * mean_y, sum_yy / n - mean_y**2],
    ])


def _principal_axis(cov: np.ndarray) -> np.ndarray:
    import numpy as np

    values, vectors = np.linalg.eigh(cov)
    return vectors[:, int(np.argmax(values))]
