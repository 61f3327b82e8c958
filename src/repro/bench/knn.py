"""K-Nearest Neighbors (Table I, Supervised Learning).

Batched KNN inference with Manhattan distance: the per-query distance
vector (|x - qx| + |y - qy|) is computed on PIM with subtract/abs/add;
the top-k selection and majority classification run on the host because
PIM lacks shuffle support (Section VIII "KNN").  The host selection phase
dominates, leaving modest overall speedups.
"""

from __future__ import annotations

import typing

from repro.baselines.roofline import KernelProfile
from repro.bench.common import PimBenchmark
from repro.core.commands import PimCmdKind
from repro.host.model import HostModel

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.device import PimDevice


class KnnBenchmark(PimBenchmark):
    key = "knn"
    name = "KNN"
    domain = "Supervised Learning"
    execution_type = "PIM + Host"
    random_access = True
    paper_input = "6,710,886 2D data points"

    @classmethod
    def default_params(cls):
        return {"num_points": 2048, "num_queries": 8, "k": 5,
                "num_classes": 4, "seed": 41}

    @classmethod
    def paper_params(cls):
        return {"num_points": 6_710_886, "num_queries": 64, "k": 5,
                "num_classes": 4, "seed": 41}

    def run_pim(self, device: PimDevice, host: HostModel):
        import numpy as np

        from repro.workloads.points import labeled_points_2d

        n = self.params["num_points"]
        num_queries = self.params["num_queries"]
        k = self.params["k"]
        points = labels = queries = None
        if device.functional:
            points, labels = labeled_points_2d(
                n, self.params["num_classes"], seed=self.params["seed"]
            )
            rng = np.random.default_rng(self.params["seed"] + 1)
            queries = points[rng.integers(0, n, size=num_queries)] + rng.integers(
                -5, 6, size=(num_queries, 2)
            ).astype(np.int32)
        obj_x = device.alloc(n)
        obj_y = device.alloc_associated(obj_x)
        obj_dx = device.alloc_associated(obj_x)
        obj_dy = device.alloc_associated(obj_x)
        with self.phase(device, "load"):
            device.copy_host_to_device(
                points[:, 0] if points is not None else None, obj_x
            )
            device.copy_host_to_device(
                points[:, 1] if points is not None else None, obj_y
            )
        predictions = []
        for q in range(num_queries):
            qx = int(queries[q, 0]) if queries is not None else 123
            qy = int(queries[q, 1]) if queries is not None else 456
            with self.phase(device, "distance"):
                device.execute(PimCmdKind.SUB_SCALAR, (obj_x,), obj_dx, scalar=qx)
                device.execute(PimCmdKind.ABS, (obj_dx,), obj_dx)
                device.execute(PimCmdKind.SUB_SCALAR, (obj_y,), obj_dy, scalar=qy)
                device.execute(PimCmdKind.ABS, (obj_dy,), obj_dy)
                device.execute(PimCmdKind.ADD, (obj_dx, obj_dy), obj_dx)
                distances = device.copy_device_to_host(obj_dx)
            # Host: top-k partial selection plus majority vote.
            with self.phase(device, "select"):
                host.run(self._select_profile(n, k))
            if device.functional:
                nearest = np.argpartition(distances, k)[:k]
                votes = np.bincount(labels[nearest],
                                    minlength=self.params["num_classes"])
                predictions.append(int(np.argmax(votes)))
        for obj in (obj_x, obj_y, obj_dx, obj_dy):
            device.free(obj)
        if device.functional:
            return {
                "points": points,
                "labels": labels,
                "queries": queries,
                "k": k,
                "predictions": np.array(predictions),
            }
        return None

    def _select_profile(self, n: int, k: int) -> KernelProfile:
        return KernelProfile(
            name="host-topk",
            bytes_accessed=4.0 * n,
            compute_ops=float(n + k * 16),
            mem_efficiency=0.6,
            compute_efficiency=0.25,
        )

    def verify(self, outputs) -> bool:
        import numpy as np

        points = outputs["points"].astype(np.int64)
        labels = outputs["labels"]
        k = outputs["k"]
        for q, query in enumerate(outputs["queries"].astype(np.int64)):
            dist = np.abs(points - query).sum(axis=1)
            nearest = np.argpartition(dist, k)[:k]
            votes = np.bincount(labels[nearest],
                                minlength=self.params["num_classes"])
            if int(np.argmax(votes)) != outputs["predictions"][q]:
                return False
        return True

    def cpu_profile(self) -> KernelProfile:
        n = self.params["num_points"]
        q = self.params["num_queries"]
        # Per query: distance scan (8 bytes + 4 ops per point) + selection.
        return KernelProfile(
            name="cpu-knn",
            bytes_accessed=12.0 * n * q,
            compute_ops=5.0 * n * q,
            mem_efficiency=0.7,
            compute_efficiency=0.3,
        )

    def gpu_profile(self) -> KernelProfile:
        n = self.params["num_points"]
        q = self.params["num_queries"]
        return KernelProfile(
            name="gpu-knn",
            bytes_accessed=12.0 * n * q,
            compute_ops=5.0 * n * q,
            mem_efficiency=0.6,
            compute_efficiency=0.3,
        )
