"""K-means clustering (Table I, Unsupervised Learning; from Phoenix).

Lloyd iterations with Manhattan distance over 2-D integer points.  The
random-access assignment step is restructured for PIM with bitmasks
(Section VIII "K-means"): per centroid, distances are computed with
subtract/abs/add; a running elementwise minimum gives each point's best
distance; equality against it yields the centroid's membership mask; and
masked reductions (select + reduction sum) produce the per-cluster sums
the host divides to update centroids.  Simple ops only, so all three PIM
variants achieve large gains over CPU and GPU.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.roofline import KernelProfile
from repro.bench.common import PimBenchmark
from repro.config.device import PimDataType
from repro.core.commands import PimCmdKind
from repro.core.device import PimDevice
from repro.host.model import HostModel
from repro.workloads.points import clustered_points


class KMeansBenchmark(PimBenchmark):
    key = "kmeans"
    name = "K-means"
    domain = "Unsupervised Learning"
    execution_type = "PIM"
    random_access = True
    paper_input = "67,108,864 2D data, k = 20"

    @classmethod
    def default_params(cls):
        return {"num_points": 4096, "k": 4, "iterations": 4, "seed": 47}

    @classmethod
    def paper_params(cls):
        return {"num_points": 67_108_864, "k": 20, "iterations": 10, "seed": 47}

    def run_pim(self, device: PimDevice, host: HostModel):
        n = self.params["num_points"]
        k = self.params["k"]
        iterations = self.params["iterations"]
        points = None
        centroids = np.zeros((k, 2), dtype=np.int64)
        if device.functional:
            points, _ = clustered_points(n, k, seed=self.params["seed"])
            centroids = points[:k].astype(np.int64).copy()  # first-k init

        obj_x = device.alloc(n)
        obj_y = device.alloc_associated(obj_x)
        obj_zero = device.alloc_associated(obj_x)
        obj_dx = device.alloc_associated(obj_x)
        obj_dy = device.alloc_associated(obj_x)
        obj_best = device.alloc_associated(obj_x)
        obj_mask = device.alloc_associated(obj_x, PimDataType.BOOL)
        obj_sel = device.alloc_associated(obj_x)
        dist_objs = [device.alloc_associated(obj_x) for _ in range(k)]
        device.copy_host_to_device(points[:, 0] if points is not None else None, obj_x)
        device.copy_host_to_device(points[:, 1] if points is not None else None, obj_y)
        device.execute(PimCmdKind.BROADCAST, (), obj_zero, scalar=0)

        def one_iteration() -> None:
            for c in range(k):
                if device.functional:
                    cx, cy = int(centroids[c, 0]), int(centroids[c, 1])
                else:
                    # Representative nonzero coordinates so the bit-serial
                    # scalar microprograms are costed for typical values.
                    cx, cy = 0x1235 + c, 0x2B67 + c
                device.execute(PimCmdKind.SUB_SCALAR, (obj_x,), obj_dx, scalar=cx)
                device.execute(PimCmdKind.ABS, (obj_dx,), obj_dx)
                device.execute(PimCmdKind.SUB_SCALAR, (obj_y,), obj_dy, scalar=cy)
                device.execute(PimCmdKind.ABS, (obj_dy,), obj_dy)
                device.execute(PimCmdKind.ADD, (obj_dx, obj_dy), dist_objs[c])
                if c == 0:
                    device.execute(PimCmdKind.COPY, (dist_objs[c],), obj_best)
                else:
                    device.execute(PimCmdKind.MIN, (obj_best, dist_objs[c]), obj_best)
            for c in range(k):
                device.execute(PimCmdKind.EQ, (dist_objs[c], obj_best), obj_mask)
                count = device.execute(PimCmdKind.REDSUM, (obj_mask,))
                device.execute(PimCmdKind.SELECT, (obj_mask, obj_x, obj_zero), obj_sel)
                sum_x = device.execute(PimCmdKind.REDSUM, (obj_sel,))
                device.execute(PimCmdKind.SELECT, (obj_mask, obj_y, obj_zero), obj_sel)
                sum_y = device.execute(PimCmdKind.REDSUM, (obj_sel,))
                if device.functional and count:
                    centroids[c, 0] = sum_x // count
                    centroids[c, 1] = sum_y // count
            # Host: divide the k sums to produce new centroids.
            host.run(KernelProfile(
                "host-centroid-update", bytes_accessed=32.0 * k,
                compute_ops=4.0 * k,
            ))

        if device.functional:
            for _ in range(iterations):
                one_iteration()
        elif iterations:
            # Analytic iterations issue the identical command sequence
            # (the representative scalars don't change between Lloyd
            # rounds), so record the first iteration and replay the rest
            # (docs/PERFORMANCE.md §5).
            with device.stats.recorded_trace() as trace:
                one_iteration()
            device.stats.replay_trace(trace, times=iterations - 1)
        for obj in [obj_x, obj_y, obj_zero, obj_dx, obj_dy, obj_best,
                    obj_mask, obj_sel] + dist_objs:
            device.free(obj)
        if device.functional:
            return {"points": points, "centroids": centroids}
        return None

    def verify(self, outputs) -> bool:
        """Re-run the same masked-update semantics on the host and compare."""
        points = outputs["points"].astype(np.int64)
        k = self.params["k"]
        centroids = points[:k].copy()
        for _ in range(self.params["iterations"]):
            dists = np.stack(
                [np.abs(points - centroids[c]).sum(axis=1) for c in range(k)]
            )
            best = dists.min(axis=0)
            new = centroids.copy()
            for c in range(k):
                mask = dists[c] == best  # ties join every matching cluster
                count = int(mask.sum())
                if count:
                    new[c] = points[mask].sum(axis=0) // count
            centroids = new
        return np.array_equal(outputs["centroids"], centroids)

    def cpu_profile(self) -> KernelProfile:
        n = self.params["num_points"]
        k = self.params["k"]
        iters = self.params["iterations"]
        # Assignment is k distance evaluations per point per iteration.
        return KernelProfile(
            name="cpu-kmeans",
            bytes_accessed=8.0 * n * iters,
            compute_ops=6.0 * n * k * iters,
            mem_efficiency=0.7,
            compute_efficiency=0.4,
        )

    def gpu_profile(self) -> KernelProfile:
        n = self.params["num_points"]
        k = self.params["k"]
        iters = self.params["iterations"]
        # Library k-means launches k distance kernels per iteration plus
        # atomics-heavy reductions, landing far below the ALU peak.
        return KernelProfile(
            name="gpu-kmeans",
            bytes_accessed=8.0 * n * iters,
            compute_ops=6.0 * n * k * iters,
            mem_efficiency=0.6,
            compute_efficiency=0.035,
        )
