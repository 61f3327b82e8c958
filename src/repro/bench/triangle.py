"""Triangle Count (Table I, Graph).

For every edge (u, v), the number of common neighbors is the population
count of ``adj_row[u] AND adj_row[v]`` over the packed adjacency bitmap;
summing over all edges counts each triangle three times [69].  The bitmap
rows for each edge batch are gathered on the host (the random-access part)
and streamed to the device, where a single AND + POPCOUNT + REDSUM chain
processes the whole batch -- so the kernel is fast (AND is native,
especially for bit-serial) but the gather-driven data movement erases the
win, exactly the Section VIII "Triangle Count" finding.
"""

from __future__ import annotations

import math
import typing

from repro.baselines.roofline import KernelProfile
from repro.bench.common import PimBenchmark, ceil_div
from repro.config.device import PimDataType
from repro.core.commands import PimCmdKind
from repro.host.model import HostModel

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.core.device import PimDevice

WORD_BITS = 32


class TriangleCountBenchmark(PimBenchmark):
    key = "tricount"
    name = "Triangle Count"
    domain = "Graph"
    execution_type = "PIM"
    random_access = True
    paper_input = "227,320 nodes and 1,628,268 edges"

    @classmethod
    def default_params(cls):
        return {"num_nodes": 96, "num_edges": 600, "seed": 19, "num_chunks": 2}

    @classmethod
    def paper_params(cls):
        return {
            "num_nodes": 227_320,
            "num_edges": 1_628_268,
            "seed": 19,
            "num_chunks": 8,
        }

    def run_pim(self, device: PimDevice, host: HostModel):
        import numpy as np

        from repro.workloads.graphs import adjacency_bitmap, random_graph

        nodes = self.params["num_nodes"]
        edges = self.params["num_edges"]
        chunks = self.params["num_chunks"]
        words_per_row = math.ceil(nodes / WORD_BITS)

        graph = bitmap = edge_list = None
        if device.functional:
            graph = random_graph(nodes, edges, seed=self.params["seed"])
            bitmap = adjacency_bitmap(graph, WORD_BITS)
            edge_list = np.array(graph.edges(), dtype=np.int64)
            edges = len(edge_list)

        # The packed adjacency bitmap is resident on the device; per-edge
        # row pairs are gathered device-internally (the random-access part,
        # serialized over the module's internal bus).
        obj_bitmap = device.alloc(nodes * words_per_row, PimDataType.UINT32)
        device.copy_host_to_device(
            bitmap.reshape(-1) if bitmap is not None else None, obj_bitmap
        )
        if edges == 0:  # edgeless graph: nothing to intersect
            device.free(obj_bitmap)
            if device.functional:
                return {"graph": graph, "triangles": 0}
            return None
        edges_per_chunk = ceil_div(edges, chunks)
        chunk_elems = edges_per_chunk * words_per_row
        obj_u = device.alloc(chunk_elems, PimDataType.UINT32)
        obj_v = device.alloc_associated(obj_u)
        obj_and = device.alloc_associated(obj_u)
        obj_pop = device.alloc_associated(obj_u)
        total = 0
        for c in range(chunks):
            start = c * edges_per_chunk
            count = min(edges_per_chunk, edges - start)
            if count <= 0:
                break
            rows_u = rows_v = None
            if device.functional:
                batch = edge_list[start:start + count]
                rows_u = _pad(bitmap[batch[:, 0]].reshape(-1), chunk_elems)
                rows_v = _pad(bitmap[batch[:, 1]].reshape(-1), chunk_elems)
            device.model_gather(obj_u, rows_u)
            device.model_gather(obj_v, rows_v)
            device.execute(PimCmdKind.AND, (obj_u, obj_v), obj_and)
            device.execute(PimCmdKind.POPCOUNT, (obj_and,), obj_pop)
            total += device.execute(PimCmdKind.REDSUM, (obj_pop,)) or 0
        for obj in (obj_bitmap, obj_u, obj_v, obj_and, obj_pop):
            device.free(obj)
        if device.functional:
            return {"graph": graph, "triangles": total // 3}
        return None

    def verify(self, outputs) -> bool:
        from repro.workloads.graphs import count_triangles_reference

        return outputs["triangles"] == count_triangles_reference(outputs["graph"])

    def cpu_profile(self) -> KernelProfile:
        edges = self.params["num_edges"]
        nodes = self.params["num_nodes"]
        avg_degree = 2.0 * edges / nodes
        # GAPBS set-intersection: ~avg_degree comparisons per edge with
        # scattered neighbor-list reads.
        work = edges * avg_degree
        return KernelProfile(
            name="cpu-tricount",
            bytes_accessed=8.0 * work,
            compute_ops=2.0 * work,
            mem_efficiency=0.3,
            compute_efficiency=0.3,
        )

    def gpu_profile(self) -> KernelProfile:
        edges = self.params["num_edges"]
        nodes = self.params["num_nodes"]
        work = edges * (2.0 * edges / nodes)
        # Gunrock: same algorithmic work at higher bandwidth utilization.
        return KernelProfile(
            name="gpu-tricount",
            bytes_accessed=8.0 * work,
            compute_ops=2.0 * work,
            mem_efficiency=0.5,
            compute_efficiency=0.3,
        )


def _pad(values: np.ndarray, size: int) -> np.ndarray:
    import numpy as np

    if len(values) == size:
        return values
    padded = np.zeros(size, dtype=values.dtype)
    padded[: len(values)] = values
    return padded
