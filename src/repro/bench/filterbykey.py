"""Filter-By-Key (Table I, Database; related to PrIM/InSituBench scans).

Scan a key column for records under a predicate (~1% selectivity): the
predicate evaluates on the DRAM side, producing a match bitmap, which the
host must then fetch and walk to gather the selected records.  The gather
is the bottleneck -- 31% of the CPU baseline's runtime but ~99% of the PIM
runtime (Section VIII "Filter-By-Key"), so PIM gains only a small speedup
over the CPU and none over the GPU.
"""

from __future__ import annotations

import typing

from repro.baselines.roofline import KernelProfile
from repro.bench.common import PimBenchmark
from repro.config.device import PimDataType
from repro.core.commands import PimCmdKind
from repro.host.model import HostModel

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.device import PimDevice


class FilterByKeyBenchmark(PimBenchmark):
    key = "filter"
    name = "Filter-By-Key"
    domain = "Database"
    execution_type = "PIM + Host"
    paper_input = "1,073,741,824 key-value pairs"

    @classmethod
    def default_params(cls):
        return {"num_records": 8192, "selectivity": 0.01, "seed": 23}

    @classmethod
    def paper_params(cls):
        return {"num_records": 1_073_741_824, "selectivity": 0.01, "seed": 23}

    def run_pim(self, device: PimDevice, host: HostModel):
        from repro.workloads.tables import key_value_table

        n = self.params["num_records"]
        selectivity = self.params["selectivity"]
        workload = None
        keys = None
        threshold = 10_000
        if device.functional:
            workload = key_value_table(n, selectivity, seed=self.params["seed"])
            keys = workload.keys
            threshold = workload.threshold
        obj_keys = device.alloc(n)
        obj_mask = device.alloc_associated(obj_keys, PimDataType.BOOL)
        # The table column is resident in the PIM module (the in-memory
        # scan use case); only the result bitmap moves, so data movement
        # stays negligible and the host gather dominates (Figure 7).
        if device.functional:
            obj_keys.set_data(keys)
        device.execute(
            PimCmdKind.LT_SCALAR, (obj_keys,), obj_mask, scalar=threshold
        )
        num_matches = device.execute(PimCmdKind.REDSUM, (obj_mask,))
        mask = device.copy_device_to_host(obj_mask)
        if not device.functional:
            num_matches = int(n * selectivity)
        # Host gather: walk the bitmap and collect matching records.
        host.run(self._gather_profile(n, num_matches))
        selected = None
        if device.functional:
            selected = keys[mask.astype(bool)]
        device.free(obj_keys)
        device.free(obj_mask)
        if device.functional:
            return {
                "workload": workload,
                "selected": selected,
                "num_matches": num_matches,
            }
        return None

    def _gather_profile(self, n: int, matches: int) -> KernelProfile:
        # Bitmap scan: word-at-a-time with bit tricks (a few ops per
        # 64-bit word), then scattered record reads for the matches.
        scan = KernelProfile(
            "host-bitmap-scan", bytes_accessed=n / 8.0, compute_ops=n / 8.0,
            mem_efficiency=0.8, compute_efficiency=0.3,
        )
        gather = KernelProfile(
            "host-record-gather", bytes_accessed=8.0 * matches,
            compute_ops=float(matches), mem_efficiency=0.05,
        )
        return scan + gather

    def verify(self, outputs) -> bool:
        import numpy as np

        workload = outputs["workload"]
        expected = workload.keys[workload.keys < workload.threshold]
        return (
            outputs["num_matches"] == len(expected)
            and np.array_equal(outputs["selected"], expected)
        )

    def cpu_profile(self) -> KernelProfile:
        n = self.params["num_records"]
        matches = int(n * self.params["selectivity"])
        # Predicate scan over the key column, then the same gather.
        scan = KernelProfile(
            "cpu-filter-scan", bytes_accessed=4.0 * n, compute_ops=float(n),
            mem_efficiency=0.8, compute_efficiency=0.4,
        )
        gather = KernelProfile(
            "cpu-record-gather", bytes_accessed=8.0 * matches,
            compute_ops=float(matches), mem_efficiency=0.05,
        )
        return scan + gather

    def gpu_profile(self) -> KernelProfile:
        n = self.params["num_records"]
        matches = int(n * self.params["selectivity"])
        # Thrust copy_if: scan plus compaction at high bandwidth.
        return KernelProfile(
            name="gpu-filter",
            bytes_accessed=4.0 * n + 8.0 * matches,
            compute_ops=2.0 * n,
            mem_efficiency=0.6,
        )
