"""Radix Sort (Table I, Sort; from the InSituBench follow-on work).

LSD radix sort over 8-bit digits using counting sort per pass: the
*counting* phase runs on PIM (digit extraction with shift/mask, then one
equality-match plus reduction per bucket), while the *sorting* phase --
the data reshuffle -- runs on the host because these PIM architectures
have no shuffle support (Section VIII "Radix Sort").  The host scatter
dominates, so PIM shows only a slight speedup over the CPU and loses
badly to the GPU's CUB radix sort.
"""

from __future__ import annotations

import typing

from repro.baselines.roofline import KernelProfile
from repro.bench.common import PimBenchmark
from repro.core.commands import PimCmdKind
from repro.config.device import PimDataType
from repro.host.model import HostModel

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.device import PimDevice

DIGIT_BITS = 8
NUM_BUCKETS = 1 << DIGIT_BITS


class RadixSortBenchmark(PimBenchmark):
    key = "radixsort"
    name = "Radix Sort"
    domain = "Sort"
    execution_type = "PIM + Host"
    random_access = True
    paper_input = "67,108,864 32-bit INT"

    @classmethod
    def default_params(cls):
        return {"num_elements": 2048, "seed": 13}

    @classmethod
    def paper_params(cls):
        return {"num_elements": 67_108_864, "seed": 13}

    def _host_scatter_profile(self, n: int) -> KernelProfile:
        # Stable scatter of n records to bucket offsets: streaming read,
        # scattered write (low effective bandwidth).
        return KernelProfile(
            name="host-scatter",
            bytes_accessed=8.0 * n,
            compute_ops=2.0 * n,
            mem_efficiency=0.15,
            compute_efficiency=0.3,
        )

    def run_pim(self, device: PimDevice, host: HostModel):
        import numpy as np

        from repro.workloads.vectors import random_int_vector

        n = self.params["num_elements"]
        num_passes = 32 // DIGIT_BITS
        keys = None
        if device.functional:
            keys = random_int_vector(
                n, seed=self.params["seed"], low=0, high=1 << 31
            ).astype(np.int32)
        current = keys
        obj_keys = device.alloc(n)
        obj_digit = device.alloc_associated(obj_keys)
        obj_mask = device.alloc_associated(obj_keys, PimDataType.BOOL)
        for p in range(num_passes):
            # PIM counting phase: extract the digit, then histogram it.
            with self.phase(device, f"count:pass{p}"):
                device.copy_host_to_device(current, obj_keys)
                device.execute(
                    PimCmdKind.SHIFT_RIGHT, (obj_keys,), obj_digit,
                    scalar=p * DIGIT_BITS,
                )
                device.execute(
                    PimCmdKind.AND_SCALAR, (obj_digit,), obj_digit,
                    scalar=NUM_BUCKETS - 1,
                )
                counts = np.zeros(NUM_BUCKETS, dtype=np.int64)
                if device.functional:
                    for bucket in range(NUM_BUCKETS):
                        device.execute(
                            PimCmdKind.EQ_SCALAR, (obj_digit,), obj_mask,
                            scalar=bucket,
                        )
                        counts[bucket] = device.execute(
                            PimCmdKind.REDSUM, (obj_mask,)
                        )
                else:
                    device.execute(
                        PimCmdKind.EQ_SCALAR, (obj_digit,), obj_mask,
                        scalar=0x55, repeat=NUM_BUCKETS,
                    )
                    device.execute(
                        PimCmdKind.REDSUM, (obj_mask,), repeat=NUM_BUCKETS
                    )
            # Host sorting phase: prefix-sum the counts and scatter.
            with self.phase(device, f"scatter:pass{p}"):
                host.run(self._host_scatter_profile(n))
            if device.functional:
                digits = (current >> (p * DIGIT_BITS)) & (NUM_BUCKETS - 1)
                offsets = np.zeros(NUM_BUCKETS, dtype=np.int64)
                offsets[1:] = np.cumsum(counts)[:-1]
                order = np.argsort(digits, kind="stable")
                current = current[order]
        for obj in (obj_keys, obj_digit, obj_mask):
            device.free(obj)
        if device.functional:
            return {"keys": keys, "result": current}
        return None

    def verify(self, outputs) -> bool:
        import numpy as np

        return np.array_equal(outputs["result"], np.sort(outputs["keys"]))

    def cpu_profile(self) -> KernelProfile:
        n = self.params["num_elements"]
        num_passes = 32 // DIGIT_BITS
        # Counting scan (streaming) plus scatter (scattered writes) per pass.
        scan = KernelProfile(
            "cpu-radix-count", bytes_accessed=4.0 * n, compute_ops=2.0 * n,
            mem_efficiency=0.8, compute_efficiency=0.4,
        )
        scatter = self._host_scatter_profile(n)
        return (scan + scatter).scaled(num_passes)

    def gpu_profile(self) -> KernelProfile:
        n = self.params["num_elements"]
        # CUB device radix sort: near-streaming bandwidth for all passes.
        return KernelProfile(
            name="gpu-radix",
            bytes_accessed=8.0 * n * (32 // DIGIT_BITS),
            compute_ops=4.0 * n,
            mem_efficiency=0.6,
        )
