"""Extension kernels beyond Table I.

Section II and IX list kernels PIMbench is being extended with; two are
implemented here to exercise the API's extensibility claim:

* **Prefix Sum** (related to the scan kernels of PrIM/InSituBench): a
  Hillis-Steele scan built from shifted on-device copies, boundary-masked
  selects, and additions -- log2(n) PIM steps.
* **String Match** (from Phoenix, and the DRAM-CAM associative-search
  use case): slide the pattern over the text with one shifted copy,
  scalar equality match, and AND per pattern byte -- the conditional
  match-update style DRAM-AP's associative gates target.

Both register in ``EXTENSION_BENCHMARKS`` (kept apart from the Table I
suite so the figure regenerations stay faithful to the paper).
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


class PrefixSumBenchmark(PimBenchmark):
    key = "prefixsum"
    name = "Prefix Sum"
    domain = "Linear Algebra"
    execution_type = "PIM"
    paper_input = "extension kernel (not in Table I)"

    @classmethod
    def default_params(cls):
        return {"num_elements": 4096, "seed": 61}

    @classmethod
    def paper_params(cls):
        return {"num_elements": 67_108_864, "seed": 61}

    def run_pim(self, device: PimDevice, host: HostModel):
        import numpy as np

        n = self.params["num_elements"]
        values = None
        if device.functional:
            rng = np.random.default_rng(self.params["seed"])
            values = rng.integers(-100, 100, n).astype(np.int32)
        obj_acc = device.alloc(n)
        obj_shift = device.alloc_associated(obj_acc)
        obj_zero = device.alloc_associated(obj_acc)
        obj_mask = device.alloc_associated(obj_acc, PimDataType.BOOL)
        device.copy_host_to_device(values, obj_acc)
        device.execute(PimCmdKind.BROADCAST, (), obj_zero, scalar=0)
        step = 1
        while step < n:
            # acc[i] += acc[i - step], with the first `step` lanes masked.
            device.copy_device_to_device(obj_acc, obj_shift,
                                         shift_elements=-step)
            valid = None
            if device.functional:
                valid = np.arange(n) >= step
            device.copy_host_to_device(valid, obj_mask)
            device.execute(
                PimCmdKind.SELECT, (obj_mask, obj_shift, obj_zero), obj_shift
            )
            device.execute(PimCmdKind.ADD, (obj_acc, obj_shift), obj_acc)
            step *= 2
        result = device.copy_device_to_host(obj_acc)
        for obj in (obj_acc, obj_shift, obj_zero, obj_mask):
            device.free(obj)
        if device.functional:
            return {"values": values, "result": result}
        return None

    def verify(self, outputs) -> bool:
        import numpy as np

        with np.errstate(over="ignore"):
            expected = np.cumsum(outputs["values"], dtype=np.int32)
        return np.array_equal(outputs["result"], expected)

    def cpu_profile(self) -> KernelProfile:
        n = self.params["num_elements"]
        return KernelProfile(
            name="cpu-prefixsum",
            bytes_accessed=8.0 * n,
            compute_ops=float(n),
            mem_efficiency=0.7,  # sequential dependency limits vectorization
            compute_efficiency=0.2,
        )

    def gpu_profile(self) -> KernelProfile:
        n = self.params["num_elements"]
        # CUB device scan: a few streaming passes.
        return KernelProfile(
            name="gpu-prefixsum",
            bytes_accessed=12.0 * n,
            compute_ops=2.0 * n,
            mem_efficiency=0.7,
        )


class StringMatchBenchmark(PimBenchmark):
    key = "stringmatch"
    name = "String Match"
    domain = "Database"
    execution_type = "PIM + Host"
    paper_input = "extension kernel (not in Table I)"

    @classmethod
    def default_params(cls):
        return {"text_length": 16384, "pattern_length": 6, "seed": 67}

    @classmethod
    def paper_params(cls):
        return {"text_length": 1_073_741_824, "pattern_length": 16, "seed": 67}

    def _make_text(self, n: int, m: int):
        """Random text over a small alphabet, seeded with real matches."""
        import numpy as np

        rng = np.random.default_rng(self.params["seed"])
        text = rng.integers(97, 101, n).astype(np.uint8)  # 'a'..'d'
        pattern = rng.integers(97, 101, m).astype(np.uint8)
        for start in rng.integers(0, n - m, 20):  # plant occurrences
            text[start:start + m] = pattern
        return text, pattern

    def run_pim(self, device: PimDevice, host: HostModel):
        import numpy as np

        n = self.params["text_length"]
        m = self.params["pattern_length"]
        text = pattern = None
        if device.functional:
            text, pattern = self._make_text(n, m)
        obj_text = device.alloc(n, PimDataType.UINT8)
        obj_shift = device.alloc_associated(obj_text)
        obj_hits = device.alloc_associated(obj_text, PimDataType.BOOL)
        obj_match = device.alloc_associated(obj_text, PimDataType.BOOL)
        device.copy_host_to_device(text, obj_text)
        for j in range(m):
            byte = int(pattern[j]) if pattern is not None else 97 + (j % 4)
            device.copy_device_to_device(obj_text, obj_shift, shift_elements=j)
            device.execute(
                PimCmdKind.EQ_SCALAR, (obj_shift,), obj_match, scalar=byte
            )
            if j == 0:
                device.execute(PimCmdKind.COPY, (obj_match,), obj_hits)
            else:
                device.execute(PimCmdKind.AND, (obj_hits, obj_match), obj_hits)
        # Mask the wrap-around tail, then count and fetch the positions.
        tail_valid = None
        if device.functional:
            tail_valid = np.arange(n) <= n - m
        device.copy_host_to_device(tail_valid, obj_match)
        device.execute(PimCmdKind.AND, (obj_hits, obj_match), obj_hits)
        count = device.execute(PimCmdKind.REDSUM, (obj_hits,))
        bitmap = device.copy_device_to_host(obj_hits)
        host.run(KernelProfile(
            "host-bitmap-walk", bytes_accessed=n / 8.0, compute_ops=n / 8.0,
            mem_efficiency=0.8, compute_efficiency=0.3,
        ))
        for obj in (obj_text, obj_shift, obj_hits, obj_match):
            device.free(obj)
        if device.functional:
            positions = np.flatnonzero(bitmap)
            return {
                "text": text, "pattern": pattern,
                "count": count, "positions": positions,
            }
        return None

    def verify(self, outputs) -> bool:
        import numpy as np

        text = outputs["text"].tobytes()
        pattern = outputs["pattern"].tobytes()
        expected = []
        start = text.find(pattern)
        while start != -1:
            expected.append(start)
            start = text.find(pattern, start + 1)
        return (
            outputs["count"] == len(expected)
            and np.array_equal(outputs["positions"], expected)
        )

    def cpu_profile(self) -> KernelProfile:
        n = self.params["text_length"]
        # memmem-style scan: near streaming with per-byte compares.
        return KernelProfile(
            name="cpu-stringmatch",
            bytes_accessed=float(n),
            compute_ops=2.0 * n,
            mem_efficiency=0.8,
            compute_efficiency=0.3,
        )

    def gpu_profile(self) -> KernelProfile:
        n = self.params["text_length"]
        return KernelProfile(
            name="gpu-stringmatch",
            bytes_accessed=float(n),
            compute_ops=2.0 * n,
            mem_efficiency=0.7,
            compute_efficiency=0.2,
        )


def _all_extensions():
    from repro.bench.extensions2 import PcaBenchmark, TransitiveClosureBenchmark

    return (
        PrefixSumBenchmark,
        StringMatchBenchmark,
        TransitiveClosureBenchmark,
        PcaBenchmark,
    )


EXTENSION_BENCHMARKS = _all_extensions()
