"""Brightness (Table I, Image Processing; modeled after SIMDRAM's).

Adds a coefficient to every RGB byte with saturation: computed as
``min(pixel, 255 - delta) + delta`` so the addition can never wrap,
using the min and add PIM operations the paper describes.  Pure
streaming element-wise work: every PIM variant beats both CPU and GPU,
in time and in energy (Section VIII "Brightness").
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


class BrightnessBenchmark(PimBenchmark):
    key = "brightness"
    name = "Brightness"
    domain = "Image Processing"
    execution_type = "PIM"
    paper_input = "1.4 x 10^9 bytes, 24-bit .bmp"

    @classmethod
    def default_params(cls):
        return {"width": 64, "height": 48, "delta": 40, "seed": 31}

    @classmethod
    def paper_params(cls):
        return {"width": 24_320, "height": 19_200, "delta": 40, "seed": 31}

    def run_pim(self, device: PimDevice, host: HostModel):
        from repro.workloads.images import synthetic_image

        width, height = self.params["width"], self.params["height"]
        delta = self.params["delta"]
        if not 0 <= delta <= 255:
            raise ValueError(f"delta must be a byte value, got {delta}")
        n = width * height * 3
        image = None
        flat = None
        if device.functional:
            image = synthetic_image(width, height, seed=self.params["seed"])
            flat = image.reshape(-1)
        obj = device.alloc(n, PimDataType.UINT8)
        device.copy_host_to_device(flat, obj)
        device.execute(PimCmdKind.MIN_SCALAR, (obj,), obj, scalar=255 - delta)
        device.execute(PimCmdKind.ADD_SCALAR, (obj,), obj, scalar=delta)
        result = device.copy_device_to_host(obj)
        device.free(obj)
        if device.functional:
            return {"image": image, "delta": delta, "result": result}
        return None

    def verify(self, outputs) -> bool:
        import numpy as np

        expected = np.clip(
            outputs["image"].reshape(-1).astype(np.int32) + outputs["delta"],
            0, 255,
        ).astype(np.uint8)
        return np.array_equal(outputs["result"], expected)

    def cpu_profile(self) -> KernelProfile:
        n = self.params["width"] * self.params["height"] * 3
        return KernelProfile(
            name="cpu-brightness",
            bytes_accessed=2.0 * n,
            compute_ops=2.0 * n,
            mem_efficiency=0.85,
        )

    def gpu_profile(self) -> KernelProfile:
        n = self.params["width"] * self.params["height"] * 3
        return KernelProfile(
            name="gpu-brightness",
            bytes_accessed=2.0 * n,
            compute_ops=2.0 * n,
            mem_efficiency=0.85,
        )
