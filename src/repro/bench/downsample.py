"""Image Down Sampling (Table I, Image Processing).

Box filtering for uncompressed bitmaps: every output pixel is the average
of a 2x2 input box, computed with three additions and a right shift by two
(Section VIII "Image Downsampling").  The host restrides each channel into
four quadrant vectors (top-left/top-right/bottom-left/bottom-right of each
box) that are streamed to the device as 16-bit elements so the 4-way sum
cannot overflow.  All three PIM variants beat both baselines.
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


class DownsampleBenchmark(PimBenchmark):
    key = "downsample"
    name = "Image Down Sampling"
    domain = "Image Processing"
    execution_type = "PIM"
    paper_input = "1.4 x 10^9 bytes, 24-bit .bmp"

    @classmethod
    def default_params(cls):
        return {"width": 64, "height": 48, "seed": 37}

    @classmethod
    def paper_params(cls):
        return {"width": 24_320, "height": 19_200, "seed": 37}

    def run_pim(self, device: PimDevice, host: HostModel):
        import numpy as np

        from repro.workloads.images import synthetic_image

        width, height = self.params["width"], self.params["height"]
        if width % 2 or height % 2:
            raise ValueError("box downsampling requires even dimensions")
        num_pixels = width * height
        out_pixels = (width // 2) * (height // 2)
        image = None
        if device.functional:
            image = synthetic_image(width, height, seed=self.params["seed"])
        obj_plane = device.alloc(num_pixels, PimDataType.INT16)
        obj_shift = device.alloc_associated(obj_plane)
        obj_sum = device.alloc_associated(obj_plane)
        obj_out = device.alloc(out_pixels, PimDataType.INT16)
        outputs = []
        for channel in range(3):
            plane = None
            if device.functional:
                plane = image[:, :, channel].astype(np.int16).reshape(-1)
            device.copy_host_to_device(plane, obj_plane)
            # Horizontal pair sum: plane + plane shifted left by one pixel,
            # then vertical pair sum via a one-row shift -- both shifts are
            # local in-subarray row copies.
            device.copy_device_to_device(obj_plane, obj_shift, shift_elements=1)
            device.execute(PimCmdKind.ADD, (obj_plane, obj_shift), obj_sum)
            device.copy_device_to_device(obj_sum, obj_shift, shift_elements=width)
            device.execute(PimCmdKind.ADD, (obj_sum, obj_shift), obj_sum)
            device.execute(PimCmdKind.SHIFT_RIGHT, (obj_sum,), obj_sum, scalar=2)
            # Compact the even-position results into the output object
            # (a strided on-device gather), then return it to the host.
            gathered = None
            if device.functional:
                full = obj_sum.require_data().reshape(height, width)
                gathered = full[0::2, 0::2].reshape(-1)
            device.model_gather(obj_out, gathered)
            outputs.append(device.copy_device_to_host(obj_out))
        for obj in (obj_plane, obj_shift, obj_sum, obj_out):
            device.free(obj)
        if device.functional:
            out = np.stack(
                [o.reshape(height // 2, width // 2) for o in outputs], axis=2
            ).astype(np.uint8)
            return {"image": image, "result": out}
        return None

    def verify(self, outputs) -> bool:
        import numpy as np

        from repro.workloads.images import box_downsample_reference

        expected = box_downsample_reference(outputs["image"])
        return np.array_equal(outputs["result"], expected)

    def cpu_profile(self) -> KernelProfile:
        n = self.params["width"] * self.params["height"] * 3
        return KernelProfile(
            name="cpu-downsample",
            bytes_accessed=1.25 * n,
            compute_ops=float(n),
            mem_efficiency=0.5,  # 2x2 box reads are stride-2
        )

    def gpu_profile(self) -> KernelProfile:
        n = self.params["width"] * self.params["height"] * 3
        return KernelProfile(
            name="gpu-downsample",
            bytes_accessed=1.25 * n,
            compute_ops=float(n),
            mem_efficiency=0.5,
        )
