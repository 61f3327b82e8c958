"""Histogram (Table I, Image Processing; modeled after Phoenix).

Computes the distribution of RGB values of a 24-bit bitmap.  To avoid
random access on the PIM side, each color channel is traversed
sequentially for each of the 256 possible values using the equality
operation plus a reduction (Section VIII "Histogram").  The 768 reductions
make reduction the limiting factor -- all PIM variants beat the CPU but
lose to the GPU.
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

NUM_LEVELS = 256
NUM_CHANNELS = 3


class HistogramBenchmark(PimBenchmark):
    key = "histogram"
    name = "Histogram"
    domain = "Image Processing"
    execution_type = "PIM"
    paper_input = "1.4 x 10^9 bytes, 24-bit .bmp"

    @classmethod
    def default_params(cls):
        return {"width": 64, "height": 48, "seed": 29}

    @classmethod
    def paper_params(cls):
        # 1.4e9 bytes of 24-bit pixels ~= 466M pixels per channel.
        return {"width": 24_320, "height": 19_200, "seed": 29}

    def run_pim(self, device: PimDevice, host: HostModel):
        import numpy as np

        from repro.workloads.images import channel_planes, synthetic_image

        width, height = self.params["width"], self.params["height"]
        num_pixels = width * height
        image = planes = None
        if device.functional:
            image = synthetic_image(width, height, seed=self.params["seed"])
            planes = channel_planes(image)
        obj_chan = device.alloc(num_pixels, PimDataType.UINT8)
        obj_mask = device.alloc_associated(obj_chan, PimDataType.BOOL)
        hist = np.zeros((NUM_CHANNELS, NUM_LEVELS), dtype=np.int64)
        def one_channel(channel: int) -> None:
            device.copy_host_to_device(
                planes[channel] if planes is not None else None, obj_chan
            )
            if device.functional:
                for level in range(NUM_LEVELS):
                    device.execute(
                        PimCmdKind.EQ_SCALAR, (obj_chan,), obj_mask, scalar=level
                    )
                    hist[channel, level] = device.execute(
                        PimCmdKind.REDSUM, (obj_mask,)
                    )
            else:
                device.execute(
                    PimCmdKind.EQ_SCALAR, (obj_chan,), obj_mask,
                    scalar=0x55, repeat=NUM_LEVELS,
                )
                device.execute(PimCmdKind.REDSUM, (obj_mask,), repeat=NUM_LEVELS)

        if device.functional:
            for channel in range(NUM_CHANNELS):
                one_channel(channel)
        else:
            # Analytic channels are indistinguishable (same transfer, same
            # two repeated commands), so record channel 0 and replay the
            # other two (docs/PERFORMANCE.md §5).
            with device.stats.recorded_trace() as trace:
                one_channel(0)
            device.stats.replay_trace(trace, times=NUM_CHANNELS - 1)
        device.free(obj_chan)
        device.free(obj_mask)
        if device.functional:
            return {"image": image, "hist": hist}
        return None

    def verify(self, outputs) -> bool:
        import numpy as np

        image = outputs["image"]
        for channel in range(NUM_CHANNELS):
            expected = np.bincount(
                image[:, :, channel].reshape(-1), minlength=NUM_LEVELS
            )
            if not np.array_equal(outputs["hist"][channel], expected):
                return False
        return True

    def cpu_profile(self) -> KernelProfile:
        n = self.params["width"] * self.params["height"] * NUM_CHANNELS
        # Phoenix-style streaming scan with table increments (the increments
        # serialize on cache lines, hence the modest compute efficiency).
        return KernelProfile(
            name="cpu-histogram",
            bytes_accessed=float(n),
            compute_ops=2.0 * n,
            mem_efficiency=0.7,
            compute_efficiency=0.12,
        )

    def gpu_profile(self) -> KernelProfile:
        n = self.params["width"] * self.params["height"] * NUM_CHANNELS
        # CUB histogram: shared-memory privatization keeps it near streaming.
        return KernelProfile(
            name="gpu-histogram",
            bytes_accessed=float(n),
            compute_ops=2.0 * n,
            mem_efficiency=0.7,
            compute_efficiency=0.2,
        )
