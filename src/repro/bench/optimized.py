"""Architecture-optimized benchmark variants (Section IX).

The paper's portability methodology deliberately runs one implementation
everywhere and flags the cost: "the implementation may not fully exploit
architecture-specific optimizations ... architecture-specific PIM API
calls may help".  This module carries the optimized counterparts used to
quantify that remark; each pairs with a Table I benchmark and computes
bit-identical results.
"""

from __future__ import annotations

import typing

from repro.bench.brightness import BrightnessBenchmark
from repro.config.device import PimDataType
from repro.core.commands import PimCmdKind
from repro.host.model import HostModel

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.core.device import PimDevice


class BrightnessFusedBenchmark(BrightnessBenchmark):
    """Brightness via the fused saturating add (one command, not two).

    Halves the bit-serial row traffic relative to the portable
    min-then-add implementation; the baselines and verification are
    inherited unchanged, so results compare apples-to-apples.
    """

    key = "brightness-fused"
    name = "Brightness (fused)"

    def run_pim(self, device: PimDevice, host: HostModel):
        from repro.workloads.images import synthetic_image

        width, height = self.params["width"], self.params["height"]
        delta = self.params["delta"]
        if not 0 <= delta <= 255:
            raise ValueError(f"delta must be a byte value, got {delta}")
        n = width * height * 3
        image = flat = None
        if device.functional:
            image = synthetic_image(width, height, seed=self.params["seed"])
            flat = image.reshape(-1)
        obj = device.alloc(n, PimDataType.UINT8)
        device.copy_host_to_device(flat, obj)
        device.execute(PimCmdKind.SAT_ADD_SCALAR, (obj,), obj, scalar=delta)
        result = device.copy_device_to_host(obj)
        device.free(obj)
        if device.functional:
            return {"image": image, "delta": delta, "result": result}
        return None


class VggChannelBatchedBenchmark:
    """Channel-batched convolution: the architecture-tuned VGG mapping.

    The portable VGG issues one ``pimScaledAdd`` per (output channel,
    input channel, kernel offset) -- millions of commands whose vectors
    under-fill the device in deep layers.  This variant folds the output
    channels into the vector dimension: per (input channel, kernel
    offset) it replicates the patch across the Cout segments (an
    on-device broadcast) and multiplies by a per-segment weight vector
    (each core receives one constant from the command stream, the
    Section V-C broadcast semantics), cutting the command count by Cout.

    Not part of the Table I figures; used by ``optimization_gains`` to
    quantify the portability cost the paper's Section IX discusses.
    """

    def __init__(self, batch: int = 2, image_size: int = 8,
                 conv_plan=None, seed: int = 53) -> None:
        self.batch = batch
        self.image_size = image_size
        self.conv_plan = conv_plan if conv_plan is not None else [4, "M", 8, "M"]
        self.seed = seed

    @classmethod
    def paper_scale(cls) -> "VggChannelBatchedBenchmark":
        from repro.bench.vgg import VGG_CONFIGS

        return cls(batch=64, image_size=224, conv_plan=VGG_CONFIGS[16])

    def run_conv_stack(self, device: PimDevice):
        """Run the convolution stack; returns activations (functional)."""
        import numpy as np

        from repro.bench.vgg import KERNEL_OFFSETS, _shifted_plane

        rng = np.random.default_rng(self.seed)
        size = self.image_size
        cin = 3
        acts = None
        if device.functional:
            rng_in = np.random.default_rng(self.seed + 1)
            acts = rng_in.integers(
                0, 8, size=(cin, self.batch, size, size)
            ).astype(np.int64)
        for entry in self.conv_plan:
            if entry == "M":
                if device.functional:
                    acts = np.max(
                        [acts[:, :, 0::2, 0::2], acts[:, :, 0::2, 1::2],
                         acts[:, :, 1::2, 0::2], acts[:, :, 1::2, 1::2]],
                        axis=0,
                    )
                size //= 2
                continue
            cout = entry
            plane_elems = self.batch * size * size
            total = plane_elems * cout
            weights = rng.integers(-3, 4, size=(cout, cin, 9)).astype(np.int64)
            obj_patch = device.alloc(total)
            obj_weight = device.alloc_associated(obj_patch)
            obj_tmp = device.alloc_associated(obj_patch)
            obj_acc = device.alloc_associated(obj_patch)
            device.execute(PimCmdKind.BROADCAST, (), obj_acc, scalar=0)
            for ci in range(cin):
                for ki, (dy, dx) in enumerate(KERNEL_OFFSETS):
                    patch = wvec = None
                    if device.functional:
                        shifted = _shifted_plane(acts[ci], dy, dx).reshape(-1)
                        patch = np.tile(shifted, cout)
                        wvec = np.repeat(weights[:, ci, ki], plane_elems)
                    # Patch replicated over the Cout segments on-device;
                    # the weight is a per-core constant from the command
                    # stream (charged as its Cout words of traffic).
                    device.model_gather(obj_patch, patch,
                                        num_bytes=plane_elems * 4)
                    device.model_gather(obj_weight, wvec, num_bytes=cout * 4)
                    device.execute(PimCmdKind.MUL, (obj_patch, obj_weight),
                                   obj_tmp)
                    device.execute(PimCmdKind.ADD, (obj_tmp, obj_acc), obj_acc)
            device.execute(PimCmdKind.MAX_SCALAR, (obj_acc,), obj_acc, scalar=0)
            if device.functional:  # the device already applied ReLU
                acts = obj_acc.require_data().astype(np.int64).reshape(
                    cout, self.batch, size, size
                )
            for obj in (obj_patch, obj_weight, obj_tmp, obj_acc):
                device.free(obj)
            cin = cout
        return acts

    def reference_conv_stack(self) -> np.ndarray:
        """Numpy reference of the same stack (same weight stream)."""
        import numpy as np

        from repro.bench.vgg import KERNEL_OFFSETS, _shifted_plane

        rng = np.random.default_rng(self.seed)
        size = self.image_size
        cin = 3
        rng_in = np.random.default_rng(self.seed + 1)
        acts = rng_in.integers(
            0, 8, size=(cin, self.batch, size, size)
        ).astype(np.int64)
        for entry in self.conv_plan:
            if entry == "M":
                acts = np.max(
                    [acts[:, :, 0::2, 0::2], acts[:, :, 0::2, 1::2],
                     acts[:, :, 1::2, 0::2], acts[:, :, 1::2, 1::2]], axis=0,
                )
                size //= 2
                continue
            cout = entry
            weights = rng.integers(-3, 4, size=(cout, cin, 9)).astype(np.int64)
            new = np.zeros((cout, self.batch, size, size), dtype=np.int64)
            for co in range(cout):
                for ci in range(cin):
                    for ki, (dy, dx) in enumerate(KERNEL_OFFSETS):
                        for b in range(self.batch):
                            new[co, b] += weights[co, ci, ki] * _shifted_plane(
                                acts[ci, b][None], dy, dx
                            )[0]
            acts = np.maximum(new, 0)
            cin = cout
        return acts


OPTIMIZED_BENCHMARKS = (BrightnessFusedBenchmark,)


def optimization_gains(
    num_ranks: int = 32, include_vgg: bool = True
) -> "dict[str, dict[str, float]]":
    """Kernel-time gain of each optimized variant over its portable twin.

    Returns ``{variant_key: {device_value: gain}}``.
    """
    from repro.config.presets import PAPER_DEVICE_TYPES, make_device_config
    from repro.core.device import PimDevice

    gains: "dict[str, dict[str, float]]" = {}
    pairs = [(BrightnessFusedBenchmark, BrightnessBenchmark)]
    for optimized_cls, portable_cls in pairs:
        per_device = {}
        for device_type in PAPER_DEVICE_TYPES:
            times = {}
            for cls in (optimized_cls, portable_cls):
                device = PimDevice(
                    make_device_config(device_type, num_ranks),
                    functional=False,
                )
                bench = cls(**cls.paper_params())
                bench.run(device)
                times[cls] = device.stats.kernel_time_ns
            per_device[device_type.value] = (
                times[portable_cls] / times[optimized_cls]
            )
        gains[optimized_cls.key] = per_device

    if not include_vgg:  # the VGG pair simulates six paper-scale runs
        return gains

    # VGG: portable per-output-channel conv stack vs the channel-batched
    # mapping (conv stack only; the dense/pool structure is shared).
    from repro.bench.vgg import Vgg16Benchmark

    per_device = {}
    for device_type in PAPER_DEVICE_TYPES:
        portable = PimDevice(
            make_device_config(device_type, num_ranks), functional=False
        )
        Vgg16Benchmark(**Vgg16Benchmark.paper_params()).run(portable)
        optimized = PimDevice(
            make_device_config(device_type, num_ranks), functional=False,
        )
        VggChannelBatchedBenchmark.paper_scale().run_conv_stack(optimized)
        per_device[device_type.value] = (
            portable.stats.kernel_time_ns / optimized.stats.kernel_time_ns
        )
    gains["vgg-channel-batched"] = per_device
    return gains
