"""VGG-13/16/19 inference (Table I, Neural Network).

The network is decomposed into per-layer kernels (Section VIII "VGG"):

* convolution -- lowered to accumulation over the 3x3 neighborhood: the
  host builds shifted patch vectors (im2col, a strided re-layout), the
  device accumulates ``pimScaledAdd`` per (output channel, input channel,
  kernel offset); aggregation and padding run on the host,
* ReLU        -- ``max_scalar(0)`` on the device,
* max-pooling -- four host-restrided quadrant vectors reduced with three
  ``max`` commands,
* dense       -- per-output-neuron scaled-add accumulation,
* softmax     -- on the host (floating point, unsupported on PIM).

Images are processed in batches to maximize parallelism.  The frequent
host re-layout between layers bottlenecks PIM execution, yielding
moderate speedups over the CPU while the GPU remains far ahead.

Functional runs use a scaled-down network verified against a numpy
forward pass; paper-scale runs use the real VGG configurations with the
command trace collapsed through ``repeat``.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.baselines.roofline import KernelProfile
from repro.bench.common import PimBenchmark
from repro.core.commands import PimCmdKind
from repro.host.model import HostModel

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.core.device import PimDevice

#: Convolution plans (output channels per 3x3 layer; 'M' = 2x2 max-pool).
VGG_CONFIGS: "dict[int, list]" = {
    13: [64, 64, "M", 128, 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"],
    16: [64, 64, "M", 128, 128, "M", 256, 256, 256, "M", 512, 512, 512, "M",
         512, 512, 512, "M"],
    19: [64, 64, "M", 128, 128, "M", 256, 256, 256, 256, "M",
         512, 512, 512, 512, "M", 512, 512, 512, 512, "M"],
}
VGG_DENSE = [4096, 4096, 1000]

#: Representative weight for analytic-mode microprogram costing.
REPRESENTATIVE_WEIGHT = 0x55

KERNEL_OFFSETS = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]


@dataclasses.dataclass
class _Shape:
    """Spatial state flowing through the network."""

    batch: int
    size: int  # square feature maps
    channels: int

    @property
    def plane_elems(self) -> int:
        return self.batch * self.size * self.size


def _shifted_plane(plane: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Zero-padded shift of a (batch, s, s) activation plane."""
    import numpy as np

    out = np.zeros_like(plane)
    s = plane.shape[1]
    ys = slice(max(0, -dy), min(s, s - dy))
    xs = slice(max(0, -dx), min(s, s - dx))
    out[:, ys, xs] = plane[:, max(0, dy): min(s, s + dy),
                           max(0, dx): min(s, s + dx)]
    return out


class VggBenchmark(PimBenchmark):
    key = "vgg-16"
    name = "VGG-16"
    domain = "Neural Network"
    execution_type = "PIM + Host"
    depth = 16

    paper_input = "64, 224x224x3 images and 3x3 weights"

    @classmethod
    def default_params(cls):
        return {
            "batch": 2,
            "image_size": 8,
            "conv_plan": [4, "M", 8, "M"],
            "dense_plan": [10],
            "seed": 53,
        }

    @classmethod
    def paper_params(cls):
        return {
            "batch": 64,
            "image_size": 224,
            "conv_plan": VGG_CONFIGS[cls.depth],
            "dense_plan": VGG_DENSE,
            "seed": 53,
        }

    # -- host-side weight/input generation -------------------------------------

    def _make_weights(self, conv_plan, dense_plan, in_channels, features):
        import numpy as np

        rng = np.random.default_rng(self.params["seed"])
        conv_weights = []
        cin = in_channels
        for entry in conv_plan:
            if entry == "M":
                conv_weights.append(None)
                continue
            conv_weights.append(
                rng.integers(-3, 4, size=(entry, cin, 9)).astype(np.int32)
            )
            cin = entry
        dense_weights = []
        fin = features
        for fout in dense_plan:
            dense_weights.append(
                rng.integers(-3, 4, size=(fout, fin)).astype(np.int32)
            )
            fin = fout
        return conv_weights, dense_weights

    # -- PIM execution ----------------------------------------------------

    def run_pim(self, device: PimDevice, host: HostModel):
        import numpy as np

        batch = self.params["batch"]
        size = self.params["image_size"]
        conv_plan = list(self.params["conv_plan"])
        dense_plan = list(self.params["dense_plan"])
        shape = _Shape(batch=batch, size=size, channels=3)

        activations = None
        conv_weights = dense_weights = None
        if device.functional:
            rng = np.random.default_rng(self.params["seed"] + 1)
            activations = rng.integers(
                0, 8, size=(3, batch, size, size)
            ).astype(np.int32)
        # Pre-compute the feature count after the conv stack for weights.
        pools = conv_plan.count("M")
        final_channels = next(
            entry for entry in reversed(conv_plan) if entry != "M"
        )
        final_size = size >> pools
        features = final_channels * final_size * final_size
        conv_weights = dense_weights = None
        if device.functional:  # analytic mode never touches weight values
            conv_weights, dense_weights = self._make_weights(
                conv_plan, dense_plan, 3, features
            )

        for idx, entry in enumerate(conv_plan):
            if entry == "M":
                activations = self._max_pool(device, host, shape, activations)
                shape.size //= 2
            else:
                activations = self._conv_layer(
                    device, host, shape, activations,
                    conv_weights[idx] if conv_weights else None, entry,
                )
                shape.channels = entry

        # Flatten: (channels, batch, s, s) -> per-feature batch vectors.
        if device.functional:
            flat = activations.transpose(0, 2, 3, 1).reshape(features, batch)
        else:
            flat = None
        host.run(self._relayout_profile(features * batch))

        logits = flat
        fin = features
        for li, fout in enumerate(dense_plan):
            logits = self._dense_layer(
                device, host, batch, fin, fout, logits,
                dense_weights[li] if dense_weights else None,
            )
            fin = fout
        # Softmax on the host (floating point).
        host.run(KernelProfile(
            "host-softmax", bytes_accessed=8.0 * batch * fin,
            compute_ops=4.0 * batch * fin, compute_efficiency=0.2,
        ))
        if device.functional:
            return {"logits": logits}
        return None

    def _relayout_profile(self, elems: float) -> KernelProfile:
        return KernelProfile(
            name="host-relayout",
            bytes_accessed=8.0 * elems,
            compute_ops=float(elems),
            mem_efficiency=0.3,  # strided gather/scatter
        )

    def _conv_layer(self, device, host, shape, activations, weights, cout):
        import numpy as np

        cin = shape.channels
        elems = shape.plane_elems
        # Host im2col: build the 9 shifted patch vectors per input channel.
        host.run(self._relayout_profile(float(elems) * cin * 9))
        if device.functional:
            # Stream one patch vector at a time; hold one accumulator per
            # output channel (bounded row footprint on bit-serial devices).
            obj_patch = device.alloc(elems)
            acc_objs = [device.alloc_associated(obj_patch) for _ in range(cout)]
            for obj in acc_objs:
                device.execute(PimCmdKind.BROADCAST, (), obj, scalar=0)
            for ci in range(cin):
                for ki, (dy, dx) in enumerate(KERNEL_OFFSETS):
                    device.copy_host_to_device(
                        _shifted_plane(activations[ci], dy, dx).reshape(-1),
                        obj_patch,
                    )
                    for co in range(cout):
                        device.execute(
                            PimCmdKind.SCALED_ADD, (obj_patch, acc_objs[co]),
                            acc_objs[co], scalar=int(weights[co, ci, ki]),
                        )
            outputs = np.zeros((cout, shape.batch, shape.size, shape.size),
                               dtype=np.int32)
            for co in range(cout):
                device.execute(PimCmdKind.MAX_SCALAR, (acc_objs[co],),
                               acc_objs[co], scalar=0)
                outputs[co] = device.copy_device_to_host(acc_objs[co]).reshape(
                    shape.batch, shape.size, shape.size
                )
            for obj in [obj_patch] + acc_objs:
                device.free(obj)
            return outputs
        obj_patch = device.alloc(elems)
        obj_acc = device.alloc(elems)
        device.copy_host_to_device(None, obj_patch, repeat=cin * 9)
        device.execute(PimCmdKind.BROADCAST, (), obj_acc, scalar=0, repeat=cout)
        device.execute(
            PimCmdKind.SCALED_ADD, (obj_patch, obj_acc), obj_acc,
            scalar=REPRESENTATIVE_WEIGHT, repeat=cout * cin * 9,
        )
        device.execute(PimCmdKind.MAX_SCALAR, (obj_acc,), obj_acc,
                       scalar=0, repeat=cout)
        device.copy_device_to_host(obj_acc, repeat=cout)
        device.free(obj_patch)
        device.free(obj_acc)
        return None

    def _max_pool(self, device, host, shape, activations):
        import numpy as np

        out_elems = shape.batch * (shape.size // 2) ** 2
        host.run(self._relayout_profile(float(out_elems) * 4 * shape.channels))
        if device.functional:
            outputs = np.zeros(
                (shape.channels, shape.batch, shape.size // 2, shape.size // 2),
                dtype=np.int32,
            )
            quads = [device.alloc(out_elems) for _ in range(4)]
            obj_max = device.alloc(out_elems)
            for ci in range(shape.channels):
                plane = activations[ci]
                quad_data = [
                    plane[:, 0::2, 0::2], plane[:, 0::2, 1::2],
                    plane[:, 1::2, 0::2], plane[:, 1::2, 1::2],
                ]
                for obj, data in zip(quads, quad_data):
                    device.copy_host_to_device(data.reshape(-1), obj)
                device.execute(PimCmdKind.MAX, (quads[0], quads[1]), obj_max)
                device.execute(PimCmdKind.MAX, (obj_max, quads[2]), obj_max)
                device.execute(PimCmdKind.MAX, (obj_max, quads[3]), obj_max)
                outputs[ci] = device.copy_device_to_host(obj_max).reshape(
                    shape.batch, shape.size // 2, shape.size // 2
                )
            for obj in quads + [obj_max]:
                device.free(obj)
            return outputs
        obj_quad = device.alloc(out_elems)
        obj_max = device.alloc_associated(obj_quad)
        device.copy_host_to_device(None, obj_quad, repeat=4 * shape.channels)
        device.execute(PimCmdKind.MAX, (obj_quad, obj_max), obj_max,
                       repeat=3 * shape.channels)
        device.copy_device_to_host(obj_max, repeat=shape.channels)
        device.free(obj_quad)
        device.free(obj_max)
        return None

    def _dense_layer(self, device, host, batch, fin, fout, flat, weights):
        """Fully-connected layer, parallel over output neurons.

        The fout-element weight column of each input feature is streamed
        once; each image accumulates it scaled by its activation, so the
        vector width is fout (thousands) rather than the small batch.
        """
        import numpy as np

        if device.functional:
            obj_wcol = device.alloc(fout)
            acc_objs = [device.alloc_associated(obj_wcol) for _ in range(batch)]
            for obj in acc_objs:
                device.execute(PimCmdKind.BROADCAST, (), obj, scalar=0)
            for f in range(fin):
                device.copy_host_to_device(weights[:, f], obj_wcol)
                for img in range(batch):
                    device.execute(
                        PimCmdKind.SCALED_ADD, (obj_wcol, acc_objs[img]),
                        acc_objs[img], scalar=int(flat[f, img]),
                    )
            out = np.zeros((fout, batch), dtype=np.int32)
            for img in range(batch):
                out[:, img] = device.copy_device_to_host(acc_objs[img])
            for obj in [obj_wcol] + acc_objs:
                device.free(obj)
            return out
        obj_wcol = device.alloc(fout)
        obj_acc = device.alloc_associated(obj_wcol)
        device.copy_host_to_device(None, obj_wcol, repeat=fin)
        device.execute(PimCmdKind.BROADCAST, (), obj_acc, scalar=0, repeat=batch)
        device.execute(
            PimCmdKind.SCALED_ADD, (obj_wcol, obj_acc), obj_acc,
            scalar=REPRESENTATIVE_WEIGHT, repeat=fin * batch,
        )
        device.copy_device_to_host(obj_acc, repeat=batch)
        device.free(obj_wcol)
        device.free(obj_acc)
        return None

    # -- verification --------------------------------------------------------

    def verify(self, outputs) -> bool:
        import numpy as np

        batch = self.params["batch"]
        size = self.params["image_size"]
        rng = np.random.default_rng(self.params["seed"] + 1)
        acts = rng.integers(0, 8, size=(3, batch, size, size)).astype(np.int64)
        pools = list(self.params["conv_plan"]).count("M")
        final_channels = next(
            e for e in reversed(self.params["conv_plan"]) if e != "M"
        )
        final_size = size >> pools
        features = final_channels * final_size * final_size
        conv_weights, dense_weights = self._make_weights(
            self.params["conv_plan"], self.params["dense_plan"], 3, features
        )
        for idx, entry in enumerate(self.params["conv_plan"]):
            if entry == "M":
                c, b, s, _ = acts.shape
                acts = np.max(
                    [acts[:, :, 0::2, 0::2], acts[:, :, 0::2, 1::2],
                     acts[:, :, 1::2, 0::2], acts[:, :, 1::2, 1::2]], axis=0,
                )
            else:
                w = conv_weights[idx].astype(np.int64)
                cout = w.shape[0]
                new = np.zeros((cout,) + acts.shape[1:], dtype=np.int64)
                for co in range(cout):
                    for ci in range(acts.shape[0]):
                        for ki, (dy, dx) in enumerate(KERNEL_OFFSETS):
                            new[co] += w[co, ci, ki] * np.stack(
                                [_shifted_plane(acts[ci, bb][None], dy, dx)[0]
                                 for bb in range(acts.shape[1])]
                            )
                acts = np.maximum(new, 0)
        flat = acts.transpose(0, 2, 3, 1).reshape(features, batch)
        logits = flat
        for w in dense_weights:
            logits = w.astype(np.int64) @ logits
        return np.array_equal(outputs["logits"].astype(np.int64), logits)

    # -- baseline profiles ------------------------------------------------------

    def _total_flops(self) -> float:
        batch = self.params["batch"]
        size = self.params["image_size"]
        flops = 0.0
        cin = 3
        s = size
        for entry in self.params["conv_plan"]:
            if entry == "M":
                s //= 2
                continue
            flops += 2.0 * batch * s * s * cin * entry * 9
            cin = entry
        fin = cin * s * s
        for fout in self.params["dense_plan"]:
            flops += 2.0 * batch * fin * fout
            fin = fout
        return flops

    def cpu_profile(self) -> KernelProfile:
        # PyTorch CPU conv: far below peak (im2col materialization, memory-
        # bound early layers, framework overhead).
        return KernelProfile(
            name=f"cpu-{self.key}",
            bytes_accessed=self._total_flops() / 4.0,
            compute_ops=self._total_flops(),
            mem_efficiency=0.6,
            compute_efficiency=0.08,
        )

    def gpu_profile(self) -> KernelProfile:
        return KernelProfile(
            name=f"gpu-{self.key}",
            bytes_accessed=self._total_flops() / 16.0,
            compute_ops=self._total_flops(),
            mem_efficiency=0.6,
            compute_efficiency=0.35,
        )


class Vgg13Benchmark(VggBenchmark):
    key = "vgg-13"
    name = "VGG-13"
    depth = 13


class Vgg16Benchmark(VggBenchmark):
    key = "vgg-16"
    name = "VGG-16"
    depth = 16


class Vgg19Benchmark(VggBenchmark):
    key = "vgg-19"
    name = "VGG-19"
    depth = 19
