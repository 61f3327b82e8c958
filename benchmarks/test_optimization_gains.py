"""Section IX: what architecture-specific optimization buys.

Quantifies the paper's stated portability limitation by pairing two
Table I benchmarks with architecture-tuned variants: the fused saturating
add for brightness and the channel-batched convolution mapping for VGG.
"""

from paper_claims import emit

from repro.bench.optimized import optimization_gains


def test_optimization_gains():
    gains = optimization_gains()
    lines = []
    for variant, per_device in gains.items():
        for device, gain in per_device.items():
            lines.append(f"  {variant:<22s} {device:<12s} {gain:8.1f}x")
    emit("Section IX: gains from architecture-specific implementations",
         "\n".join(lines))

    # Brightness: the fused op mostly helps bit-serial (row traffic halves).
    assert gains["brightness-fused"]["bit-serial"] > 1.8
    # VGG: channel batching is transformative everywhere -- the portable
    # mapping is the reason the Table I VGG numbers are "moderate".
    assert gains["vgg-channel-batched"]["bit-serial"] > 20
    assert gains["vgg-channel-batched"]["fulcrum"] > 20
    assert gains["vgg-channel-batched"]["bank-level"] > 5
