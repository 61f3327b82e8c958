"""Channel-sharing correction: the deferred DRAMsim3 refinement."""

from paper_claims import emit

from repro.experiments import channel_sensitivity, format_channel_table


def test_channel_sharing_correction():
    points = channel_sensitivity()
    emit("Channel sharing: kernel+DM speedup vs channel cap (bit-serial)",
         format_channel_table(points))

    def speedup(name, channels):
        return next(p.speedup_cpu_total for p in points
                    if p.benchmark == name and p.num_channels == channels)

    # Section V-C's warning, quantified: the rank-independent default
    # gives the streaming benchmarks their ~2-3x with-DM wins; capping at
    # the EPYC's 12 channels erases them.
    for name in ("Vector Addition", "AXPY"):
        assert speedup(name, None) > 1.5
        assert speedup(name, 12) < 1.0
