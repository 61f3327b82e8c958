"""Ablations of the modeled design choices (DESIGN.md Section 6)."""

from paper_claims import emit

from repro.experiments import (
    alu_clock_sweep,
    bitserial_reduction_strategies,
    digital_vs_analog_bitserial,
    format_ablation,
    fulcrum_simd_width_sweep,
    fused_vs_portable_brightness,
    gdl_width_sweep,
)


def test_gdl_width_ablation():
    points = gdl_width_sweep()
    emit("Ablation: bank-level GDL width (int32 add, 256M)",
         format_ablation(points))
    by_width = {p.value: p.latency_ms for p in points}
    # The narrow GDL is the bank-level bottleneck: widening helps, with
    # diminishing returns as ALU time starts to dominate.
    assert by_width[32] > by_width[128] > by_width[512]
    assert by_width[32] / by_width[128] > 1.5
    assert by_width[128] / by_width[512] < 1.5


def test_alu_clock_ablation():
    points = alu_clock_sweep()
    emit("Ablation: Fulcrum ALU clock (int32 mul, 256M)",
         format_ablation(points))
    by_freq = {p.value: p.latency_ms for p in points}
    # Faster clocks help until row access dominates.
    assert by_freq[82.0] > by_freq[164.0] > by_freq[656.0]
    assert by_freq[82.0] / by_freq[164.0] < 2.0  # sub-linear: rows remain


def test_fulcrum_simd_width_ablation():
    points = fulcrum_simd_width_sweep()
    emit("Ablation: Fulcrum ALU width (int32 add, 256M)",
         format_ablation(points))
    by_width = {p.value: p.latency_ms for p in points}
    # A 64-bit ALU packs two int32 per cycle (Section IX future work).
    assert by_width[64] < by_width[32]
    assert by_width[32] / by_width[64] < 2.1


def test_digital_vs_analog_bitserial():
    points = digital_vs_analog_bitserial()
    emit("Ablation: digital DRAM-AP vs analog TRA bit-serial (256M int32)",
         format_ablation(points))
    by_study = {p.study: p.latency_ms for p in points}
    # Section IV's motivation for digital PIM: the TRA variant pays the
    # copy-into-compute-rows and MAJ-composition overheads on every gate.
    for op in ("add", "mul", "and", "xor"):
        assert by_study[f"bitserial:analog:{op}"] > \
            4 * by_study[f"bitserial:digital:{op}"]


def test_fused_saturating_add():
    points = fused_vs_portable_brightness()
    emit("Ablation: portable min+add vs fused saturating add (brightness)",
         format_ablation(points))
    by_study = {p.study: p.latency_ms for p in points}
    # Section IX: architecture-specific API calls help -- most of all on
    # bit-serial, where the fused microprogram halves the row traffic.
    for variant in ("bit-serial", "fulcrum", "bank-level"):
        assert by_study[f"brightness:{variant}:fused"] < \
            by_study[f"brightness:{variant}:portable"]
    bitserial_gain = (by_study["brightness:bit-serial:portable"]
                      / by_study["brightness:bit-serial:fused"])
    assert bitserial_gain > 1.8


def test_bitserial_reduction_strategy():
    points = bitserial_reduction_strategies()
    emit("Ablation: bit-serial reduction strategy (int32, 256M)",
         format_ablation(points))
    on_pim = next(p for p in points if "popcount" in p.study).latency_ms
    offload = next(p for p in points if "host" in p.study).latency_ms
    # The row-wide popcount hardware is orders of magnitude better than
    # shipping the vector to the host.
    assert offload > 100 * on_pim
