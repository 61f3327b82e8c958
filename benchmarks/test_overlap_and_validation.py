"""Overlap-potential analysis and the executable validation anchors."""

from paper_claims import emit

from repro.config.device import PimDeviceType
from repro.experiments import format_overlap_table, overlap_table
from repro.validation import format_anchor_table, validation_anchors


def test_validation_anchors():
    anchors = validation_anchors()
    emit("Model validation: published anchors vs this model",
         format_anchor_table(anchors))
    assert all(anchor.within_tolerance for anchor in anchors)


def test_overlap_potential(paper_suite):
    rows = overlap_table(paper_suite)
    emit("Copy/compute overlap potential (perfect double buffering)",
         format_overlap_table(rows))

    def gain(name, device_type):
        return next(r.overlap_gain for r in rows
                    if r.benchmark == name and r.device_type is device_type)

    # Balanced copy/compute benchmarks recover up to ~2x from a smarter
    # runtime (bit-serial GEMM splits ~47/53 between streaming operands
    # and multiplying); copy-dominated ones recover almost nothing.
    assert gain("GEMM", PimDeviceType.BITSIMD_V_AP) > 1.5
    assert gain("Vector Addition", PimDeviceType.BITSIMD_V_AP) < 1.05
    assert all(r.overlap_gain >= 1.0 for r in rows)
