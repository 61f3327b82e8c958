"""Section X: the Conclusions paragraph, computed from the model."""

from paper_claims import emit

from repro.config.device import PimDeviceType
from repro.experiments import compute_conclusions, format_conclusions


def test_conclusions(paper_suite):
    conclusions = compute_conclusions(paper_suite)
    emit("Section X: Conclusions, as measured", format_conclusions(conclusions))

    assert conclusions.best_performance_variant is PimDeviceType.FULCRUM
    assert 4.0 < conclusions.fulcrum_cpu_gmean < 7.0  # paper: ~5.2x
    assert conclusions.fraction_of_gpu_wins < 0.5
    assert conclusions.fulcrum_energy_winners >= 12  # "most benchmarks"
    assert 1.5 < conclusions.fulcrum_energy_gmean_vs_gpu < 2.5
    assert conclusions.bank_energy_gmean_vs_gpu < 1.0
