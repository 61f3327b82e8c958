"""Benchmark characterization, clustering, and report formatting.

Figure 1's clustering runs on numpy, so its names load on first use
(PEP 562 ``__getattr__``); the text renderers and Figure 8's op mix do
not need it.
"""

from repro.analysis.charts import render_log_bars, render_stacked_bars
from repro.analysis.energy_breakdown import (
    EnergyBreakdown,
    energy_breakdown,
    format_energy_breakdown,
)
from repro.analysis.features import (
    BenchmarkFeatures,
    extract_features,
    feature_matrix,
    op_mix_fractions,
)
from repro.analysis.reporting import (
    format_command_stats,
    format_copy_stats,
    format_hottest_commands,
    format_params,
    format_report,
)

__all__ = [
    "render_log_bars",
    "render_stacked_bars",
    "EnergyBreakdown",
    "energy_breakdown",
    "format_energy_breakdown",
    "DendrogramResult",
    "build_dendrogram",
    "pca",
    "render_text_dendrogram",
    "BenchmarkFeatures",
    "extract_features",
    "feature_matrix",
    "op_mix_fractions",
    "format_command_stats",
    "format_copy_stats",
    "format_hottest_commands",
    "format_params",
    "format_report",
]

_CLUSTERING_NAMES = (
    "DendrogramResult", "build_dendrogram", "pca", "render_text_dendrogram",
)


def __getattr__(name: str):
    if name in _CLUSTERING_NAMES:
        from repro.analysis import clustering

        return getattr(clustering, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
