"""Benchmark characterization features for the diversity analysis.

Figure 1's dendrogram quantifies benchmark similarity from the instruction
mix, memory access pattern, execution type, and arithmetic intensity of
each application; those are exactly the features extracted here from a
benchmark's metadata plus one measured run.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.core.commands import OpCategory

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.bench.common import BenchmarkResult, PimBenchmark

#: Fixed feature order for the op-mix block.
CATEGORY_ORDER = tuple(OpCategory)


@dataclasses.dataclass(frozen=True)
class BenchmarkFeatures:
    """One benchmark's feature vector plus its label."""

    name: str
    vector: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.vector)


def op_mix_fractions(result: BenchmarkResult) -> "tuple[float, ...]":
    """Per-category fraction of PIM operations issued (Figure 8 rows).

    Integer counts over their exact integer sum: each quotient is the
    correctly rounded double, so no numpy is needed to render Figure 8.
    """
    counts = [result.op_counts.get(cat, 0) for cat in CATEGORY_ORDER]
    total = sum(counts)
    if total == 0:
        return tuple(0.0 for _ in counts)
    return tuple(count / total for count in counts)


def extract_features(
    benchmark: PimBenchmark, result: BenchmarkResult
) -> BenchmarkFeatures:
    """Build the Figure 1 feature vector for one benchmark.

    Features: the 15 op-mix fractions, sequential/random access flags, the
    PIM+Host execution flag, log arithmetic intensity (baseline ops per
    byte), and the host-time fraction of the run.
    """
    import numpy as np

    mix = op_mix_fractions(result)
    profile = benchmark.cpu_profile()
    intensity = profile.compute_ops / max(1.0, profile.bytes_accessed)
    total_time = max(result.stats.total_time_ns, 1.0)
    host_fraction = result.stats.host_time_ns / total_time
    extras = np.array([
        1.0 if benchmark.sequential_access else 0.0,
        1.0 if benchmark.random_access else 0.0,
        1.0 if "Host" in benchmark.execution_type else 0.0,
        math.log10(max(intensity, 1e-3)),
        host_fraction,
    ])
    return BenchmarkFeatures(
        name=benchmark.name, vector=np.concatenate([mix, extras])
    )


def feature_matrix(features: "list[BenchmarkFeatures]") -> np.ndarray:
    """Stack feature vectors into a standardized (n, d) matrix."""
    import numpy as np

    if not features:
        raise ValueError("no features supplied")
    matrix = np.stack([f.vector for f in features])
    std = matrix.std(axis=0)
    std[std == 0] = 1.0
    return (matrix - matrix.mean(axis=0)) / std
