"""PCA plus hierarchical clustering for the Figure 1 dendrogram.

The paper refines the benchmark feature vectors with a combination of PCA
and hierarchical clustering [48] to produce the similarity dendrogram;
this module reproduces that pipeline with scipy (Ward linkage, as is
standard for workload-similarity studies) and renders a text dendrogram.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.analysis.features import BenchmarkFeatures, feature_matrix


@dataclasses.dataclass(frozen=True)
class DendrogramResult:
    """Linkage matrix plus labels, ready for rendering or plotting."""

    labels: "tuple[str, ...]"
    linkage: np.ndarray
    principal_components: np.ndarray

    def merge_order(self) -> "list[tuple[frozenset, frozenset, float]]":
        """The cluster merges as (left members, right members, distance)."""
        n = len(self.labels)
        clusters: "dict[int, frozenset]" = {
            i: frozenset([self.labels[i]]) for i in range(n)
        }
        merges = []
        for row_index, row in enumerate(self.linkage):
            left, right, distance = int(row[0]), int(row[1]), float(row[2])
            merges.append((clusters[left], clusters[right], distance))
            clusters[n + row_index] = clusters[left] | clusters[right]
        return merges

    def cluster_of(self, num_clusters: int) -> "dict[str, int]":
        """Flat cluster assignment at the level of ``num_clusters``."""
        from scipy.cluster import hierarchy

        assignment = hierarchy.fcluster(
            self.linkage, t=num_clusters, criterion="maxclust"
        )
        return {label: int(c) for label, c in zip(self.labels, assignment)}


def pca(matrix: np.ndarray, num_components: int) -> np.ndarray:
    """Project a standardized matrix onto its top principal components."""
    num_components = min(num_components, *matrix.shape)
    centered = matrix - matrix.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return centered @ vt[:num_components].T

def build_dendrogram(
    features: "list[BenchmarkFeatures]", num_components: int = 6
) -> DendrogramResult:
    """PCA-refine the feature vectors and Ward-link them."""
    if len(features) < 2:
        raise ValueError("need at least two benchmarks to cluster")
    from scipy.cluster import hierarchy

    matrix = feature_matrix(features)
    components = pca(matrix, num_components)
    linkage = hierarchy.linkage(components, method="ward")
    return DendrogramResult(
        labels=tuple(f.name for f in features),
        linkage=linkage,
        principal_components=components,
    )


def render_text_dendrogram(result: DendrogramResult) -> str:
    """ASCII rendering of the merge order (closest pairs first)."""
    lines = ["Benchmark similarity dendrogram (Ward linkage distance):"]
    for left, right, distance in result.merge_order():
        left_label = " + ".join(sorted(left))
        right_label = " + ".join(sorted(right))
        lines.append(f"  d={distance:8.3f}: [{left_label}] <-> [{right_label}]")
    return "\n".join(lines)
