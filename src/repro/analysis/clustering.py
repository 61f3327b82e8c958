"""PCA plus hierarchical clustering for the Figure 1 dendrogram.

The paper refines the benchmark feature vectors with a combination of PCA
and hierarchical clustering [48] to produce the similarity dendrogram;
this module reproduces that pipeline (Ward linkage, as is standard for
workload-similarity studies) and renders a text dendrogram.

The linkage and the flat ``maxclust`` cut are plain Python over a few
dozen points at most.  They reproduce scipy's
``hierarchy.linkage(..., method="ward")`` and
``hierarchy.fcluster(..., criterion="maxclust")`` bit for bit -- the
same merge order, float64 distances and cluster ids -- so the Figure 1
text and the DSE class tables read as they did when scipy computed
them, without scipy's import cost.  tests/analysis/test_clustering.py
checks both against scipy whenever it is installed.
"""

from __future__ import annotations

import dataclasses
import math

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
        assignment = maxclust(self.linkage, num_clusters)
        return dict(zip(self.labels, assignment))


def _euclidean_distances(points: np.ndarray) -> "list[list[float]]":
    """Full pairwise Euclidean distance matrix as nested lists.

    Each distance is one sequential ``s += d * d`` over the coordinates
    and a correctly rounded square root, the float64 operations of
    scipy's ``pdist(metric="euclidean")``.
    """
    rows = points.tolist()
    n = len(rows)
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        u = rows[i]
        for j in range(i + 1, n):
            s = 0.0
            for a, b in zip(u, rows[j]):
                d = a - b
                s += d * d
            dist[i][j] = dist[j][i] = math.sqrt(s)
    return dist


def _ward_update(d_xi: float, d_yi: float, d_xy: float,
                 size_x: int, size_y: int, size_i: int) -> float:
    """Lance-Williams distance from cluster i to the merge of x and y.

    The operand order is scipy's ``_ward``; it decides the last bits.
    """
    t = 1.0 / (size_x + size_y + size_i)
    return math.sqrt((size_i + size_x) * t * d_xi * d_xi
                     + (size_i + size_y) * t * d_yi * d_yi
                     - size_i * t * d_xy * d_xy)


def ward_linkage(points: np.ndarray) -> np.ndarray:
    """Ward linkage matrix of the rows of ``points``.

    Returns the ``(n - 1, 4)`` float64 matrix scipy's
    ``hierarchy.linkage(points, method="ward")`` returns: rows of
    (cluster id, cluster id, merge distance, merged size), ordered by
    distance, where ids ``>= n`` name the cluster formed by row
    ``id - n``.  Merges follow the nearest-neighbour chain: the chain
    keeps its previous element on distance ties, a strictly smaller
    distance replaces the nearest neighbour, and each merged pair
    is recorded as ``x < y``.  A stable sort by distance and a
    union-find relabelling then give the final ids.
    """
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    if n < 2:
        raise ValueError("Ward linkage needs at least two points")
    dist = _euclidean_distances(points)
    if not all(math.isfinite(d) for row in dist for d in row):
        raise ValueError(
            "The condensed distance matrix must contain only finite values."
        )
    size = [1] * n
    chain: "list[int]" = []
    merges = np.empty((n - 1, 4))
    for k in range(n - 1):
        if not chain:
            chain.append(next(i for i, s in enumerate(size) if s > 0))
        while True:
            x = chain[-1]
            if len(chain) > 1:
                y = chain[-2]
                current = dist[x][y]
            else:
                current = math.inf
            row = dist[x]
            for i in range(n):
                if size[i] == 0 or i == x:
                    continue
                if row[i] < current:
                    current = row[i]
                    y = i
            if len(chain) > 1 and y == chain[-2]:
                break
            chain.append(y)
        del chain[-2:]
        if x > y:
            x, y = y, x
        size_x, size_y = size[x], size[y]
        merges[k] = (x, y, current, size_x + size_y)
        size[x] = 0
        size[y] = size_x + size_y
        for i in range(n):
            size_i = size[i]
            if size_i == 0 or i == y:
                continue
            dist[i][y] = dist[y][i] = _ward_update(
                dist[i][x], dist[i][y], current, size_x, size_y, size_i,
            )
    merges = merges[np.argsort(merges[:, 2], kind="mergesort")]
    _relabel(merges, n)
    return merges


def _relabel(merges: np.ndarray, n: int) -> None:
    """Rewrite distance-sorted merges to sequential cluster ids, in place."""
    parent = list(range(2 * n - 1))
    size = [1] * (2 * n - 1)

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for k, row in enumerate(merges):
        x, y = find(int(row[0])), find(int(row[1]))
        row[0], row[1] = min(x, y), max(x, y)
        parent[x] = parent[y] = n + k
        size[n + k] = size[x] + size[y]
        row[3] = size[n + k]


def maxclust(linkage: np.ndarray, num_clusters: int) -> "list[int]":
    """Flat cluster ids (1-based, in leaf order) of at most ``num_clusters``.

    The ids of scipy's ``hierarchy.fcluster(linkage, num_clusters,
    criterion="maxclust")``: the tree is cut at the smallest merge
    height that leaves at most ``num_clusters`` clusters, and ids are
    handed out by a depth-first walk from the root that enters internal
    children before it numbers leaf children.  ``num_clusters >= n``
    gives every leaf its own id, ``1..n`` in leaf order.
    """
    if num_clusters < 1:
        raise ValueError(f"num_clusters must be >= 1, got {num_clusters!r}")
    rows = [(int(left), int(right), float(height))
            for left, right, height, _ in linkage.tolist()]
    n = len(rows) + 1
    if num_clusters >= n:
        return list(range(1, n + 1))
    # Highest merge inside each subtree; a subtree is one flat cluster
    # when this is at or below the cut.
    top = [0.0] * (n - 1)
    for k, (left, right, height) in enumerate(rows):
        for child in (left, right):
            if child >= n and top[child - n] > height:
                height = top[child - n]
        top[k] = height
    cut = sorted(top)[n - 1 - num_clusters]

    ids = [0] * n
    visited = [False] * (2 * n - 1)
    stack = [2 * n - 2]
    leader = -1
    count = 0
    while stack:
        node = stack[-1] - n
        left, right, _ = rows[node]
        if leader == -1 and top[node] <= cut:
            leader = node
            count += 1
        if left >= n and not visited[left]:
            visited[left] = True
            stack.append(left)
            continue
        if right >= n and not visited[right]:
            visited[right] = True
            stack.append(right)
            continue
        for leaf in (left, right):
            if leaf < n:
                if leader == -1:
                    count += 1
                ids[leaf] = count
        if leader == node:
            leader = -1
        stack.pop()
    return ids


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
    matrix = feature_matrix(features)
    components = pca(matrix, num_components)
    return DendrogramResult(
        labels=tuple(f.name for f in features),
        linkage=ward_linkage(components),
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
