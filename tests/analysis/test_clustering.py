"""Tests for feature extraction and the Figure 1 dendrogram pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.clustering import (
    build_dendrogram,
    maxclust,
    pca,
    render_text_dendrogram,
    ward_linkage,
)
from repro.analysis.features import (
    BenchmarkFeatures,
    extract_features,
    feature_matrix,
    op_mix_fractions,
)
from repro.bench.registry import make_benchmark
from repro.config.device import PimDeviceType

from tests.conftest import make_device


@pytest.fixture(scope="module")
def two_results():
    device = make_device(PimDeviceType.BITSIMD_V_AP)
    vecadd = make_benchmark("vecadd")
    add_result = vecadd.run(device)
    device2 = make_device(PimDeviceType.BITSIMD_V_AP)
    linreg = make_benchmark("linreg")
    linreg_result = linreg.run(device2)
    return (vecadd, add_result), (linreg, linreg_result)


class TestOpMix:
    def test_fractions_sum_to_one(self, two_results):
        (_, add_result), _ = two_results
        fractions = op_mix_fractions(add_result)
        assert sum(fractions) == pytest.approx(1.0)

    def test_vecadd_is_pure_add(self, two_results):
        from repro.analysis.features import CATEGORY_ORDER
        from repro.core.commands import OpCategory
        (_, add_result), _ = two_results
        fractions = op_mix_fractions(add_result)
        add_index = CATEGORY_ORDER.index(OpCategory.ADD)
        assert fractions[add_index] == pytest.approx(1.0)

    def test_linreg_mixes_mul_and_reduction(self, two_results):
        from repro.core.commands import OpCategory
        _, (_, linreg_result) = two_results
        assert linreg_result.op_counts[OpCategory.MUL] == 2
        assert linreg_result.op_counts[OpCategory.REDUCTION] == 4


class TestFeatures:
    def test_vector_dimension(self, two_results):
        (bench, result), _ = two_results
        features = extract_features(bench, result)
        assert features.dimension == 20  # 15 op categories + 5 extras

    def test_matrix_standardized(self, two_results):
        (b1, r1), (b2, r2) = two_results
        matrix = feature_matrix([
            extract_features(b1, r1), extract_features(b2, r2),
        ])
        assert matrix.shape == (2, 20)
        assert np.allclose(matrix.mean(axis=0), 0.0)


class TestPca:
    def test_projection_shape(self, rng):
        matrix = rng.normal(size=(10, 7))
        assert pca(matrix, 3).shape == (10, 3)

    def test_components_capped_by_rank(self, rng):
        matrix = rng.normal(size=(3, 7))
        assert pca(matrix, 10).shape == (3, 3)


class TestDendrogram:
    def _features(self, rng, names):
        return [
            BenchmarkFeatures(name=name, vector=rng.normal(size=20))
            for name in names
        ]

    def test_merge_count(self, rng):
        result = build_dendrogram(self._features(rng, list("abcdef")))
        assert len(result.merge_order()) == 5

    def test_similar_benchmarks_merge_first(self, rng):
        base = rng.normal(size=20)
        features = [
            BenchmarkFeatures("twin1", base + rng.normal(scale=0.01, size=20)),
            BenchmarkFeatures("twin2", base + rng.normal(scale=0.01, size=20)),
            BenchmarkFeatures("far", base + 50.0),
            BenchmarkFeatures("farther", base - 50.0),
        ]
        result = build_dendrogram(features, num_components=3)
        first_left, first_right, _ = result.merge_order()[0]
        assert first_left | first_right == {"twin1", "twin2"}

    def test_flat_clusters(self, rng):
        result = build_dendrogram(self._features(rng, list("abcd")))
        clusters = result.cluster_of(2)
        assert set(clusters) == {"a", "b", "c", "d"}
        assert len(set(clusters.values())) == 2

    def test_text_rendering(self, rng):
        result = build_dendrogram(self._features(rng, ["x", "y", "z"]))
        text = render_text_dendrogram(result)
        assert "x" in text and "y" in text and "z" in text
        assert "d=" in text

    def test_needs_two(self, rng):
        with pytest.raises(ValueError):
            build_dendrogram(self._features(rng, ["only"]))

    def test_non_finite_points_raise(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                ward_linkage(np.array([[0.0, bad], [1.0, 2.0]]))

    def test_maxclust_needs_one_cluster(self, rng):
        linkage = ward_linkage(rng.normal(size=(4, 2)))
        with pytest.raises(ValueError, match="num_clusters"):
            maxclust(linkage, 0)


@st.composite
def _point_sets(draw):
    """Random point sets; some rounded (distance ties), some duplicated."""
    n = draw(st.integers(2, 29))
    d = draw(st.integers(1, 8))
    scale = 10.0 ** draw(st.integers(-3, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.normal(size=(n, d)) * scale
    if draw(st.booleans()):
        points = np.round(points / scale * 2) * scale / 2
    if draw(st.booleans()):
        points[rng.integers(0, n, size=n // 2)] = points[0]
    return points


@pytest.fixture(scope="module")
def hierarchy():
    return pytest.importorskip("scipy.cluster.hierarchy")


class TestScipyOracle:
    """The linkage and the flat cut bit-equal scipy's (needs scipy)."""

    @settings(max_examples=300, deadline=None)
    @given(_point_sets())
    def test_ward_linkage_bit_equals_scipy(self, hierarchy, points):
        expected = hierarchy.linkage(points, method="ward")
        assert ward_linkage(points).tobytes() == expected.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(_point_sets())
    def test_maxclust_equals_fcluster(self, hierarchy, points):
        linkage = ward_linkage(points)
        for t in range(1, len(points) + 2):
            expected = hierarchy.fcluster(linkage, t, criterion="maxclust")
            assert maxclust(linkage, t) == expected.tolist(), t

    def test_dendrogram_matches_scipy_end_to_end(self, hierarchy, rng):
        features = [
            BenchmarkFeatures(name, rng.normal(size=20)) for name in "abcdefgh"
        ]
        result = build_dendrogram(features)
        expected = hierarchy.linkage(result.principal_components, method="ward")
        assert result.linkage.tobytes() == expected.tobytes()
        for t in range(1, len(features) + 2):
            assert list(result.cluster_of(t).values()) == hierarchy.fcluster(
                expected, t, criterion="maxclust").tolist()
