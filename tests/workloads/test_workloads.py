"""Tests for the workload generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    Graph,
    adjacency_bitmap,
    box_downsample_reference,
    channel_planes,
    clustered_points,
    connected_components,
    count_triangles_reference,
    key_value_table,
    labeled_points_2d,
    linear_points,
    random_graph,
    random_int_matrix,
    random_int_vector,
    synthetic_image,
)


class TestVectors:
    def test_deterministic_by_seed(self):
        assert np.array_equal(
            random_int_vector(100, seed=1), random_int_vector(100, seed=1)
        )
        assert not np.array_equal(
            random_int_vector(100, seed=1), random_int_vector(100, seed=2)
        )

    def test_dtype_and_shape(self):
        v = random_int_vector(50, dtype="int16")
        assert v.shape == (50,)
        assert v.dtype == np.int16

    def test_matrix_shape(self):
        m = random_int_matrix(8, 12)
        assert m.shape == (8, 12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            random_int_vector(0)
        with pytest.raises(ValueError):
            random_int_matrix(0, 5)


class TestGraphs:
    def test_exact_edge_count(self):
        graph = random_graph(50, 120, seed=3)
        assert graph.number_of_edges() == 120

    def test_bitmap_symmetry(self):
        graph = random_graph(40, 100, seed=4)
        bitmap = adjacency_bitmap(graph)
        for u, v in graph.edges():
            assert bitmap[u, v // 32] >> (v % 32) & 1
            assert bitmap[v, u // 32] >> (u % 32) & 1

    def test_bitmap_popcount_equals_degrees(self):
        graph = random_graph(40, 100, seed=5)
        bitmap = adjacency_bitmap(graph)
        total_bits = sum(
            bin(int(word)).count("1") for word in bitmap.reshape(-1)
        )
        assert total_bits == 2 * graph.number_of_edges()

    def test_too_many_edges_rejected(self):
        with pytest.raises(ValueError):
            random_graph(4, 100)

    def test_triangle_reference_on_known_graph(self):
        complete = random_graph(4, 6)  # all pairs: drawn without the RNG
        assert complete.edges() == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        assert count_triangles_reference(complete) == 4

    def test_components_on_known_graph(self):
        graph = Graph(5)
        graph.add_edge(0, 3)
        graph.add_edge(3, 1)
        assert sorted(map(sorted, connected_components(graph))) == [
            [0, 1, 3], [2], [4],
        ]

    def test_self_loops_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3).add_edge(1, 1)


@st.composite
def _gnm_cases(draw):
    n = draw(st.integers(0, 60))
    m = draw(st.integers(0, n * (n - 1) // 2))
    return n, m, draw(st.integers(0, 10**6))


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


class TestNetworkxOracle:
    """G(n, m) draws and the host references equal networkx's."""

    @settings(max_examples=200, deadline=None)
    @given(_gnm_cases())
    def test_edges_equal_gnm_random_graph(self, nx, case):
        n, m, seed = case
        expected = nx.gnm_random_graph(n, m, seed=seed)
        graph = random_graph(n, m, seed=seed)
        assert graph.number_of_nodes() == expected.number_of_nodes()
        assert graph.edges() == sorted(
            (min(u, v), max(u, v)) for u, v in expected.edges()
        )

    @settings(max_examples=100, deadline=None)
    @given(_gnm_cases())
    def test_triangles_and_components_equal_networkx(self, nx, case):
        n, m, seed = case
        expected = nx.gnm_random_graph(n, m, seed=seed)
        graph = random_graph(n, m, seed=seed)
        assert count_triangles_reference(graph) == (
            sum(nx.triangles(expected).values()) // 3
        )
        assert sorted(map(sorted, connected_components(graph))) == sorted(
            map(sorted, nx.connected_components(expected))
        )


class TestImages:
    def test_shape_and_dtype(self):
        image = synthetic_image(16, 12)
        assert image.shape == (12, 16, 3)
        assert image.dtype == np.uint8

    def test_channel_planes(self):
        image = synthetic_image(8, 8)
        planes = channel_planes(image)
        assert len(planes) == 3
        assert np.array_equal(planes[1], image[:, :, 1].reshape(-1))

    def test_box_downsample_reference(self):
        image = np.zeros((2, 2, 3), dtype=np.uint8)
        image[:, :, 0] = [[10, 20], [30, 40]]
        out = box_downsample_reference(image)
        assert out.shape == (1, 1, 3)
        assert out[0, 0, 0] == 25

    def test_downsample_requires_even(self):
        with pytest.raises(ValueError):
            box_downsample_reference(synthetic_image(7, 8))


class TestTables:
    def test_selectivity_approximate(self):
        workload = key_value_table(200_000, selectivity=0.05, seed=6)
        observed = (workload.keys < workload.threshold).mean()
        assert observed == pytest.approx(0.05, abs=0.01)

    def test_invalid_selectivity(self):
        with pytest.raises(ValueError):
            key_value_table(100, selectivity=1.5)


class TestPoints:
    def test_clustered_shapes(self):
        points, labels = clustered_points(1000, 5, seed=7)
        assert points.shape == (1000, 2)
        assert labels.shape == (1000,)
        assert labels.max() < 5

    def test_linear_points_fit_roughly(self):
        x, y = linear_points(5000, slope=3.0, intercept=40.0, seed=8)
        slope = np.polyfit(x.astype(float), y.astype(float), 1)[0]
        assert slope == pytest.approx(3.0, abs=0.1)

    def test_labeled_points(self):
        _, labels = labeled_points_2d(100, 4, seed=9)
        assert set(np.unique(labels)) <= {0, 1, 2, 3}
