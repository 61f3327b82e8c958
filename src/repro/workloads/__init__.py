"""Synthetic workload generators matching the Table I inputs."""

from repro.workloads.graphs import (
    Graph,
    adjacency_bitmap,
    connected_components,
    count_triangles_reference,
    random_graph,
)
from repro.workloads.images import (
    box_downsample_reference,
    channel_planes,
    synthetic_image,
)
from repro.workloads.points import clustered_points, labeled_points_2d, linear_points
from repro.workloads.tables import FilterWorkload, key_value_table
from repro.workloads.vectors import random_int_matrix, random_int_vector

__all__ = [
    "Graph",
    "adjacency_bitmap",
    "connected_components",
    "count_triangles_reference",
    "random_graph",
    "box_downsample_reference",
    "channel_planes",
    "synthetic_image",
    "clustered_points",
    "labeled_points_2d",
    "linear_points",
    "FilterWorkload",
    "key_value_table",
    "random_int_matrix",
    "random_int_vector",
]
