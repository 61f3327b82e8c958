"""Synthetic graphs for the triangle-counting benchmark.

The paper evaluates on a 227,320-node / 1,628,268-edge graph; tests use
small random graphs verified against networkx's triangle count.  The
PIM algorithm operates on a packed adjacency bitmap (one bit per vertex
pair), so this module also provides the bit-packing.
"""

from __future__ import annotations

import math
import typing

import numpy as np

if typing.TYPE_CHECKING:
    import networkx as nx


def random_graph(num_nodes: int, num_edges: int, seed: int = 0) -> nx.Graph:
    """Random simple undirected graph with exactly the requested edges."""
    import networkx as nx

    if num_edges > num_nodes * (num_nodes - 1) // 2:
        raise ValueError("more edges requested than a simple graph allows")
    return nx.gnm_random_graph(num_nodes, num_edges, seed=seed)


def adjacency_bitmap(graph: nx.Graph, word_bits: int = 32) -> np.ndarray:
    """Pack the adjacency matrix into words: shape (n, ceil(n/word_bits)).

    Bit j of word w in row i is set when edge (i, w*word_bits + j) exists.
    """
    n = graph.number_of_nodes()
    words_per_row = math.ceil(n / word_bits)
    bitmap = np.zeros((n, words_per_row), dtype=np.uint32)
    for u, v in graph.edges():
        bitmap[u, v // word_bits] |= np.uint32(1 << (v % word_bits))
        bitmap[v, u // word_bits] |= np.uint32(1 << (u % word_bits))
    return bitmap


def count_triangles_reference(graph: nx.Graph) -> int:
    """Host reference: total triangle count of the graph."""
    import networkx as nx

    return sum(nx.triangles(graph).values()) // 3
