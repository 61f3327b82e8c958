"""Synthetic graphs for the triangle-counting benchmark.

The paper evaluates on a 227,320-node / 1,628,268-edge graph; tests use
small random graphs.  ``random_graph`` draws the same G(n, m) graph as
networkx's ``gnm_random_graph`` for the same seed, and the host
references (triangle count, connected components) are plain Python;
tests/workloads checks all three against networkx whenever it is
installed.  The PIM algorithm operates on a packed adjacency bitmap
(one bit per vertex pair), so this module also provides the bit-packing.
"""

from __future__ import annotations

import math
import random

import numpy as np


class Graph:
    """Simple undirected graph on the nodes ``0 .. num_nodes - 1``."""

    __slots__ = ("_adjacency", "_num_edges")

    def __init__(self, num_nodes: int) -> None:
        self._adjacency: "list[set[int]]" = [set() for _ in range(num_nodes)]
        self._num_edges = 0

    def number_of_nodes(self) -> int:
        return len(self._adjacency)

    def number_of_edges(self) -> int:
        return self._num_edges

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"self-loop on node {u} in a simple graph")
        if v not in self._adjacency[u]:
            self._adjacency[u].add(v)
            self._adjacency[v].add(u)
            self._num_edges += 1

    def neighbors(self, u: int) -> "frozenset[int]":
        return frozenset(self._adjacency[u])

    def edges(self) -> "list[tuple[int, int]]":
        """Every edge once, as sorted ``(min, max)`` node pairs."""
        return [
            (u, v)
            for u, adjacent in enumerate(self._adjacency)
            for v in sorted(adjacent)
            if u < v
        ]


def random_graph(num_nodes: int, num_edges: int, seed: int = 0) -> Graph:
    """Random simple undirected graph with exactly the requested edges.

    The G(n, m) draw of networkx's ``gnm_random_graph(n, m, seed)``:
    each try picks two nodes with ``random.Random(seed).choice`` and is
    rejected on a self-loop or an existing edge.  As many edges as a
    simple graph allows (always the case for a single node) short-cuts
    to the complete graph without drawing.
    """
    max_edges = num_nodes * (num_nodes - 1) // 2
    if num_edges > max_edges:
        raise ValueError("more edges requested than a simple graph allows")
    graph = Graph(num_nodes)
    if num_edges == max_edges:
        for u in range(num_nodes):
            for v in range(u + 1, num_nodes):
                graph.add_edge(u, v)
        return graph
    rng = random.Random(seed)
    nodes = list(range(num_nodes))
    while graph.number_of_edges() < num_edges:
        u = rng.choice(nodes)
        v = rng.choice(nodes)
        if u != v:
            graph.add_edge(u, v)  # a no-op when the edge exists
    return graph


def adjacency_bitmap(graph: Graph, word_bits: int = 32) -> np.ndarray:
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


def count_triangles_reference(graph: Graph) -> int:
    """Host reference: total triangle count of the graph."""
    # Each triangle u < v < w is counted once, at its edge (u, v).
    return sum(
        sum(1 for w in graph.neighbors(u) & graph.neighbors(v) if w > v)
        for u, v in graph.edges()
    )


def connected_components(graph: Graph) -> "list[frozenset[int]]":
    """Host reference: the node sets of the connected components."""
    seen: "set[int]" = set()
    components = []
    for start in range(graph.number_of_nodes()):
        if start in seen:
            continue
        seen.add(start)
        component = [start]
        for node in component:  # breadth-first: the list grows as it is read
            for neighbor in graph.neighbors(node) - seen:
                seen.add(neighbor)
                component.append(neighbor)
        components.append(frozenset(component))
    return components
