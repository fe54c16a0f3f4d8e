"""Relabeling transformations and exact parameters for general connected graphs.

The constructive transformation routes labels home one vertex at a time
along a spanning tree, in leaf elimination order, never touching vertices
already completed; it uses at most n(n-1)/2 flips.  Placing the labels
takes O(n + flips) time and O(n) memory, on top of building the BFS
spanning tree, O(n + m), and its leaf order, O(n log n).  The exact
minimum for small graphs comes from the BFS oracle.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .graph import Graph, prufer_elimination_order, spanning_tree
from .labeling import exact_t_rule, relative_permutation, validate_vertex_labeling
from .oracle import CAPACITY_LIMIT, ConfigurationSpace, bfs_distance, diameter
from .perm import inverse, parity


def _transform_steps(g: Graph, labels: Sequence[int], target: Sequence[int]
                     ) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """Yield (vertex, flips) per placement iteration; shared by the public API.

    Every residual tree holds the last vertex of the elimination order, so
    rooted there, a vertex's parent is its one neighbor eliminated later,
    and a holder-to-v path is found by climbing from whichever end is
    eliminated first until the two ends meet.
    """
    frm = validate_vertex_labeling(g, labels)
    to = validate_vertex_labeling(g, target)
    tree = spanning_tree(g)
    order = prufer_elimination_order(tree)
    rank = inverse(order)
    # the root's entry is never read: no climb passes the last-eliminated vertex
    parent = [max(tree.adjacency[x], key=rank.__getitem__, default=x)
              for x in range(tree.n)]
    cur = list(frm)
    where = list(inverse(frm))
    for v in order[:-1]:
        flips: list[tuple[int, int]] = []
        holder = where[to[v]]
        if holder != v:
            a, b = holder, v
            up, down = [a], [b]
            while a != b:
                if rank[a] < rank[b]:
                    a = parent[a]
                    up.append(a)
                else:
                    b = parent[b]
                    down.append(b)
            path = up + down[-2::-1]
            for a, b in zip(path, path[1:]):
                flips.append((a, b) if a < b else (b, a))
                la, lb = cur[a], cur[b]
                cur[a], cur[b] = lb, la
                where[la], where[lb] = b, a
        yield v, flips
    assert cur == list(to)


def spanning_tree_transform(g: Graph, labels: Sequence[int],
                            target: Sequence[int]) -> list[tuple[int, int]]:
    """A flip sequence from labels to target of length at most n(n-1)/2."""
    flips: list[tuple[int, int]] = []
    for _, step in _transform_steps(g, labels, target):
        flips.extend(step)
    return flips


def distance_upper_bound(g: Graph, mode: str = "vertex") -> int:
    """n(n-1)/2 flips always suffice (m(m-1)/2 for edge labelings)."""
    if mode == "vertex":
        return g.n * (g.n - 1) // 2
    if mode == "edge":
        return g.m * (g.m - 1) // 2
    raise ValueError(f"mode must be 'vertex' or 'edge', got {mode!r}")


def p_g(g: Graph, labels: Sequence[int], target: Sequence[int],
        capacity: int = CAPACITY_LIMIT) -> int:
    """Exact minimum flip count on a small connected graph, by BFS."""
    space = ConfigurationSpace(g, capacity=capacity)
    d = bfs_distance(space, labels, target)
    if d is None:
        raise ValueError("graph is not connected")
    return d


def exact_t_feasible(g: Graph, labels: Sequence[int], target: Sequence[int],
                     t: int, capacity: int = CAPACITY_LIMIT) -> bool:
    """True iff exactly t flips can turn labels into target.

    Feasible exactly when t is at least the BFS distance and of the same
    parity, and a distance of 0 < t finds an edge to flip; the distance
    parity equals the relative permutation's parity.
    """
    d = p_g(g, labels, target, capacity=capacity)
    assert d % 2 == parity(relative_permutation(labels, target))
    return exact_t_rule(d, t, g.m > 0)


def p_g_diameter(g: Graph, capacity: int = CAPACITY_LIMIT) -> int:
    """Largest exact distance between any two labelings of g.

    One BFS from the identity suffices: renaming labels is an automorphism
    of the configuration space, so it is vertex-transitive.
    """
    return diameter(ConfigurationSpace(g, capacity=capacity))
