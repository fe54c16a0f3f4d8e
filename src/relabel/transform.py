"""Relabeling transformations, exact parameters, and the one distance dispatcher.

The constructive transformation routes labels home one vertex at a time
along a spanning tree, in leaf elimination order, never touching vertices
already completed; it uses at most n(n-1)/2 flips.  The route from the
label's holder to its home is the one tree path between them, found by
climbing the tree rooted once at vertex 0.  Placing the labels takes
O(n + flips) time and O(n) memory, on top of building the BFS spanning
tree, O(n + m), and its leaf order, O(n log n).  Each flip is its tree
edge's one shared tuple, so a sequence costs 8 bytes a flip, and the
tree-bound distance only sums step lengths.  The exact minimum for small
graphs comes from the BFS oracle.

``distance`` is the only place that chooses how a distance query is
answered: the path and star closed forms, the BFS oracle within its
capacity, or the length of the constructive sequence as an upper bound.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .exact_path import path_distance
from .exact_star import star_distance
from .graph import (
    Graph,
    _Rooted,
    is_connected,
    is_path,
    is_tree,
    path_vertex_order,
    prufer_elimination_order,
    spanning_tree,
)
from .labeling import validate_vertex_labeling
from .oracle import CAPACITY_LIMIT, CapacityError, ConfigurationSpace, bfs_distance
from .perm import inverse

METHODS = ("auto", "path", "star", "bfs", "tree-bound")


def _transform_steps(g: Graph, labels: Sequence[int], target: Sequence[int]
                     ) -> Iterator[tuple[int, list[tuple[int, int]]]]:
    """Yield (vertex, flips) per placement iteration; shared by the public API.

    Each residual tree is a subtree holding both the label's holder and
    v, so the holder-to-v path in it is the whole tree's one path between
    them.  The flip across a tree edge is that edge's own tuple in
    tree.edges, shared by every step that crosses it; the label bound for
    v moves by one rotation of the labels along the path.
    """
    frm = validate_vertex_labeling(g, labels)
    to = validate_vertex_labeling(g, target)
    if not g.n:
        return  # nothing to place; the empty graph has no spanning tree to eliminate
    tree = spanning_tree(g)
    order = prufer_elimination_order(tree)
    rt = _Rooted(tree)
    cur = list(frm)
    where = list(inverse(frm))
    for v in order[:-1]:
        path, flips = rt.path(where[to[v]], v)
        # the holder's label moves to v and every other label on the path
        # one vertex back
        for x, label in zip(path, [cur[x] for x in path[1:]] + [to[v]]):
            cur[x] = label
            where[label] = x
        yield v, flips
    assert cur == list(to)


def spanning_tree_transform(g: Graph, labels: Sequence[int],
                            target: Sequence[int]) -> list[tuple[int, int]]:
    """A flip sequence from labels to target of length at most n(n-1)/2.

    Each flip is the spanning tree's own edge tuple, shared by every flip
    across that edge, so the list costs 8 bytes a flip.
    """
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


class Distance(NamedTuple):
    """A flip distance, whether it is exact, and the method that gave it."""

    distance: int
    exact: bool
    method: str


def distance(g: Graph, labels: Sequence[int], target: Sequence[int],
             method: str = "auto", capacity: int = CAPACITY_LIMIT) -> Distance:
    """Flip distance between two vertex labelings of g, by one of METHODS.

    "auto" takes the first that applies: the path closed form on a path
    (in its traversal order), the star closed form on a star (center
    first), BFS within capacity, and otherwise the length of the
    spanning-tree sequence, an upper bound with exact False.  An explicit
    method answers only by itself, and raises ValueError where it does
    not apply and CapacityError where BFS exceeds capacity.  BFS answers
    on a disconnected graph too, and raises ValueError when the two
    labelings lie in different components; the tree bound needs a
    connected graph.  Each method validates the labelings itself; this
    checks only their lengths.

    >>> from relabel.graph import make_family
    >>> distance(make_family("path", 3), (2, 1, 0), (0, 1, 2))
    Distance(distance=3, exact=True, method='path')
    >>> distance(make_family("cycle", 4), (1, 0, 3, 2), (0, 1, 2, 3))._asdict()
    {'distance': 2, 'exact': True, 'method': 'bfs'}
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {', '.join(METHODS)}; got {method!r}")
    if len(labels) != g.n or len(target) != g.n:
        raise ValueError(f"labelings of a graph on {g.n} vertices need {g.n} labels, "
                         f"got {len(labels)} and {len(target)}")
    if method in ("auto", "path") and is_path(g):
        order = path_vertex_order(g)
        d = path_distance([labels[v] for v in order], [target[v] for v in order])
        return Distance(d, True, "path")
    if method == "path":
        raise ValueError("method path needs a path graph")
    center = None
    if g.n >= 2 and is_tree(g):
        center = next((v for v in range(g.n) if g.degree(v) == g.n - 1), None)
    if method in ("auto", "star") and center is not None:
        order = [center] + [v for v in range(g.n) if v != center]
        d = star_distance([labels[v] for v in order], [target[v] for v in order])
        return Distance(d, True, "star")
    if method == "star":
        raise ValueError("method star needs a star graph")
    if method in ("auto", "bfs"):
        try:
            d = bfs_distance(ConfigurationSpace(g, capacity=capacity), labels, target)
        except CapacityError:
            if method == "bfs":
                raise
        else:
            if d is None:
                raise ValueError("labelings lie in different components")
            return Distance(d, True, "bfs")
    if not is_connected(g):
        raise ValueError("graph is not connected")
    # the sequence's length, one step at a time: O(n) memory
    steps = _transform_steps(g, labels, target)
    return Distance(sum(len(step) for _, step in steps), False, "tree-bound")
