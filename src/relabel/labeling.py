"""Vertex and edge labelings and the flips that act on them.

A vertex labeling of a graph on n vertices is a bijection onto
{0, ..., n-1} stored as a sequence: labels[v] is the label held by
vertex v.  An edge labeling is the same over the graph's edge list.
A vertex flip swaps the labels across an edge; an edge flip swaps the
labels of two edges sharing an endpoint.  A sequence of flips replays
in O(n + flips) time, swapping in place in one list.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .graph import Graph
from .perm import compose, inverse, is_permutation, validated

VertexFlip = "tuple[int, int]"   # an edge {u, v} of the instance graph
EdgeFlip = "tuple[int, int]"     # two edge indices sharing an endpoint


def identity_labeling(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def validate_vertex_labeling(g: Graph, labels: Sequence[int]) -> tuple[int, ...]:
    t = tuple(labels)
    if len(t) != g.n or not is_permutation(t):
        raise ValueError(f"not a vertex labeling of a graph on {g.n} vertices: {list(t)}")
    return t


def validate_edge_labeling(g: Graph, labels: Sequence[int]) -> tuple[int, ...]:
    t = tuple(labels)
    if len(t) != g.m or not is_permutation(t):
        raise ValueError(f"not an edge labeling of a graph with {g.m} edges: {list(t)}")
    return t


def _unchecked(record_type: type, **fields: object):
    """A frozen dataclass record built from fields its caller has
    already validated: each field is set as given and __post_init__,
    which would validate them again, is not run."""
    record = object.__new__(record_type)
    for name, value in fields.items():
        object.__setattr__(record, name, value)
    return record


def _vertex_flip(g: Graph, flip: Sequence[int]) -> tuple[int, int]:
    u, v = flip
    if not g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is not an edge")
    return u, v


def edges_share_endpoint(g: Graph, e1: int, e2: int) -> bool:
    a = g.edges[e1]
    b = g.edges[e2]
    return e1 != e2 and bool(set(a) & set(b))


def _edge_flip(g: Graph, flip: Sequence[int]) -> tuple[int, int]:
    e1, e2 = flip
    if not (0 <= e1 < g.m and 0 <= e2 < g.m):
        raise ValueError(f"edge index out of range: ({e1},{e2})")
    if not edges_share_endpoint(g, e1, e2):
        raise ValueError(f"edges {e1} and {e2} share no endpoint")
    return e1, e2


def _swapped(labels: Sequence[int], x: int, y: int) -> tuple[int, ...]:
    out = list(labels)
    out[x], out[y] = out[y], out[x]
    return tuple(out)


def apply_vertex_flip(g: Graph, labels: Sequence[int], flip: Sequence[int]) -> tuple[int, ...]:
    """Swap the labels at the endpoints of an edge."""
    return _swapped(labels, *_vertex_flip(g, flip))


def apply_edge_flip(g: Graph, labels: Sequence[int], flip: Sequence[int]) -> tuple[int, ...]:
    """Swap the labels of two edges sharing an endpoint."""
    return _swapped(labels, *_edge_flip(g, flip))


def _apply_sequence(check: Callable[[Graph, Sequence[int]], tuple[int, int]], g: Graph,
                    labels: Sequence[int], flips: Iterable[Sequence[int]]
                    ) -> tuple[int, ...]:
    out = list(labels)
    for i, flip in enumerate(flips):
        try:
            x, y = check(g, flip)
        except ValueError as err:
            raise ValueError(f"flip {i}: {err}") from None
        out[x], out[y] = out[y], out[x]
    return tuple(out)


def apply_vertex_sequence(g: Graph, labels: Sequence[int],
                          flips: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """Left-to-right fold of apply_vertex_flip, in O(n + flips) time.

    The flips swap in place in one list; the first illegal flip raises
    ValueError("flip i: ...") with apply_vertex_flip's message.
    """
    return _apply_sequence(_vertex_flip, g, labels, flips)


def apply_edge_sequence(g: Graph, labels: Sequence[int],
                        flips: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """Left-to-right fold of apply_edge_flip, as apply_vertex_sequence."""
    return _apply_sequence(_edge_flip, g, labels, flips)


def relative_permutation(labels: Sequence[int], target: Sequence[int]) -> tuple[int, ...]:
    """Rename labels so that the target labeling reads as the identity.

    Renaming labels commutes with flips, so the pair (labels, target) and
    the pair (result, identity) are the same instance of any relabeling
    problem.  Recomposition: compose(target, result) == labels.

    Each labeling is validated once, in O(n) C-level passes: a labeling
    that is not a permutation of 0..n-1 raises ValueError, then so does a
    size mismatch.  The target is inverted in one loop and composed with
    one itemgetter call.
    """
    a = validated(labels)
    b = validated(target)
    if len(a) != len(b):
        raise ValueError(f"size mismatch: {len(a)} vs {len(b)}")
    return compose(inverse(b), a)


def exact_t_rule(d: int | None, t: int, can_pad: bool) -> bool:
    """True iff exactly t flips join two labelings d flips apart.

    d is None when no walk joins them.  Otherwise that holds iff t >= d,
    t = d (mod 2), and, when d = 0 < t, some flip is legal (can_pad).
    Every flip transposes two labels and so changes the labeling's sign,
    so every walk between the two has the parity of d; a flip and its undo
    swap the same two labels, so a shortest walk pads two flips at a time.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    return d is not None and t >= d and (t - d) % 2 == 0 and (t == d or d > 0 or can_pad)
