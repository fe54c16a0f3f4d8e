"""Exact flip distances and optimal flip sequences on the path.

Vertices are assumed to carry the canonical path indexing 0-1-...-(n-1),
so a flip is a swap of adjacent positions.  The minimum number of flips
between two labelings is the inversion count of their relative
permutation, and t flips suffice exactly when t is at least that count
and of the same parity, except that a count of 0 < t needs an edge to
flip.

Costs: the distance takes O(n log n), from an inversion table counted
by bisecting sorted blocks of values under a Fenwick tree over the
blocks; the sequence O(n log n + flips).  Each call validates the two
labelings once, in O(n) with one C-level pass per check.
"""

from __future__ import annotations

from typing import Sequence

from .labeling import exact_t_rule, relative_permutation
from .perm import inversion_table, inversions


def path_distance(labels: Sequence[int], target: Sequence[int]) -> int:
    """Minimum number of adjacent flips turning one path labeling into another.

    The inversion count of the relative permutation, in O(n log n).
    """
    return inversions(relative_permutation(labels, target))


def path_flip_sequence(labels: Sequence[int],
                       target: Sequence[int]) -> list[tuple[int, int]]:
    """An optimal flip sequence from labels to target.

    Places the largest label first: label v walks right to position v,
    shrinking the residual problem.  Each flip removes exactly one
    inversion, so the length equals path_distance(labels, target).
    """
    return _path_flips(labels, target, [(k, k + 1) for k in range(len(labels) - 1)])


def _path_flips(labels: Sequence[int], target: Sequence[int],
                edges: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """path_flip_sequence along a path whose k-th edge, joining positions
    k and k + 1, is edges[k]: each flip is one of those tuples.

    With c the inversion table, label v starts its walk at v - c[v]: the
    labels above v already sit to its right, and the labels below v keep
    their original order, so c[v] of them lie right of v.  Its walk is the
    slice [v - c[v], v) of edges, so the run takes O(n log n + flips) time
    with no swap and no search.
    """
    rel = relative_permutation(labels, target)
    c = inversion_table(rel)
    flips: list[tuple[int, int]] = []
    for v in range(len(rel) - 1, 0, -1):
        flips += edges[v - c[v]:v]
    return flips


def path_exact_t_feasible(labels: Sequence[int], target: Sequence[int], t: int) -> bool:
    """True iff the transformation is doable in exactly t flips."""
    return exact_t_rule(path_distance(labels, target), t, len(labels) > 1)


def transposition_cost_on_path(i: int, j: int) -> tuple[int, list[tuple[int, int]]]:
    """Cost and witness for swapping positions i < j on a path.

    Moves the label at j down to i, then the displaced label back up,
    using exactly 2(j - i) - 1 adjacent flips and fixing all other labels.
    """
    if not 0 <= i < j:
        raise ValueError(f"need 0 <= i < j, got i={i}, j={j}")
    down = [(k - 1, k) for k in range(j, i, -1)]
    up = [(k, k + 1) for k in range(i + 1, j)]
    flips = down + up
    assert len(flips) == 2 * (j - i) - 1
    return len(flips), flips
