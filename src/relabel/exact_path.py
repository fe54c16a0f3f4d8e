"""Exact flip distances and optimal flip sequences on the path.

Vertices are assumed to carry the canonical path indexing 0-1-...-(n-1),
so a flip is a swap of adjacent positions.  The minimum number of flips
between two labelings is the inversion count of their relative
permutation, and t flips suffice exactly when t is at least that count
and of the same parity, except that a count of 0 < t needs an edge to
flip.
"""

from __future__ import annotations

from typing import Sequence

from .labeling import relative_permutation
from .perm import inversions, validated


def path_distance(labels: Sequence[int], target: Sequence[int]) -> int:
    """Minimum number of adjacent flips turning one path labeling into another."""
    return inversions(relative_permutation(validated(labels), validated(target)))


def path_flip_sequence(labels: Sequence[int],
                       target: Sequence[int]) -> list[tuple[int, int]]:
    """An optimal flip sequence from labels to target.

    Places the largest label first: label v walks right to position v,
    shrinking the residual problem.  Each flip removes exactly one
    inversion, so the length equals path_distance(labels, target).
    """
    rel = list(relative_permutation(validated(labels), validated(target)))
    n = len(rel)
    flips: list[tuple[int, int]] = []
    for v in range(n - 1, 0, -1):
        i = rel.index(v)
        for k in range(i, v):
            flips.append((k, k + 1))
            rel[k], rel[k + 1] = rel[k + 1], rel[k]
    return flips


def path_exact_t_feasible(labels: Sequence[int], target: Sequence[int], t: int) -> bool:
    """True iff the transformation is doable in exactly t flips."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    d = path_distance(labels, target)
    # padding d = 0 up to t > 0 needs an edge to flip
    return t >= d and (t - d) % 2 == 0 and (t == d or len(labels) > 1)


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
