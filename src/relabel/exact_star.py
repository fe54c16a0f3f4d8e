"""Exact flip distances on the star K_{1,n-1} with center vertex 0.

Every flip on the star swaps the center with a leaf i, written (0, i).
Against the identity target, the exact distance of a labeling given by a
permutation pi is the parameter q:

  * q = |support(pi)| + (number of nontrivial cycles)   if pi fixes 0,
  * q = q(pi0) + 1 if the center and the vertex holding label 0 have
    simply traded labels (pi(0) = i, pi(i) = 0),
  * q = q(pi0) - 1 otherwise,

where pi0 is pi normalized to fix 0.  Exactly t flips work iff t >= q
and t has the same parity as q, except that q = 0 < t needs a leaf to
flip with (labeling.exact_t_rule).  An empty labeling has no center
and raises ValueError.

Distance and sequence both take O(n): q comes from one walk over the
cycles, and each call validates the two labelings once, in O(n) with one
C-level pass per check.
"""

from __future__ import annotations

from typing import Sequence

from .labeling import relative_permutation
from .perm import validated


def _q(p: Sequence[int]) -> int:
    """q of a permutation: fix the center up in place, then walk the cycles once."""
    p = list(p)
    n = len(p)
    if not n:
        raise ValueError("an empty labeling has no star center")
    shift = 0
    if p[0] != 0:
        # compose with the transposition (0, j), p(j) = 0, as pi_zero does
        j = p.index(0)
        shift = 1 if j == p[0] else -1
        p[0], p[j] = 0, p[0]
    seen = bytearray(n)
    moved = cycles = 0
    for start in range(1, n):
        if seen[start] or p[start] == start:
            continue
        cycles += 1
        v = start
        while not seen[v]:
            seen[v] = 1
            moved += 1
            v = p[v]
    return moved + cycles + shift


def star_q(labels: Sequence[int]) -> int:
    """Flip distance from a star labeling to the identity labeling."""
    return _q(validated(labels))


def star_distance(labels: Sequence[int], target: Sequence[int]) -> int:
    """Minimum number of flips turning one star labeling into another."""
    return _q(relative_permutation(labels, target))


def star_flip_sequence(labels: Sequence[int],
                       target: Sequence[int]) -> list[tuple[int, int]]:
    """An optimal flip sequence from labels to target.

    Greedy center rule: while the center holds a label c that is not its
    own, flip with c's home vertex; when the center holds 0 but leaves are
    wrong, flip with the lowest-index wrong leaf.  Each flip lowers q by
    one, so the length equals star_distance(labels, target).  A flip never
    touches a leaf that holds its own label, so the search for the lowest
    wrong leaf resumes where it last stopped and the whole run is O(n).
    """
    rel = list(relative_permutation(labels, target))
    n = len(rel)
    if not n:
        raise ValueError("an empty labeling has no star center")
    flips: list[tuple[int, int]] = []
    low = 1  # every leaf below low holds its own label
    while True:
        if rel[0] != 0:
            i = rel[0]
        else:
            while low < n and rel[low] == low:
                low += 1
            if low == n:
                break
            i = low
        flips.append((0, i))
        rel[0], rel[i] = rel[i], rel[0]
    return flips


def star_max_distance(n: int) -> int:
    """Largest flip distance between any two labelings of the n-vertex star."""
    if n < 2:
        raise ValueError("star diameter needs n >= 2")
    return 3 * (n - 1) // 2
