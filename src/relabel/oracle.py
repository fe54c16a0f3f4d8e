"""Exhaustive breadth-first search over labeling configuration spaces.

A configuration space has one node per labeling of a graph and one edge
per legal flip.  Edge-mode spaces run on the line graph, where an edge
flip of the original graph is exactly a vertex flip.  The flip rule is
either unrestricted or privileged(S): a flip is legal only if at least
one of the two swapped labels belongs to S.

Every query reads one breadth-first search, keyed by the labeling tuple.
The search builds a flip table first: one entry per edge, in edge order,
whose itemgetter returns the labeling with the edge's two labels swapped
in one C call.  With a single privileged label (a puzzle's blank) only
the flips at that label's position can be legal, so the search looks them
up by position; with more it tests the two swapped labels.
All searches validate their labelings, then refuse to start when the
space would exceed the capacity guard (10! states by default); pass a
larger capacity explicitly to override.
"""

from __future__ import annotations

import math
from itertools import islice
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from .graph import Graph, line_graph
from .labeling import exact_t_rule, identity_labeling, validate_vertex_labeling

CAPACITY_LIMIT = math.factorial(10)


class CapacityError(Exception):
    """The configuration space is too large for exhaustive search."""


class ConfigurationSpace:
    """All labelings of a graph joined by single legal flips."""

    def __init__(self, graph: Graph, mode: str = "vertex",
                 privileged: Sequence[int] | None = None,
                 capacity: int = CAPACITY_LIMIT):
        if mode not in ("vertex", "edge"):
            raise ValueError(f"mode must be 'vertex' or 'edge', got {mode!r}")
        self.graph = graph
        self.mode = mode
        self.base = line_graph(graph) if mode == "edge" else graph
        if privileged is not None:
            s = frozenset(privileged)
            if not s:
                raise ValueError("privileged set must be nonempty")
            if not all(0 <= x < self.base.n for x in s):
                raise ValueError("privileged labels out of range")
            self.privileged = s
        else:
            self.privileged = None
        self.capacity = capacity

    @property
    def positions(self) -> int:
        return self.base.n

    def size(self) -> int:
        return math.factorial(self.positions)

    def check_capacity(self) -> None:
        if self.size() > self.capacity:
            raise CapacityError(
                f"{self.positions}! = {self.size()} states exceeds capacity {self.capacity}"
            )

    def validate_state(self, state: Sequence[int]) -> tuple[int, ...]:
        return validate_vertex_labeling(self.base, state)

    def identity_state(self) -> tuple[int, ...]:
        return identity_labeling(self.positions)


_Flip = tuple[tuple[int, int], Callable[[tuple[int, ...]], tuple[int, ...]]]


def _legal_flips(space: ConfigurationSpace
                 ) -> Callable[[tuple[int, ...]], list[_Flip]]:
    """The flip table of space, as a map from a labeling to its legal flips.

    The table has one entry (edge, flip) per edge of space.base.edges, in
    edge order.  flip is an itemgetter over the positions with the edge's
    two ends exchanged, so flip(state) is the neighbouring labeling in one
    C call.  The map returns the entries legal at a labeling, in edge
    order: all of them when flips are unrestricted; with one privileged
    label, those incident to its position, from a table indexed by
    position (on a puzzle space, only the blank's flips); with more, those
    that swap a privileged label.
    """
    n = space.positions
    table = []
    for edge in space.base.edges:
        u, v = edge
        swap = list(range(n))
        swap[u], swap[v] = v, u
        table.append((edge, itemgetter(*swap)))
    s = space.privileged
    if s is None:
        return lambda state: table
    if len(s) == 1:
        (label,) = s
        at: list[list[_Flip]] = [[] for _ in range(n)]
        for entry in table:
            u, v = entry[0]
            at[u].append(entry)
            at[v].append(entry)
        return lambda state: at[state.index(label)]
    return lambda state: [entry for entry in table
                          if state[entry[0][0]] in s or state[entry[0][1]] in s]


def _search(space: ConfigurationSpace, src: tuple[int, ...],
            dst: tuple[int, ...] | None = None
            ) -> tuple[dict[tuple[int, ...], tuple[int, int] | None], list[int]]:
    """Breadth-first search from src, level by level, flips tried in edge order.

    Returns (reached, sizes).  reached maps every labeling found, in
    discovery order, to the edge whose flip first reached it (src maps to
    None); sizes[k] counts the labelings found at depth k.  The search
    stops the moment dst is found, so dst, when reached, sits at depth
    len(sizes) - 1.
    """
    legal = _legal_flips(space)
    reached: dict[tuple[int, ...], tuple[int, int] | None] = {src: None}
    sizes = [1]
    level = [src]
    while level and dst not in reached:
        found = []
        for state in level:
            for edge, flip in legal(state):
                nxt = flip(state)
                if nxt not in reached:
                    reached[nxt] = edge
                    found.append(nxt)
                    if nxt == dst:
                        return reached, sizes + [len(found)]
        if found:
            sizes.append(len(found))
        level = found
    return reached, sizes


def distance_map(space: ConfigurationSpace,
                 source: Sequence[int]) -> dict[tuple[int, ...], int]:
    """BFS distances from source to every reachable labeling."""
    src = space.validate_state(source)
    space.check_capacity()
    dist, sizes = _search(space, src)
    states = iter(dist)
    for depth, size in enumerate(sizes):
        for state in islice(states, size):
            dist[state] = depth
    return dist


def bfs_distance(space: ConfigurationSpace, frm: Sequence[int],
                 to: Sequence[int]) -> int | None:
    """Shortest flip count from frm to to, or None when unreachable."""
    src = space.validate_state(frm)
    dst = space.validate_state(to)
    space.check_capacity()
    reached, sizes = _search(space, src, dst)
    return len(sizes) - 1 if dst in reached else None


def shortest_flip_sequence(space: ConfigurationSpace, frm: Sequence[int],
                           to: Sequence[int]) -> list[tuple[int, int]] | None:
    """A shortest legal flip sequence from frm to to, or None when unreachable."""
    src = space.validate_state(frm)
    dst = space.validate_state(to)
    space.check_capacity()
    reached, _ = _search(space, src, dst)
    if dst not in reached:
        return None
    # undo the stored flips from dst back to src
    flips = []
    state = list(dst)
    edge = reached[dst]
    while edge is not None:
        flips.append(edge)
        u, v = edge
        state[u], state[v] = state[v], state[u]
        edge = reached[tuple(state)]
    flips.reverse()
    return flips


def reachable_in_exactly(space: ConfigurationSpace, frm: Sequence[int],
                         to: Sequence[int], t: int) -> bool:
    """True iff some walk of exactly t legal flips joins frm and to.

    With d the distance, that holds iff t >= d, t = d (mod 2), and, when
    d = 0 < t, some flip is legal at frm (labeling.exact_t_rule).
    """
    src = space.validate_state(frm)
    dst = space.validate_state(to)
    space.check_capacity()
    reached, sizes = _search(space, src, dst)
    d = len(sizes) - 1 if dst in reached else None
    return exact_t_rule(d, t, bool(_legal_flips(space)(src)))


class ComponentSummary(NamedTuple):
    size: int
    states: tuple[tuple[int, ...], ...] | None


def component(space: ConfigurationSpace, frm: Sequence[int],
              cap: int | None = None) -> ComponentSummary:
    """Size of the reachable set from frm, with up to cap states listed."""
    dist = distance_map(space, frm)
    states = None
    if cap is not None:
        states = tuple(sorted(dist.keys())[:cap])
    return ComponentSummary(len(dist), states)


def diameter(space: ConfigurationSpace, frm: Sequence[int] | None = None) -> int:
    """Eccentricity of frm (default: the identity labeling) over its component.

    Unrestricted, that is the diameter: renaming labels is an automorphism.
    """
    if frm is None:
        frm = space.identity_state()
    return max(distance_map(space, frm).values())


def distance_distribution(space: ConfigurationSpace,
                          frm: Sequence[int] | None = None) -> dict[int, int]:
    """Histogram mapping distance from frm to the number of labelings at it."""
    if frm is None:
        frm = space.identity_state()
    hist: dict[int, int] = {}
    for d in distance_map(space, frm).values():
        hist[d] = hist.get(d, 0) + 1
    return dict(sorted(hist.items()))
