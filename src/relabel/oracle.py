"""Exhaustive breadth-first search over labeling configuration spaces.

A configuration space has one node per labeling of a graph and one edge
per legal flip.  Edge-mode spaces run on the line graph, where an edge
flip of the original graph is exactly a vertex flip.  The flip rule is
either unrestricted or privileged(S): a flip is legal only if at least
one of the two swapped labels belongs to S.

Every query reads one breadth-first search, keyed by where each label
sits: a labeling state[position] = label is searched as its inverse,
the bytes w with w[label] = position.  A flip on edge (u, v) exchanges
the values u and v in w, so the search builds a flip table first, one
entry per edge, in edge order, whose bytes.maketrans table gives the
neighbouring key by w.translate in one C call.  With a single privileged
label (a puzzle's blank) only the flips at its position w[label] can be
legal, so the search looks them up by position; with more it keeps the
flips incident to any privileged label's position.  Keys turn back into
labelings only where a query returns them; diameters and histograms
read the level sizes alone.
One breadth-first search per component of the base graph, once per
space, ends searches early.
A label never leaves its component of the base graph, so a target that
moves one out is "not reached" at once.  Unrestricted, a component holds
all such arrangements, the product of |C|! over the components C, and a
search stops once it has them all.  With one privileged label on a
bipartite base graph, each legal flip transposes two labels and moves
that label across one edge, so the labeling's sign times the colour of
its position never changes (Wilson, JCTB 1974), and a target where it
differs is "not reached" at once too.
All searches validate their labelings and refuse a space of more than
256 positions, which a bytes key cannot hold; an edge-mode space counts
its positions from the edges and builds its line graph only for a search
or invariant that reads it.  Then a target that an invariant rules out
is answered at once, at any size; every other search refuses to start
when the space would exceed the capacity guard (10! states by default;
pass a larger capacity explicitly to override).
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import islice
from typing import Callable, Sequence

from .graph import Graph, _bfs, line_graph
from .labeling import (exact_t_rule, identity_labeling, validate_edge_labeling,
                       validate_vertex_labeling)
from .perm import parity

CAPACITY_LIMIT = math.factorial(10)
MAX_POSITIONS = 256  # a search key stores each position in one byte


class CapacityError(Exception):
    """The configuration space is too large for exhaustive search."""


class ConfigurationSpace:
    """All labelings of a graph joined by single legal flips."""

    def __init__(self, graph: Graph, mode: str = "vertex",
                 privileged: Sequence[int] | None = None,
                 capacity: int | None = None):
        if mode not in ("vertex", "edge"):
            raise ValueError(f"mode must be 'vertex' or 'edge', got {mode!r}")
        self.graph = graph
        self.mode = mode
        self.positions = graph.m if mode == "edge" else graph.n
        if privileged is not None:
            s = frozenset(privileged)
            if not s:
                raise ValueError("privileged set must be nonempty")
            if not all(0 <= x < self.positions for x in s):
                raise ValueError("privileged labels out of range")
            self.privileged = s
        else:
            self.privileged = None
        self.capacity = CAPACITY_LIMIT if capacity is None else capacity

    @cached_property
    def base(self) -> Graph:
        """The graph whose vertex flips are this space's flips: the graph
        itself, or in edge mode its line graph, built on first use, so a
        space refused for its size never builds it."""
        return line_graph(self.graph) if self.mode == "edge" else self.graph

    def size(self) -> int:
        return math.factorial(self.positions)

    def check_capacity(self) -> None:
        if self.positions > MAX_POSITIONS:
            raise CapacityError(
                f"{self.positions} positions exceed the {MAX_POSITIONS} a search can hold"
            )
        if self.size() > self.capacity:
            raise CapacityError(
                f"{self.positions}! = {self.size()} states exceeds capacity {self.capacity}"
            )

    def validate_state(self, state: Sequence[int]) -> tuple[int, ...]:
        if self.mode == "edge":
            return validate_edge_labeling(self.graph, state)
        return validate_vertex_labeling(self.graph, state)

    def identity_state(self) -> tuple[int, ...]:
        return identity_labeling(self.positions)

    @cached_property
    def _invariants(self) -> tuple[Callable[[bytes], object], int]:
        """A map of keys constant on each component, and the size of every
        component when known (else 0).  Call on at most 256 positions (see
        _keys): a component is named by its lowest position, which must fit
        a byte.  One graph._bfs per component gives its positions, and the
        parity of their depths a 2-colouring wherever one exists."""
        g = self.base
        comp, colour = bytearray(range(256)), bytearray(256)
        size = 1
        for root in range(g.n):
            if comp[root] == root:  # the lowest position of a new component
                order, _, depth = _bfs(g, root)
                for v in order:
                    comp[v], colour[v] = root, depth[v] & 1
                size *= math.factorial(len(order))
        bipartite = all(colour[u] != colour[v] for u, v in g.edges)
        table, s = bytes(comp), self.privileged
        if s is not None and len(s) == 1 and bipartite:
            (label,) = s
            return (lambda w: (w.translate(table), parity(w) ^ colour[w[label]])), 0
        return (lambda w: w.translate(table)), size if s is None else 0


_Flip = tuple[tuple[int, int], bytes]


def _keys(space: ConfigurationSpace, *labelings: Sequence[int]) -> list[bytes]:
    """Validate labelings and return their search keys.

    The key of a labeling (state[position] = label) is its inverse as
    bytes, w[label] = position.  More than 256 positions raise
    CapacityError before any key is built, since a key holds positions
    0-255 only; the state count is checked by _search.
    """
    states = [space.validate_state(x) for x in labelings]
    n = space.positions
    if n > MAX_POSITIONS:
        space.check_capacity()  # raises: too many positions
    ident = bytes(range(n))
    return [bytes.maketrans(bytes(x), ident)[:n] for x in states]


def _legal_flips(space: ConfigurationSpace) -> Callable[[bytes], list[_Flip]]:
    """The flip table of space, as a map from a search key to its legal flips.

    The table has one entry (edge, swap) per edge of space.base.edges, in
    edge order.  A flip on (u, v) exchanges the positions u and v, so
    swap is the translation table that exchanges the byte values u and v,
    and w.translate(swap) is the neighbouring key in one C call.  The map
    returns the entries legal at a key, in edge order: all of them when
    flips are unrestricted; with one privileged label, those incident to
    its position w[label], from a table indexed by position (on a puzzle
    space, only the blank's flips); with more, those incident to any
    privileged label's position.
    """
    table = [(edge, bytes.maketrans(bytes(edge), bytes(edge[::-1])))
             for edge in space.base.edges]
    s = space.privileged
    if s is None:
        return lambda w: table
    if len(s) == 1:
        (label,) = s
        at: list[list[_Flip]] = [[] for _ in range(space.positions)]
        for entry in table:
            u, v = entry[0]
            at[u].append(entry)
            at[v].append(entry)
        return lambda w: at[w[label]]

    def legal(w: bytes) -> list[_Flip]:
        held = {w[x] for x in s}
        return [entry for entry in table if entry[0][0] in held or entry[0][1] in held]
    return legal


def _search(space: ConfigurationSpace, src: bytes, dst: bytes = b""
            ) -> tuple[dict[bytes, _Flip | None], list[int]]:
    """Breadth-first search from src, level by level, flips tried in edge order.

    src and dst are search keys (see _keys); the default dst, b"", is the
    key of no labeling with a flip.  Returns (reached, sizes).  reached
    maps every key found, in discovery order, to the flip-table entry whose
    flip first reached it (src maps to None); sizes[k] counts the keys
    found at depth k.  The search stops the moment dst is found, so dst,
    when reached, sits at depth len(sizes) - 1, or the component is
    complete.  A dst that fails an invariant is answered at any size,
    with no flip tried; every other search checks capacity first.
    """
    invariant, total = space._invariants
    reached: dict[bytes, _Flip | None] = {src: None}
    sizes = [1]
    if dst and invariant(src) != invariant(dst):
        return reached, sizes
    space.check_capacity()
    legal = _legal_flips(space)
    level = [src]
    left = total - 1  # keys still to find; below zero when the size is unknown
    while level and dst not in reached:
        found = []
        for w in level:
            for entry in legal(w):
                nxt = w.translate(entry[1])
                if nxt not in reached:
                    reached[nxt] = entry
                    found.append(nxt)
                    left -= 1
                    if nxt == dst or not left:
                        return reached, sizes + [len(found)]
        if found:
            sizes.append(len(found))
        level = found
    return reached, sizes


def distance_map(space: ConfigurationSpace,
                 source: Sequence[int]) -> dict[tuple[int, ...], int]:
    """BFS distances from source to every reachable labeling, in discovery order."""
    reached, sizes = _search(space, *_keys(space, source))
    n = space.positions
    ident = bytes(range(n))
    maketrans = bytes.maketrans
    keys = iter(reached)
    # each key back to its labeling: the inverse of w, as a tuple of ints
    return {tuple(maketrans(w, ident)[:n]): depth
            for depth, size in enumerate(sizes) for w in islice(keys, size)}


def bfs_distance(space: ConfigurationSpace, frm: Sequence[int],
                 to: Sequence[int]) -> int | None:
    """Shortest flip count from frm to to, or None when unreachable."""
    src, dst = _keys(space, frm, to)
    reached, sizes = _search(space, src, dst)
    return len(sizes) - 1 if dst in reached else None


def shortest_flip_sequence(space: ConfigurationSpace, frm: Sequence[int],
                           to: Sequence[int]) -> list[tuple[int, int]] | None:
    """A shortest legal flip sequence from frm to to, or None when unreachable."""
    src, w = _keys(space, frm, to)
    reached, _ = _search(space, src, w)
    if w not in reached:
        return None
    # undo the stored flips from dst back to src
    flips = []
    entry = reached[w]
    while entry is not None:
        flips.append(entry[0])
        w = w.translate(entry[1])
        entry = reached[w]
    flips.reverse()
    return flips


def reachable_in_exactly(space: ConfigurationSpace, frm: Sequence[int],
                         to: Sequence[int], t: int) -> bool:
    """True iff some walk of exactly t legal flips joins frm and to.

    With d the distance, that holds iff t >= d, t = d (mod 2), and, when
    d = 0 < t, some flip is legal at frm (labeling.exact_t_rule).
    """
    src, dst = _keys(space, frm, to)
    reached, sizes = _search(space, src, dst)
    d = len(sizes) - 1 if dst in reached else None
    return exact_t_rule(d, t, d == 0 and bool(_legal_flips(space)(src)))


def component(space: ConfigurationSpace, frm: Sequence[int]) -> int:
    """Size of the reachable set from frm.

    No key turns back into a labeling: an unrestricted space gives the
    size from its invariants with no search, any other from the search.
    """
    (src,) = _keys(space, frm)
    size = space._invariants[1]
    if size:
        space.check_capacity()
        return size
    return len(_search(space, src)[0])


def diameter(space: ConfigurationSpace, frm: Sequence[int] | None = None) -> int:
    """Eccentricity of frm (default: the identity labeling) over its component.

    Unrestricted, that is the diameter: renaming labels is an automorphism.
    """
    if frm is None:
        frm = space.identity_state()
    return len(_search(space, *_keys(space, frm))[1]) - 1


def distance_distribution(space: ConfigurationSpace,
                          frm: Sequence[int] | None = None) -> dict[int, int]:
    """Histogram mapping distance from frm to the number of labelings at it."""
    if frm is None:
        frm = space.identity_state()
    return dict(enumerate(_search(space, *_keys(space, frm))[1]))
