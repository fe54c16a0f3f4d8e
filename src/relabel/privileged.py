"""Relabeling with privileged labels.

A restricted flip is legal only when at least one of the two swapped
labels is privileged.  This module provides the restricted-flip check,
the order/orientation invariants that certify unsolvable path and cycle
instances, the tree swap procedures SW(u, v) and their composition, a
constructive solver for instances with at most two non-privileged
labels, the solvability decider, and the sliding-puzzle instance
builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .graph import (
    Graph,
    _Rooted,
    _bfs,
    cycle_vertex_order,
    is_connected,
    is_cycle,
    is_path,
    is_tree,
    line_graph,
    make_family,
    path_vertex_order,
    spanning_tree_not_path,
)
from .labeling import (
    edges_share_endpoint,
    validate_edge_labeling,
    validate_vertex_labeling,
)
from .oracle import CAPACITY_LIMIT, ConfigurationSpace, shortest_flip_sequence
from .perm import inverse
from .transform import spanning_tree_transform


class UnsolvableError(Exception):
    """No sequence of restricted flips reaches the target labeling."""


@dataclass(frozen=True)
class PrivilegedInstance:
    graph: Graph
    kind: str
    from_labels: tuple[int, ...]
    to_labels: tuple[int, ...]
    privileged: frozenset[int]
    t: int | None = None

    def __post_init__(self):
        if self.kind not in ("vertex", "edge"):
            raise ValueError(f"kind must be 'vertex' or 'edge', got {self.kind!r}")
        validate = validate_vertex_labeling if self.kind == "vertex" else validate_edge_labeling
        object.__setattr__(self, "from_labels", validate(self.graph, self.from_labels))
        object.__setattr__(self, "to_labels", validate(self.graph, self.to_labels))
        count = self.graph.n if self.kind == "vertex" else self.graph.m
        priv = frozenset(self.privileged)
        if not priv:
            raise ValueError("privileged set must be nonempty")
        if not all(0 <= x < count for x in priv):
            raise ValueError("privileged labels out of range")
        object.__setattr__(self, "privileged", priv)
        if self.t is not None and self.t < 0:
            raise ValueError("bound t must be nonnegative")

    def nonprivileged(self) -> list[int]:
        count = self.graph.n if self.kind == "vertex" else self.graph.m
        return [lab for lab in range(count) if lab not in self.privileged]


class Solvability(NamedTuple):
    answer: str          # "yes" | "no" | "unknown_use_oracle"
    method: str | None   # "theorem" | "invariant" | None


def is_valid_restricted_flip(inst: PrivilegedInstance, l_current: Sequence[int],
                             flip: Sequence[int]) -> bool:
    """True iff the flip is legal: at least one swapped label is privileged."""
    a, b = flip
    if inst.kind == "vertex":
        if not inst.graph.has_edge(a, b):
            raise ValueError(f"({a},{b}) is not an edge")
    else:
        if not (0 <= a < inst.graph.m and 0 <= b < inst.graph.m) or \
                not edges_share_endpoint(inst.graph, a, b):
            raise ValueError(f"edges {a} and {b} share no endpoint")
    return l_current[a] in inst.privileged or l_current[b] in inst.privileged


def path_order_invariant(inst: PrivilegedInstance) -> bool:
    """Necessary condition on paths: restricted flips preserve the
    left-to-right order of the non-privileged labels.  False certifies
    that the instance is unsolvable."""
    if inst.kind != "vertex" or not is_path(inst.graph):
        raise ValueError("path_order_invariant needs a vertex instance on a path")
    order = path_vertex_order(inst.graph)
    seq_from = [inst.from_labels[v] for v in order
                if inst.from_labels[v] not in inst.privileged]
    seq_to = [inst.to_labels[v] for v in order
              if inst.to_labels[v] not in inst.privileged]
    return seq_from == seq_to


def cycle_orientation_invariant(inst: PrivilegedInstance) -> bool:
    """Necessary condition on cycles: restricted flips preserve the cyclic
    orientation of the non-privileged labels.  False certifies that the
    instance is unsolvable."""
    if inst.kind != "vertex" or not is_cycle(inst.graph):
        raise ValueError("cycle_orientation_invariant needs a vertex instance on a cycle")
    if len(inst.nonprivileged()) < 3:
        raise ValueError("orientation invariant needs at least 3 non-privileged labels")
    order = cycle_vertex_order(inst.graph)
    seq_from = [inst.from_labels[v] for v in order
                if inst.from_labels[v] not in inst.privileged]
    seq_to = [inst.to_labels[v] for v in order
              if inst.to_labels[v] not in inst.privileged]
    k = len(seq_from)
    return any(seq_from[i:] + seq_from[:i] == seq_to for i in range(k))


def sw_swap(tree: Graph, u: int, v: int, labels: Sequence[int],
            privileged: frozenset[int] | set[int]) -> list[tuple[int, int]]:
    """SW(u, v): transpose the labels at u and v along their tree path.

    Legal whenever at most one label on the path is non-privileged; uses
    exactly 2 * distance(u, v) - 1 restricted flips and restores every
    other label.
    """
    if not is_tree(tree):
        raise ValueError("sw_swap needs a tree")
    if not (0 <= u < tree.n and 0 <= v < tree.n):
        raise ValueError(f"vertices {u} and {v} must lie in 0..{tree.n - 1}")
    return _sw_swap(_Rooted(tree), u, v, labels, privileged)


def _sw_swap(rt: _Rooted, u: int, v: int, labels: Sequence[int],
             privileged: frozenset[int] | set[int]) -> list[tuple[int, ...]]:
    # sw_swap on a tree already rooted: the path's edges down and back
    if u == v:
        return []
    path, edges = rt.path(u, v)
    off_limits = sum(1 for x in path if labels[x] not in privileged)
    if off_limits > 1:
        raise ValueError(
            f"{off_limits} non-privileged labels on the {u}-{v} path; at most one allowed")
    return edges + edges[-2::-1]


def _farthest_avoiding(tree: Graph, src: int, banned: int) -> int:
    # lowest-index farthest vertex from src without taking the edge
    # src-banned, which in a tree is never entering banned
    order, _, depth = _bfs(tree, src, banned)
    far = depth[order[-1]]
    return min(x for x in order if depth[x] == far)


def _maximal_path_through(rt: _Rooted, u: int, v: int) -> list[int]:
    # longest tree path containing the u-v path as a sub-path
    path = rt.path(u, v)[0]
    u_end = _farthest_avoiding(rt.tree, u, path[1])
    v_end = _farthest_avoiding(rt.tree, v, path[-2])
    return rt.path(u_end, u)[0][:-1] + path + rt.path(v, v_end)[0][1:]


def _run_sw_plan(rt: _Rooted, plan: Sequence[tuple[int, int]], cur: list[int],
                 privileged: frozenset[int]) -> list[tuple[int, ...]]:
    # the SWs in turn, each transposing its two ends in cur
    flips: list[tuple[int, ...]] = []
    for a, b in plan:
        if a != b:
            flips += _sw_swap(rt, a, b, cur, privileged)
            cur[a], cur[b] = cur[b], cur[a]
    return flips


def _swap_both_nonpriv(rt: _Rooted, u: int, v: int, cur: list[int],
                       privileged: frozenset[int]) -> list[tuple[int, ...]]:
    # both non-privileged labels sit at u and v: run the staged SW
    # composition through a maximal path and an off-path branch neighbor
    pstar = _maximal_path_through(rt, u, v)
    on_pstar = set(pstar)
    w = min(x for x in pstar[1:-1] if rt.tree.degree(x) >= 3)
    w_off = min(y for y in rt.tree.adjacency[w] if y not in on_pstar)
    u_end, v_end = pstar[0], pstar[-1]
    plan = [(u, u_end), (v, v_end), (u_end, w_off), (u_end, v_end),
            (v_end, w_off), (u, u_end), (v, v_end)]
    return _run_sw_plan(rt, plan, cur, privileged)


def tree_swap_sequence(tree: Graph, u: int, v: int, labels: Sequence[int],
                       privileged: frozenset[int] | set[int]) -> list[tuple[int, int]]:
    """Transpose the labels at u and v by restricted flips on a non-path tree
    carrying exactly two non-privileged labels.

    Cases: at most one non-privileged label on the u-v path (one SW); both
    non-privileged labels at u and v (SW composition through a maximal path
    and an off-path neighbor of an internal branch vertex); both on the path
    but not both at the endpoints (SWs around the blockers, finishing with
    the endpoint composition on the pair they land on).
    """
    privileged = frozenset(privileged)
    if not is_tree(tree):
        raise ValueError("tree_swap_sequence needs a tree")
    if is_path(tree):
        raise ValueError("tree must not be a path")
    if u == v or not (0 <= u < tree.n and 0 <= v < tree.n):
        raise ValueError(f"u and v must be two vertices in 0..{tree.n - 1}, got {u} and {v}")
    labels = validate_vertex_labeling(tree, labels)
    nonpriv = [x for x in range(tree.n) if labels[x] not in privileged]
    if len(nonpriv) != 2:
        raise ValueError(f"exactly two non-privileged labels required, found {len(nonpriv)}")
    return _tree_swap(_Rooted(tree), u, v, list(labels), privileged, nonpriv)


def _tree_swap(rt: _Rooted, u: int, v: int, cur: list[int],
               privileged: frozenset[int], nonpriv: Sequence[int]
               ) -> list[tuple[int, ...]]:
    # tree_swap_sequence on arguments it has checked: a non-path tree,
    # u != v, and nonpriv the two vertices holding non-privileged labels;
    # transposes the labels at u and v in cur
    path = rt.path(u, v)[0]
    on_path = [x for x in nonpriv if x in set(path)]
    if len(on_path) <= 1:
        return _run_sw_plan(rt, [(u, v)], cur, privileged)

    if cur[u] not in privileged and cur[v] not in privileged:
        return _swap_both_nonpriv(rt, u, v, cur, privileged)

    # both blockers on the path, at least one of u, v privileged
    pos = {p: i for i, p in enumerate(path)}
    x, y = sorted(on_path, key=pos.__getitem__)
    if x != u and y != v:
        return _run_sw_plan(rt, [(u, x), (x, v), (u, x)], cur, privileged)
    # a blocker at one endpoint: two SWs leave the blockers at a vertex
    # pair, which the endpoint composition then transposes
    head = [(y, v), (u, y)] if x == u else [(u, x), (x, v)]
    pair = (y, v) if x == u else (u, x)
    flips = _run_sw_plan(rt, head, cur, privileged)
    return flips + _swap_both_nonpriv(rt, pair[0], pair[1], cur, privileged)


def solvable(inst: PrivilegedInstance) -> Solvability:
    """Decide solvability where the theory answers; defer the rest.

    yes: at most one non-privileged label, or exactly two on a non-path
    with at least four vertices.  no: a failed path order or cycle
    orientation invariant.  Everything else is unknown_use_oracle.  Edge
    instances are decided on the line graph, where restricted edge flips
    are restricted vertex flips.
    """
    if inst.kind == "edge":
        inst = _line_graph_instance(inst)
    g = inst.graph
    if not is_connected(g):
        raise ValueError("graph is not connected")
    if inst.from_labels == inst.to_labels:
        return Solvability("yes", "theorem")
    k = len(inst.nonprivileged())
    if k <= 1:
        return Solvability("yes", "theorem")
    if is_path(g):
        if not path_order_invariant(inst):
            return Solvability("no", "invariant")
        return Solvability("unknown_use_oracle", None)
    if k == 2:
        if g.n >= 4:
            return Solvability("yes", "theorem")
        return Solvability("unknown_use_oracle", None)
    if is_cycle(g):
        if not cycle_orientation_invariant(inst):
            return Solvability("no", "invariant")
        return Solvability("unknown_use_oracle", None)
    return Solvability("unknown_use_oracle", None)


def _line_graph_instance(inst: PrivilegedInstance) -> PrivilegedInstance:
    if inst.kind != "edge":
        raise ValueError("expected an edge instance")
    return PrivilegedInstance(line_graph(inst.graph), "vertex", inst.from_labels,
                              inst.to_labels, inst.privileged, inst.t)


def resolve_solvable(inst: PrivilegedInstance, want_witness: bool = False,
                     capacity: int = CAPACITY_LIMIT
                     ) -> tuple[str, str, list[tuple[int, int]] | None]:
    """Full decision: theory first, restricted BFS for the deferred cases.

    Returns (answer, method, witness); the witness is a restricted flip
    sequence when requested and the answer is yes.
    """
    vinst = inst if inst.kind == "vertex" else _line_graph_instance(inst)
    dec = solvable(vinst)
    if dec.answer == "yes":
        witness = privileged_transform(vinst) if want_witness else None
        return "yes", dec.method, witness
    if dec.answer == "no":
        return "no", dec.method, None
    space = ConfigurationSpace(vinst.graph, privileged=vinst.privileged,
                               capacity=capacity)
    seq = shortest_flip_sequence(space, vinst.from_labels, vinst.to_labels)
    if seq is None:
        return "no", "oracle", None
    return "yes", "oracle", seq if want_witness else None


def privileged_transform(inst: PrivilegedInstance,
                         capacity: int = CAPACITY_LIMIT) -> list[tuple[int, int]]:
    """A restricted flip sequence from the instance's source to its target.

    Handles at most two non-privileged labels.  With at most one, every
    flip is legal and the spanning tree transformation applies.  With two:
    cycles rotate the non-privileged labels home and then sort the rest
    through a gate next to one of them; other non-paths compose
    tree_swap_sequence transpositions on a non-path spanning tree.  Paths
    are outside the constructive theory and fall back to the restricted
    BFS oracle.  Edge instances are solved on the line graph, where the
    flips are edge flips.  Raises UnsolvableError when no sequence exists.
    Length is not minimized.

    With two non-privileged labels on trees and cycles this takes
    O(n + flips) time after building the spanning tree, plus an O(n)
    search each time the two non-privileged labels trade places.  Every
    flip is the spanning tree's or cycle's own edge tuple, shared by
    every flip across that edge.
    """
    if inst.kind == "edge":
        inst = _line_graph_instance(inst)
    g = inst.graph
    if not is_connected(g):
        raise ValueError("graph is not connected")
    nonpriv = inst.nonprivileged()
    if len(nonpriv) > 2:
        raise ValueError("at most two non-privileged labels supported")
    frm, to = inst.from_labels, inst.to_labels
    if frm == to:
        return []
    if solvable(inst).answer == "no":
        raise UnsolvableError("certified by the order/orientation invariant")
    if len(nonpriv) <= 1:
        return spanning_tree_transform(g, frm, to)
    if is_path(g):
        space = ConfigurationSpace(g, privileged=inst.privileged, capacity=capacity)
        seq = shortest_flip_sequence(space, frm, to)
        if seq is None:
            raise UnsolvableError("restricted BFS exhausted the component")
        return seq
    if is_cycle(g):
        return _cycle_transform(g, frm, to, inst.privileged)
    # a non-path spanning tree by construction, and cur always holds the
    # instance's two non-privileged labels: the unchecked swap applies
    rt = _Rooted(spanning_tree_not_path(g))
    cur = list(frm)
    where = list(inverse(frm))
    a_lab, b_lab = nonpriv
    flips: list[tuple[int, int]] = []
    for v in range(g.n):
        if cur[v] != to[v]:
            u = where[to[v]]
            flips += _tree_swap(rt, u, v, cur, inst.privileged, (where[a_lab], where[b_lab]))
            where[cur[u]], where[cur[v]] = u, v
    assert cur == list(to)
    return flips


def _cycle_transform(g: Graph, frm: tuple[int, ...], to: tuple[int, ...],
                     privileged: frozenset[int]) -> list[tuple[int, int]]:
    # works on slots, the positions along cycle_vertex_order
    n = g.n
    order = cycle_vertex_order(g)
    # the graph's own tuple for the edge from slot s to slot s + 1
    edge = [g.edges[g.edge_index(order[s], order[(s + 1) % n])] for s in range(n)]
    at, goal = [frm[v] for v in order], [to[v] for v in order]
    slot_of, home = list(inverse(at)), inverse(goal)
    flips: list[tuple[int, int]] = []

    def do_flip(i: int, j: int) -> None:
        # i and j are adjacent slots, taken mod n
        i, j = i % n, j % n
        flips.append(edge[i] if j == (i + 1) % n else edge[j])
        at[i], at[j] = at[j], at[i]
        slot_of[at[i]], slot_of[at[j]] = i, j

    a_lab, b_lab = [lab for lab in range(n) if lab not in privileged]

    # nudge b off a's home slot; the far neighbor's label is privileged
    if slot_of[b_lab] == home[a_lab]:
        s = slot_of[b_lab]
        step = 1 if at[(s + 1) % n] != a_lab else -1
        do_flip(s, s + step)

    def route(lab: int, dest: int, avoid: int) -> None:
        # walk lab around the cycle to slot dest, on the side missing avoid
        s = slot_of[lab]
        if s == dest:
            return
        fwd = (dest - s) % n
        step = 1 if (avoid - s) % n > fwd else -1
        while s != dest:
            do_flip(s, s + step)
            s = (s + step) % n

    route(a_lab, home[a_lab], slot_of[b_lab])
    route(b_lab, home[b_lab], home[a_lab])

    ha, hb = home[a_lab], home[b_lab]
    len1, len2 = (hb - ha) % n - 1, (ha - hb) % n - 1
    gate1, gate2 = (ha + 1) % n, (ha - 1) % n

    def in_arc1(lab: int) -> bool:
        return (home[lab] - gate1) % n < len1

    # exchange wrong-arc labels pairwise through the gate beside a's home;
    # labels before the first wrong one in either arc stay right, so each
    # scan resumes where the last one stopped
    k1 = k2 = 0
    while True:
        while k1 < len1 and in_arc1(at[(gate1 + k1) % n]):
            k1 += 1
        if k1 == len1:
            break
        while not in_arc1(at[(hb + 1 + k2) % n]):
            k2 += 1
        for s in range(gate1 + k1, gate1, -1):
            do_flip(s, s - 1)
        for s in range(hb + 1 + k2, hb + len2):
            do_flip(s, s + 1)
        do_flip(ha, gate1)
        do_flip(ha, gate2)
        do_flip(ha, gate1)

    # place each arc's labels; only privileged labels move
    for start, length in ((gate1, len1), ((hb + 1) % n, len2)):
        for k in range(length):
            j = (slot_of[goal[(start + k) % n]] - start) % n
            while j > k:
                do_flip(start + j - 1, start + j)
                j -= 1
    assert at == goal
    return flips


def puzzle_instance(side: int, b1: Sequence[int], b2: Sequence[int],
                    k: int) -> PrivilegedInstance:
    """Sliding-puzzle boards as a privileged relabeling instance.

    Boards are flat row-major permutations of 0..side*side-1; the blank is
    the largest label and is the only privileged one, so a board move is
    exactly one restricted flip on the grid.
    """
    if side < 1:
        raise ValueError("side must be >= 1")
    grid = make_family("grid", side)
    blank = side * side - 1
    return PrivilegedInstance(grid, "vertex", b1, b2, frozenset({blank}), k)
