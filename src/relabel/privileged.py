"""Relabeling with privileged labels.

A restricted flip is legal only when at least one of the two swapped
labels is privileged.  This module provides the restricted-flip check,
the path order and cycle orientation invariants, the tree swaps SW(u, v)
and their composition, the constructive solver, the solvability decider
and the sliding-puzzle instance builder.  Theorems decide every path
(solved optimally), every graph with at most two non-privileged labels
and every cycle failing its invariant; the rest, three or more
non-privileged labels on a non-path, is left to the BFS oracle.
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
    _unchecked,
    edges_share_endpoint,
    validate_edge_labeling,
    validate_vertex_labeling,
)
from .perm import inverse


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
    method: str | None   # "theorem" | "invariant", None while unknown_use_oracle


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
    return _path_order_holds(inst, path_vertex_order(inst.graph))


def _path_order_holds(inst: PrivilegedInstance, order: Sequence[int]) -> bool:
    # path_order_invariant along the path's vertex order
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
    # labels are distinct, so only the rotation starting at seq_to[0] can match
    i = seq_from.index(seq_to[0])
    return seq_from[i:] + seq_from[:i] == seq_to


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
    path, edges = rt.path(u, v)
    on_path = [x for x in nonpriv if x in path]
    if len(on_path) <= 1:
        # one SW, whose check this count already passed
        cur[u], cur[v] = cur[v], cur[u]
        return edges + edges[-2::-1]

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

    yes by theorem: at most one non-privileged label, a path whose
    non-privileged labels keep their order, or exactly two on any other
    graph.  no by invariant: a failed path order or cycle orientation
    invariant.  unknown_use_oracle: three or more on a non-path that no
    invariant rules out.  Edge instances are decided on the line graph,
    where restricted edge flips are restricted vertex flips.

    >>> from relabel.graph import make_family
    >>> solvable(PrivilegedInstance(make_family("path", 4), "vertex", (0, 1, 3, 2),
    ...                             (3, 0, 1, 2), frozenset({3})))
    Solvability(answer='yes', method='theorem')
    """
    if inst.kind == "edge":
        inst = _line_graph_instance(inst)
    return _decide(inst)[0]


def _decide(inst: PrivilegedInstance) -> tuple[Solvability, list[int] | None]:
    # solvable on a vertex instance, with the path's vertex order when it
    # was read, so that the transform reads the graph's shape no second time
    g = inst.graph
    if not is_connected(g):
        raise ValueError("graph is not connected")
    k = len(inst.nonprivileged())
    if k <= 1 or inst.from_labels == inst.to_labels:
        return Solvability("yes", "theorem"), None
    if is_path(g):
        order = path_vertex_order(g)
        if not _path_order_holds(inst, order):
            return Solvability("no", "invariant"), order
        return Solvability("yes", "theorem"), order
    if k == 2:
        return Solvability("yes", "theorem"), None
    if is_cycle(g) and not cycle_orientation_invariant(inst):
        return Solvability("no", "invariant"), None
    return Solvability("unknown_use_oracle", None), None


def _line_graph_instance(inst: PrivilegedInstance) -> PrivilegedInstance:
    # the edge instance as a vertex instance on the line graph, whose
    # vertex i is edge i: the checked labelings and privileged set carry
    # over, counted against the same m, and are not checked again
    return _unchecked(PrivilegedInstance, graph=line_graph(inst.graph), kind="vertex",
                      from_labels=inst.from_labels, to_labels=inst.to_labels,
                      privileged=inst.privileged, t=inst.t)


def resolve_solvable(inst: PrivilegedInstance, want_witness: bool = False,
                     capacity: int | None = None
                     ) -> tuple[str, str, list[tuple[int, int]] | None]:
    """Full decision: theory first, restricted BFS for the deferred cases.

    Returns (answer, method, witness); the witness is a restricted flip
    sequence when requested and the answer is yes.  What solvable leaves
    unknown goes to the oracle within capacity (None: CAPACITY_LIMIT),
    whose witness is a shortest one.
    """
    vinst = inst if inst.kind == "vertex" else _line_graph_instance(inst)
    dec, order = _decide(vinst)
    if dec.answer == "yes":
        witness = _transform(vinst, order) if want_witness else None
        return "yes", dec.method, witness
    if dec.answer == "no":
        return "no", dec.method, None
    from .oracle import ConfigurationSpace, shortest_flip_sequence
    space = ConfigurationSpace(vinst.graph, privileged=vinst.privileged,
                               capacity=capacity)
    seq = shortest_flip_sequence(space, vinst.from_labels, vinst.to_labels)
    if seq is None:
        return "no", "oracle", None
    return "yes", "oracle", seq if want_witness else None


def privileged_transform(inst: PrivilegedInstance) -> list[tuple[int, int]]:
    """A restricted flip sequence from the instance's source to its target.

    With at most one non-privileged label every flip is legal and the
    spanning tree transformation applies.  On a path, with any number,
    path_flip_sequence along the path is legal and optimal: each flip
    removes one inversion, and no two non-privileged labels are inverted.
    With two elsewhere, cycles rotate the non-privileged labels home and
    sort the rest through a gate next to one of them, and other graphs
    compose tree_swap_sequence transpositions on a non-path spanning tree;
    neither minimizes length.  Three or more off a path raise ValueError.
    Edge instances are solved on the line graph, where the flips are edge
    flips.  Raises UnsolvableError when no sequence exists.

    Paths take O(n log n + flips) time, each label's walk being one slice
    of the path's edge tuples.  With two non-privileged labels,
    trees take O(n + flips) after building the spanning tree, plus an O(n)
    search each time the two trade places, and cycles O(n + flips), each
    run of flips that carries one label being one slice of the cycle's
    edge tuples.  Every flip is its graph's, spanning tree's or cycle's
    own edge tuple, shared by every flip across that edge.
    """
    if inst.kind == "edge":
        inst = _line_graph_instance(inst)
    # _decide raises ValueError on a disconnected graph
    dec, order = _decide(inst)
    if dec.answer == "no":
        raise UnsolvableError("certified by the order/orientation invariant")
    return _transform(inst, order)


def _transform(inst: PrivilegedInstance, order: list[int] | None
               ) -> list[tuple[int, int]]:
    # privileged_transform on a vertex instance _decide did not answer no,
    # with the path order it read, or None where it read none
    g = inst.graph
    frm, to = inst.from_labels, inst.to_labels
    if frm == to:
        return []
    nonpriv = inst.nonprivileged()
    if len(nonpriv) <= 1:
        from .transform import spanning_tree_transform
        return spanning_tree_transform(g, frm, to)
    if order is not None:
        from .exact_path import _path_flips
        edge = [g.edges[g.edge_index(u, v)] for u, v in zip(order, order[1:])]
        return _path_flips([frm[v] for v in order], [to[v] for v in order], edge)
    if len(nonpriv) > 2:
        raise ValueError("at most two non-privileged labels supported off a path")
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
    # works on slots, the positions along cycle_vertex_order turned so
    # that slot 0 is a's home: edge[r] joins slots r and r + 1, and
    # edge[n - 1] joins n - 1 and 0.  A run of flips carrying one label
    # from slot j down to slot i < j is edge[i:j][::-1], from i up to j
    # is edge[i:j], and moves the labels by one rotation of at[i:j + 1];
    # only the nudge, a's forward route and the gate cross slot 0.
    n, last = g.n, g.n - 1
    a_lab, b_lab = [lab for lab in range(n) if lab not in privileged]
    order = cycle_vertex_order(g)
    r = order.index(to.index(a_lab))
    order = order[r:] + order[:r]
    # the graph's own tuple for each edge
    edge = [g.edges[g.edge_index(u, v)] for u, v in zip(order, order[1:] + order[:1])]
    at, goal = [frm[v] for v in order], [to[v] for v in order]
    home = inverse(goal)
    hb = home[b_lab]
    flips: list[tuple[int, int]] = []

    # nudge b off slot 0; the far neighbor's label is privileged
    if at[0] == b_lab:
        s = 1 if at[1] != a_lab else last
        flips.append(edge[0] if s == 1 else edge[last])
        at[0], at[s] = at[s], b_lab

    # a home to slot 0 on the side missing b, then b home without passing 0
    sa, sb = at.index(a_lab), at.index(b_lab)
    if sb < sa:
        flips += edge[sa:last]
        flips.append(edge[last])
        at[sa:] = at[sa + 1:] + [at[0]]
        at[0] = a_lab
    elif sa:
        flips += edge[:sa][::-1]
        at[:sa + 1] = [a_lab] + at[:sa]
    if sb < hb:
        flips += edge[sb:hb]
        at[sb:hb + 1] = at[sb + 1:hb + 1] + [b_lab]
    elif sb > hb:
        flips += edge[hb:sb][::-1]
        at[hb:sb + 1] = [b_lab] + at[hb:sb]

    # the arcs are slots 1..hb - 1 and hb + 1..n - 1; exchange wrong-arc
    # labels pairwise: carry one down to slot 1 and one up to slot n - 1,
    # and let the gate triple across a's home swap them.  Labels before
    # the first wrong one in either arc stay right, so each scan resumes
    # where the last one stopped
    k1, k2 = 1, hb + 1
    while True:
        while k1 < hb and home[at[k1]] < hb:
            k1 += 1
        if k1 == hb:
            break
        while home[at[k2]] > hb:
            k2 += 1
        flips += edge[1:k1][::-1]
        at[1:k1 + 1] = [at[k1]] + at[1:k1]
        flips += edge[k2:last]
        at[k2:] = at[k2 + 1:] + [at[k2]]
        flips += edge[0], edge[last], edge[0]
        at[1], at[last] = at[last], at[1]

    # place each slot's label from further along its arc; only privileged
    # labels move
    for k in range(1, n):
        j = at.index(goal[k], k)
        if j > k:
            flips += edge[k:j][::-1]
            at[k:j + 1] = [at[j]] + at[k:j]
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
