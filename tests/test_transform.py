import itertools
import random
from collections import deque

import pytest

from relabel.graph import Graph, line_graph, make_family, prufer_elimination_order, spanning_tree
from relabel.labeling import (
    apply_vertex_sequence,
    identity_labeling,
    relative_permutation,
    validate_vertex_labeling,
)
from relabel.oracle import (
    CapacityError,
    ConfigurationSpace,
    bfs_distance,
    diameter,
    distance_map,
    reachable_in_exactly,
)
from relabel.perm import parity
from relabel.transform import (
    METHODS,
    Distance,
    _transform_steps,
    distance,
    distance_upper_bound,
    spanning_tree_transform,
)


def test_transform_examples():
    p4 = make_family("path", 4)
    ident = identity_labeling(4)
    assert spanning_tree_transform(p4, ident, ident) == []
    seq = spanning_tree_transform(p4, (3, 2, 1, 0), ident)
    assert len(seq) <= 6
    assert apply_vertex_sequence(p4, (3, 2, 1, 0), seq) == ident


def test_transform_random_large():
    rng = random.Random(17)
    g = make_family("random_connected", 20, seed=0)
    a = tuple(rng.sample(range(20), 20))
    b = tuple(rng.sample(range(20), 20))
    seq = spanning_tree_transform(g, a, b)
    assert len(seq) <= 190
    assert apply_vertex_sequence(g, a, seq) == b


def test_per_iteration_flip_budget():
    # iteration k may use at most the residual tree's edge count
    rng = random.Random(23)
    for trial in range(20):
        n = rng.randint(2, 15)
        g = make_family("random_connected", n, seed=trial + 500)
        a = tuple(rng.sample(range(n), n))
        b = tuple(rng.sample(range(n), n))
        for k, (v, flips) in enumerate(_transform_steps(g, a, b)):
            assert len(flips) <= n - 1 - k


def _residual_bfs_steps(g, labels, target):
    # reference: a fresh BFS over the residual tree for every placed label
    frm = validate_vertex_labeling(g, labels)
    to = validate_vertex_labeling(g, target)
    tree = spanning_tree(g)
    order = prufer_elimination_order(tree)
    adj = {v: set(tree.adjacency[v]) for v in range(tree.n)}
    cur = list(frm)
    steps = []
    for v in order[:-1]:
        flips = []
        holder = cur.index(to[v])
        if holder != v:
            parent = {holder: holder}
            queue = deque([holder])
            while queue:
                x = queue.popleft()
                if x == v:
                    break
                for y in adj[x]:
                    if y not in parent:
                        parent[y] = x
                        queue.append(y)
            path = [v]
            while path[-1] != holder:
                path.append(parent[path[-1]])
            path.reverse()
            for a, b in zip(path, path[1:]):
                flips.append((min(a, b), max(a, b)))
                cur[a], cur[b] = cur[b], cur[a]
        steps.append((v, flips))
        for w in adj[v]:
            adj[w].discard(v)
        del adj[v]
    assert cur == list(to)
    return steps


def test_transform_steps_match_residual_bfs_reference():
    rng = random.Random(53)
    graphs = [make_family("random_connected", 1 + seed % 60, seed=seed)
              for seed in range(240)]
    graphs += [make_family("path", 12), make_family("star", 12),
               make_family("cycle", 12), make_family("grid", 5),
               make_family("complete", 8)]
    # long climbs on the holder's side, on v's side and on both; at
    # p = 0.01 a 300-vertex draw is almost never connected, so p = 0.02
    graphs += [make_family("path", 300), make_family("cycle", 300),
               make_family("grid", 12), make_family("star", 300),
               make_family("random_connected", 300, seed=4, edge_probability=0.02)]
    for g in graphs:
        ident = identity_labeling(g.n)
        reversal = tuple(reversed(ident))
        pairs = [(ident, ident), (reversal, ident), (ident, reversal),
                 (tuple(rng.sample(range(g.n), g.n)), tuple(rng.sample(range(g.n), g.n)))]
        tree_edges = set(spanning_tree(g).edges)
        for a, b in pairs:
            steps = list(_transform_steps(g, a, b))
            assert steps == _residual_bfs_steps(g, a, b)
            cur = list(a)
            for v, flips in steps:
                # the label bound for v walks along tree edges and stops at v
                at = cur.index(b[v])
                for x, y in flips:
                    assert (x, y) in tree_edges and at in (x, y)
                    at = y if at == x else x
                    cur[x], cur[y] = cur[y], cur[x]
                assert at == v and cur[v] == b[v]


def test_transform_shares_one_tuple_per_tree_edge():
    # every flip across a tree edge is the same tuple object
    rng = random.Random(59)
    for g in (make_family("path", 200), make_family("star", 200),
              make_family("random_connected", 200, seed=3)):
        a = tuple(rng.sample(range(g.n), g.n))
        b = tuple(rng.sample(range(g.n), g.n))
        flips = spanning_tree_transform(g, a, b)
        assert len(flips) > g.n and apply_vertex_sequence(g, a, flips) == b
        assert len({id(f) for f in flips}) <= g.n - 1


def test_tree_bound_is_the_transform_length_past_capacity():
    rng = random.Random(67)
    for g in (make_family("random_connected", 40, seed=8), make_family("grid", 6),
              make_family("cycle", 30), make_family("complete", 12)):
        a = tuple(rng.sample(range(g.n), g.n))
        b = tuple(rng.sample(range(g.n), g.n))
        for method in ("auto", "tree-bound"):
            assert distance(g, a, b, method) == \
                (len(spanning_tree_transform(g, a, b)), False, "tree-bound")


def test_upper_bound_values():
    assert distance_upper_bound(make_family("path", 5)) == 10
    assert distance_upper_bound(make_family("path", 1)) == 0
    # edge labelings: the bound on the line graph, m(m-1)/2
    assert distance_upper_bound(line_graph(make_family("path", 5))) == 6


def test_p_g_agrees_with_closed_forms():
    # auto answers paths and stars by their closed forms, equal to the BFS
    # distance on every ordered pair of P_5 and K_{1,4}, in canonical order
    # and with the path 3-1-4-0-2 and the center at 2; the bfs method gives
    # the same on every tenth target
    labelings = list(itertools.permutations(range(5)))
    for g, method in ((make_family("path", 5), "path"),
                      (Graph(5, [(1, 3), (1, 4), (0, 4), (0, 2)]), "path"),
                      (make_family("star", 5), "star"),
                      (Graph(5, [(0, 2), (1, 2), (2, 3), (2, 4)]), "star")):
        space = ConfigurationSpace(g)
        for a in labelings:
            dist = distance_map(space, a)
            for b in labelings:
                assert distance(g, a, b) == (dist[b], True, method)
            for b in labelings[::10]:
                assert distance(g, a, b, "bfs") == (dist[b], True, "bfs")


def test_distance_rejects_what_no_method_answers():
    p4 = make_family("path", 4)
    k4 = make_family("complete", 4)
    ident = identity_labeling(4)
    for g, method in ((k4, "path"), (k4, "star"), (make_family("star", 4), "path"),
                      (p4, "star"), (make_family("cycle", 4), "star")):
        with pytest.raises(ValueError, match=f"method {method} needs"):
            distance(g, ident, ident, method)
    with pytest.raises(ValueError, match="method must be one of"):
        distance(p4, ident, ident, "astar")
    # on a disconnected graph BFS (bfs, and auto within capacity) gives the
    # oracle's distance for every target in the source's component and
    # refuses every other target, whatever the capacity, since the oracle's
    # invariants rule it out before any search; the tree bound, and auto
    # past capacity, need a connected graph
    two_edges = Graph(4, [(0, 1), (2, 3)])
    dist = distance_map(ConfigurationSpace(two_edges), ident)
    assert len(dist) == 4 and dist[(1, 0, 3, 2)] == 2
    for b in itertools.permutations(range(4)):
        for method in ("auto", "bfs"):
            if b in dist:
                assert distance(two_edges, ident, b, method) == (dist[b], True, "bfs")
            else:
                with pytest.raises(ValueError, match="different components"):
                    distance(two_edges, ident, b, method)
        with pytest.raises(ValueError, match="not connected"):
            distance(two_edges, ident, b, "tree-bound")
        with pytest.raises(ValueError, match="not connected" if b in dist
                           else "different components"):
            distance(two_edges, ident, b, "auto", capacity=23)
    # a long labeling is refused, not truncated by the path or star reorder
    applies = {"auto": p4, "path": p4, "star": make_family("star", 4), "bfs": k4,
               "tree-bound": k4}
    for method in METHODS:
        with pytest.raises(ValueError, match="need 4 labels"):
            distance(applies[method], (0, 1, 2, 3, 4), ident, method)
        with pytest.raises(ValueError, match="need 4 labels"):
            distance(applies[method], ident, (0, 1, 2), method)


def test_distance_falls_back_past_capacity():
    g = make_family("random_connected", 12, seed=4)
    ident = identity_labeling(12)
    rev = tuple(reversed(ident))
    with pytest.raises(CapacityError):
        distance(g, ident, rev, "bfs")
    out = distance(g, ident, rev)
    assert out == Distance(len(spanning_tree_transform(g, ident, rev)), False, "tree-bound")
    assert out._asdict() == {"distance": out.distance, "exact": False,
                             "method": "tree-bound"}
    assert out.distance <= 66 and out.distance % 2 == parity(relative_permutation(ident, rev))
    # the capacity passed decides between the two on C_6 (6! = 720 states)
    c6 = make_family("cycle", 6)
    rev6 = tuple(reversed(range(6)))
    d = bfs_distance(ConfigurationSpace(c6), rev6, identity_labeling(6))
    assert distance(c6, rev6, identity_labeling(6)) == (d, True, "bfs")
    assert distance(c6, rev6, identity_labeling(6), capacity=719) == \
        (len(spanning_tree_transform(c6, rev6, identity_labeling(6))), False, "tree-bound")
    with pytest.raises(CapacityError):
        distance(c6, rev6, identity_labeling(6), "bfs", 719)


def test_distance_searches_connectivity_once_per_graph(connectivity_searches):
    # past capacity, auto reads g's shape four times and the transform
    # reads its spanning tree's once: one search of each graph, and a
    # second request searches only its own new spanning tree
    g = make_family("random_connected", 12, seed=4)
    g = Graph(g.n, g.edges)  # a copy with no answer kept yet
    connectivity_searches.clear()
    ident = identity_labeling(12)
    rev = tuple(reversed(ident))
    assert distance(g, ident, rev).method == "tree-bound"
    assert [x is g for x in connectivity_searches] == [True, False]
    assert connectivity_searches[1].m == g.n - 1
    assert distance(g, rev, ident).method == "tree-bound"
    assert [x is g for x in connectivity_searches] == [True, False, False]
    assert len({id(x) for x in connectivity_searches}) == 3


def test_p_g_diameter_values():
    for g, d in ((make_family("path", 5), 10), (make_family("star", 5), 6),
                 (make_family("complete", 3), 2)):
        assert diameter(ConfigurationSpace(g)) == d


def test_p_g_diameter_k3_brute_force():
    # independent check: maximize pairwise BFS over all labeling pairs
    k3 = make_family("complete", 3)
    space = ConfigurationSpace(k3)
    labelings = list(itertools.permutations(range(3)))
    worst = max(distance_map(space, a)[b] for a in labelings for b in labelings)
    assert worst == 2 == diameter(space)


def test_vertex_transitivity():
    rng = random.Random(41)
    for g in (make_family("cycle", 4), make_family("complete", 4),
              make_family("star", 5)):
        space = ConfigurationSpace(g)
        ident = identity_labeling(g.n)
        for _ in range(10):
            a = tuple(rng.sample(range(g.n), g.n))
            b = tuple(rng.sample(range(g.n), g.n))
            assert bfs_distance(space, a, b) == \
                bfs_distance(space, relative_permutation(a, b), ident)


def test_distance_parity_equals_relative_parity():
    rng = random.Random(43)
    g = make_family("random_connected", 5, seed=77)
    for _ in range(20):
        a = tuple(rng.sample(range(5), 5))
        b = tuple(rng.sample(range(5), 5))
        assert distance(g, a, b, "bfs").distance % 2 == parity(relative_permutation(a, b))
