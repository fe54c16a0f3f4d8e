import random

import pytest

from relabel.graph import (
    Graph,
    is_connected,
    is_cycle,
    is_path,
    is_tree,
    line_graph,
    make_family,
    prufer_elimination_order,
    spanning_tree,
    spanning_tree_not_path,
    tree_path,
)


def random_tree(n, rng):
    return Graph(n, [(rng.randint(0, i - 1), i) for i in range(1, n)])


def test_family_examples():
    assert make_family("path", 3).edges == ((0, 1), (1, 2))
    assert make_family("star", 4).edges == ((0, 1), (0, 2), (0, 3))
    assert make_family("cycle", 3).edges == ((0, 1), (1, 2), (0, 2))
    assert make_family("complete", 4).m == 6
    g = make_family("grid", 3)
    assert g.n == 9 and g.m == 12 and g.has_edge(4, 5) and g.has_edge(4, 7)


def test_family_errors():
    with pytest.raises(ValueError):
        make_family("cycle", 2)
    with pytest.raises(ValueError):
        make_family("path", 0)
    with pytest.raises(ValueError):
        make_family("wheel", 5)


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])


def test_random_connected_reproducible():
    for seed in range(20):
        n = 5 + seed * 2
        g1 = make_family("random_connected", n, seed=seed)
        g2 = make_family("random_connected", n, seed=seed)
        assert g1 == g2
        assert is_connected(g1)


def test_spanning_tree_of_tree_is_itself():
    star = make_family("star", 4)
    assert spanning_tree(star).edges == star.edges


def test_spanning_tree_bfs_tie_breaks():
    # BFS from 0 keeps both edges at 0 on the 4-cycle and drops {2,3}
    assert spanning_tree(make_family("cycle", 4)).edges == ((0, 1), (0, 3), (1, 2))
    # on K_3 both other vertices are reached directly from 0
    assert spanning_tree(make_family("complete", 3)).edges == ((0, 1), (0, 2))


def test_spanning_tree_disconnected():
    with pytest.raises(ValueError):
        spanning_tree(Graph(4, [(0, 1), (2, 3)]))


def test_spanning_tree_properties():
    rng = random.Random(1)
    for trial in range(25):
        n = rng.randint(2, 50)
        g = make_family("random_connected", n, seed=trial)
        t = spanning_tree(g)
        assert t.m == n - 1
        assert is_connected(t)
        assert set(t.edges) <= set(g.edges)


def test_prufer_examples():
    assert prufer_elimination_order(make_family("path", 3)) == (0, 1, 2)
    # strict lowest-leaf rule: once only {0, 3} remain, 0 is the lowest leaf
    assert prufer_elimination_order(make_family("star", 4)) == (1, 2, 0, 3)
    assert prufer_elimination_order(make_family("path", 1)) == (0,)


def test_prufer_non_tree():
    with pytest.raises(ValueError):
        prufer_elimination_order(make_family("cycle", 3))


def test_prufer_replay():
    rng = random.Random(5)
    for trial in range(30):
        n = rng.randint(1, 20)
        t = random_tree(n, rng)
        order = prufer_elimination_order(t)
        assert sorted(order) == list(range(n))
        alive = set(range(n))
        degree = {v: t.degree(v) for v in range(n)}
        for v in order[:-1]:
            leaves = [x for x in alive if degree[x] == 1]
            assert v == min(leaves)
            alive.discard(v)
            for u in t.adjacency[v]:
                if u in alive:
                    degree[u] -= 1


def test_line_graph_examples():
    lp3 = line_graph(make_family("path", 3))
    assert lp3.n == 2 and lp3.edges == ((0, 1),)
    lstar = line_graph(make_family("star", 4))
    assert lstar.edges == ((0, 1), (0, 2), (1, 2))
    lp4 = line_graph(make_family("path", 4))
    assert lp4.edges == ((0, 1), (1, 2))


def test_line_graph_degree_formula():
    rng = random.Random(9)
    for trial in range(15):
        g = make_family("random_connected", rng.randint(2, 12), seed=trial + 100)
        lg = line_graph(g)
        assert lg.n == g.m
        for idx, (u, v) in enumerate(g.edges):
            assert lg.degree(idx) == g.degree(u) + g.degree(v) - 2


def test_spanning_tree_not_path():
    star = make_family("star", 4)
    assert spanning_tree_not_path(star).edges == star.edges
    t = spanning_tree_not_path(make_family("complete", 4))
    assert is_tree(t) and max(t.degree(v) for v in range(4)) >= 3
    with pytest.raises(ValueError):
        spanning_tree_not_path(make_family("cycle", 5))
    with pytest.raises(ValueError):
        spanning_tree_not_path(make_family("path", 4))


def test_classification():
    assert is_path(make_family("path", 5))
    assert not is_cycle(make_family("path", 5))
    c5 = make_family("cycle", 5)
    assert is_cycle(c5) and not is_path(c5) and not is_tree(c5)
    star = make_family("star", 4)
    assert is_tree(star) and not is_path(star) and not is_cycle(star)
    assert is_path(make_family("path", 1))


def test_tree_path():
    rng = random.Random(3)
    for trial in range(20):
        n = rng.randint(2, 25)
        t = random_tree(n, rng)
        u, v = rng.sample(range(n), 2)
        path = tree_path(t, u, v)
        assert path[0] == u and path[-1] == v
        assert len(set(path)) == len(path)
        for a, b in zip(path, path[1:]):
            assert t.has_edge(a, b)


def test_is_connected_is_kept_on_each_graph(connectivity_searches):
    # K_{1,3} plus an isolated vertex: one search, then the kept False
    g = Graph(5, [(0, 1), (0, 2), (0, 3)])
    assert [is_connected(g) for _ in range(3)] == [False] * 3
    assert not is_tree(g) and not is_path(g) and not is_cycle(g)
    for build in (spanning_tree, spanning_tree_not_path):
        with pytest.raises(ValueError, match="not connected"):
            build(g)
    # its line graph is K_3, a new graph that answers for itself
    lg = line_graph(g)
    assert is_connected(lg) and is_cycle(lg)
    # so does a spanning tree, also when its graph has answered already
    grid = make_family("grid", 3)
    tree = spanning_tree(grid)
    assert is_tree(tree) and is_connected(grid)
    assert [id(x) for x in connectivity_searches] == [id(g), id(lg), id(grid), id(tree)]
