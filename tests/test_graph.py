import random
import subprocess
import sys
from pathlib import Path

import pytest

import relabel.graph
from relabel.graph import (
    Graph,
    cycle_vertex_order,
    is_connected,
    is_cycle,
    is_path,
    is_tree,
    line_graph,
    make_family,
    path_vertex_order,
    prufer_elimination_order,
    spanning_tree,
    spanning_tree_not_path,
    tree_path,
)
from relabel.reductions import compile_vertex_flips_to_edge_flips, pendant_graph


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
    # on the 3x3 grid the edges come in BFS discovery order
    assert spanning_tree(make_family("grid", 3)).edges == (
        (0, 1), (0, 3), (1, 2), (1, 4), (3, 6), (2, 5), (4, 7), (5, 8))


def test_spanning_tree_of_empty_graph():
    assert spanning_tree(Graph(0, [])) == Graph(0, [])


def relabelled(g, rng):
    # g with its vertex indices randomly permuted
    name = list(range(g.n))
    rng.shuffle(name)
    return Graph(g.n, [(name[u], name[v]) for u, v in g.edges])


def test_path_and_cycle_orders_walk_the_graph():
    rng = random.Random(18)
    for n in (1, 2, 3, 4, 7, 30):
        for _ in range(10):
            p = relabelled(make_family("path", n), rng)
            order = path_vertex_order(p)
            assert order[0] == min((v for v in range(n) if p.degree(v) == 1), default=0)
            assert sorted(order) == list(range(n))
            assert all(p.has_edge(a, b) for a, b in zip(order, order[1:]))
            if n < 3:
                continue
            c = relabelled(make_family("cycle", n), rng)
            order = cycle_vertex_order(c)
            assert order[:2] == [0, min(c.adjacency[0])]
            assert sorted(order) == list(range(n))
            assert all(c.has_edge(a, b) for a, b in zip(order, order[1:] + order[:1]))


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


def assembled_graphs():
    """Every graph the library builds without a re-check, from small members."""
    graphs = [make_family(family, n) for family in ("path", "star", "complete")
              for n in range(1, 9)]
    graphs += [make_family("cycle", n) for n in range(3, 9)]
    graphs += [make_family("grid", side) for side in range(1, 5)]
    graphs += [make_family("random_connected", n, seed=seed, edge_probability=p)
               for seed in range(20) for n, p in ((6, 0.3), (7, 0.6), (8, 1.0))]
    graphs += [make_family("random_connected", n, seed=n) for n in range(1, 9)]
    trees = [spanning_tree(g) for g in graphs]
    trees += [spanning_tree_not_path(g) for g in graphs if not (is_path(g) or is_cycle(g))]
    return graphs + trees


def test_assembled_graphs_answer_like_checked_graphs(assert_like_checked):
    graphs = assembled_graphs()
    for g in graphs:
        assert_like_checked(g)
    for g in graphs[::3]:
        assert_like_checked(line_graph(g))
        assert_like_checked(pendant_graph(g))


def test_edge_index_is_built_on_first_lookup():
    lookups = (lambda g: [g.has_edge(u, v) for u in range(g.n) for v in range(g.n)],
               lambda g: [g.edge_index(v, u) for u, v in g.edges],
               lambda g: compile_vertex_flips_to_edge_flips(g, g.edges[::-1]))
    for lookup in lookups:
        g = make_family("random_connected", 8, seed=3)
        derived = [spanning_tree(g), line_graph(g), pendant_graph(g)]
        for built in [g] + derived:
            assert built._edge_index is None
        first = lookup(g)
        assert g._edge_index == {e: i for i, e in enumerate(g.edges)}
        assert lookup(g) == first == lookup(Graph(g.n, g.edges))
        assert all(built._edge_index is None for built in derived)
    # spanning_tree_not_path reads its first three edges' positions off
    # g's edge list, so neither g nor its tree builds an index
    for g in (make_family("star", 5), make_family("grid", 3),
              make_family("random_connected", 12, seed=4)):
        tree = spanning_tree_not_path(g)
        assert g._edge_index is None and tree._edge_index is None
    # Graph(n, edges) keeps the index its duplicate check built
    assert Graph(3, [(1, 0), (1, 2)])._edge_index == {(0, 1): 0, (1, 2): 1}


REFUSED_PROBABILITIES = """
import sys
sys.path.insert(0, {src!r})
from relabel.graph import make_family
for p in (0, 0.0, -1, float("nan"), 1.5, float("inf"), -float("inf")):
    for n in (1, 2, 5):
        try:
            make_family("random_connected", n, seed=0, edge_probability=p)
        except ValueError as err:
            print(err)
"""


def test_random_connected_refuses_a_probability_outside_0_1():
    # in a child with a timeout: before the check, p <= 0 and NaN redrew forever
    src = str(Path(relabel.graph.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", REFUSED_PROBABILITIES.format(src=src)],
                         capture_output=True, text=True, timeout=30, check=True).stdout
    lines = out.splitlines()
    assert len(lines) == 21
    assert all(line.startswith("edge_probability must be in (0, 1], got ") for line in lines)
    # p inside (0, 1] keeps its draws
    assert make_family("random_connected", 5, seed=0, edge_probability=1).m == 10
    assert make_family("random_connected", 6, seed=4, edge_probability=0.5).edges == (
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5))
