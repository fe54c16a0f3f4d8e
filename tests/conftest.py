import sys
from collections import deque

import pytest

import relabel.graph
import relabel.labeling
from relabel.graph import Graph, is_connected
from relabel.labeling import apply_edge_flip, edges_share_endpoint


@pytest.fixture
def connectivity_searches(monkeypatch):
    """The graphs graph.is_connected searched, one entry per O(n + m) search.

    Wraps graph's one breadth-first search and keeps the graph of each
    call is_connected makes, so reading a kept answer records nothing.
    """
    searched = []
    bfs = relabel.graph._bfs

    def recording_bfs(g, *args):
        if sys._getframe(1).f_code is relabel.graph.is_connected.__code__:
            searched.append(g)
        return bfs(g, *args)

    monkeypatch.setattr(relabel.graph, "_bfs", recording_bfs)
    return searched


@pytest.fixture
def permutation_checks(monkeypatch):
    """The length of each labeling a labeling validator checked.

    Wraps the is_permutation that validate_vertex_labeling and
    validate_edge_labeling call, so every check of a record's labelings
    appends one entry.
    """
    checked = []
    check = relabel.labeling.is_permutation

    def counting(p):
        checked.append(len(p))
        return check(p)

    monkeypatch.setattr(relabel.labeling, "is_permutation", counting)
    return checked


@pytest.fixture
def brute_edge_distances():
    """Edge-flip BFS distances straight off the edge list.

    Uses neither relabel.oracle nor line_graph, so it is an independent
    reference for the oracle's edge mode and for the edge-to-vertex map.
    """

    def distances(g, source):
        pairs = [(i, j) for i in range(g.m) for j in range(i + 1, g.m)
                 if edges_share_endpoint(g, i, j)]
        dist = {tuple(source): 0}
        queue = deque([tuple(source)])
        while queue:
            state = queue.popleft()
            for pair in pairs:
                nxt = apply_edge_flip(g, state, pair)
                if nxt not in dist:
                    dist[nxt] = dist[state] + 1
                    queue.append(nxt)
        return dist

    return distances


@pytest.fixture
def assert_like_checked():
    """Asserts that a graph the library assembled answers as Graph(n, edges).

    Compares equality, hash, edges, rows, connectivity, has_edge on every
    ordered pair, and edge_index both ways, its ValueError text included.
    """

    def index_or_error(g, u, v):
        try:
            return g.edge_index(u, v)
        except ValueError as err:
            return str(err)

    def compare(got):
        want = Graph(got.n, got.edges)
        assert got == want and hash(got) == hash(want)
        assert got.n == want.n and got.edges == want.edges
        assert got.adjacency == want.adjacency
        assert is_connected(got) == is_connected(want)
        pairs = [(u, v) for u in range(want.n) for v in range(want.n)]
        assert [got.has_edge(u, v) for u, v in pairs] == [want.has_edge(u, v) for u, v in pairs]
        assert [index_or_error(got, u, v) for u, v in pairs] == \
            [index_or_error(want, u, v) for u, v in pairs]
        assert getattr(got, "nope", None) is None and not hasattr(got, "nope")

    return compare
