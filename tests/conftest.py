import sys
from collections import deque

import pytest

import relabel.graph
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
