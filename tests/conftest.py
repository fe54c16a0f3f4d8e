import sys
from collections import deque

import pytest

import relabel.graph
from relabel.labeling import apply_edge_flip, edges_share_endpoint


@pytest.fixture
def connectivity_searches(monkeypatch):
    """The graphs graph.is_connected searched, one entry per O(n + m) search.

    Wraps the queue that graph's searches build and keeps the graph of each
    one is_connected builds, so reading a kept answer records nothing.
    """
    searched = []

    class Queue(deque):
        def __init__(self, *args):
            caller = sys._getframe(1)
            if caller.f_code is relabel.graph.is_connected.__code__:
                searched.append(caller.f_locals["g"])
            super().__init__(*args)

    monkeypatch.setattr(relabel.graph, "deque", Queue)
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
