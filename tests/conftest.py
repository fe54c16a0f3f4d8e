from collections import deque

import pytest

from relabel.labeling import apply_edge_flip, edges_share_endpoint


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
