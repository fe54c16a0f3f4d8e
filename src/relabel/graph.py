"""Simple undirected graphs with deterministic constructions.

Vertices are 0..n-1.  The edge list order is significant: edge labelings
align with ``Graph.edges`` by index.  All tie-breaking is by lowest vertex
or edge index so every construction is reproducible.  Every traversal
here is the one breadth-first search ``_bfs``, except ``tree_path``, kept
as the independent reference the tests compare against.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Iterable, Sequence

FAMILIES = ("path", "star", "cycle", "grid", "complete", "random_connected")
# make_family refuses a member with more vertices, or more (candidate) edges, than this
FAMILY_SIZE_LIMIT = 10 ** 7


class Graph:
    """Simple undirected graph: no loops, no duplicate edges."""

    __slots__ = ("n", "edges", "adjacency", "_edge_index", "_connected")

    def __init__(self, n: int, edges: Iterable[Sequence[int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        normalized = []
        index: dict[tuple[int, int], int] = {}
        for e in edges:
            u, v = e
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            key = (u, v) if u < v else (v, u)
            if key in index:
                raise ValueError(f"duplicate edge {key}")
            index[key] = len(normalized)
            normalized.append(key)
        self.n = n
        self.edges = tuple(normalized)
        self._edge_index = index
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adjacency = tuple(tuple(sorted(nb)) for nb in adj)
        self._connected: bool | None = None  # is_connected's answer, once searched

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._edge_index

    def edge_index(self, u: int, v: int) -> int:
        """Index of edge {u, v} in the edge list."""
        try:
            return self._edge_index[(u, v) if u < v else (v, u)]
        except KeyError:
            raise ValueError(f"({u},{v}) is not an edge") from None

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _bfs(g: Graph, root: int = 0, block: int = -1
         ) -> tuple[list[int], list[int], list[int]]:
    """Breadth-first search from root, neighbours in index order, that
    never enters block: the vertices in discovery order, each vertex's
    parent (root's is root, -1 where not reached) and its depth (0 where
    not reached).  On n = 0 the order is empty."""
    parent, depth = [-1] * g.n, [0] * g.n
    if not g.n:
        return [], parent, depth
    if block >= 0:
        parent[block] = block  # seen, so never entered
    parent[root] = root
    order = [root]
    adjacency = g.adjacency
    for u in order:  # grows as it is read
        d = depth[u] + 1
        for v in adjacency[u]:
            if parent[v] < 0:
                parent[v], depth[v] = u, d
                order.append(v)
    if block >= 0:
        parent[block] = -1
    return order, parent, depth


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from every other (n = 0 counts).

    The first call on a graph runs one O(n + m) search and keeps the
    answer on the graph; a Graph never changes, so later calls, and the
    shape tests built on this one, read it back in O(1).
    """
    if g._connected is None:
        g._connected = len(_bfs(g)[0]) == g.n
    return g._connected


def make_family(family: str, n: int, seed: int | None = None,
                edge_probability: float | None = None) -> Graph:
    """Build a canonical member of a named graph family.

    path: 0-1-...-(n-1).  star: center 0.  cycle: 0-1-...-(n-1)-0.
    grid: n is the side length, vertices row-major.  complete: K_n.
    random_connected: Erdos-Renyi, redrawn until connected.
    Raises ValueError, before building anything, for a member with more
    than FAMILY_SIZE_LIMIT vertices or edges; random_connected counts
    every candidate pair, since it draws one random number per pair.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    if n < 1:
        raise ValueError(f"size must be >= 1, got {n}")
    vertices = n * n if family == "grid" else n
    edges = {"grid": 2 * n * (n - 1), "complete": n * (n - 1) // 2,
             "random_connected": n * (n - 1) // 2}.get(family, n)
    if max(vertices, edges) > FAMILY_SIZE_LIMIT:
        raise ValueError(f"{family} of size {n} needs {vertices} vertices and up to "
                         f"{edges} edges; the limit is {FAMILY_SIZE_LIMIT} of each")
    if family == "path":
        return Graph(n, [(i, i + 1) for i in range(n - 1)])
    if family == "star":
        return Graph(n, [(0, i) for i in range(1, n)])
    if family == "cycle":
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        return Graph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
    if family == "grid":
        side = n
        edges = []
        for r in range(side):
            for c in range(side):
                i = r * side + c
                if c + 1 < side:
                    edges.append((i, i + 1))
                if r + 1 < side:
                    edges.append((i, i + side))
        return Graph(side * side, edges)
    if family == "complete":
        return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    # random_connected
    rng = random.Random(seed)
    if edge_probability is None:
        edge_probability = min(1.0, (math.log(n) + 1.5) / n) if n > 1 else 1.0
    while True:
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < edge_probability
        ]
        g = Graph(n, edges)
        if is_connected(g):
            return g


def spanning_tree(g: Graph) -> Graph:
    """BFS spanning tree from vertex 0, visiting neighbors in index order."""
    if not is_connected(g):
        raise ValueError("graph is not connected")
    order, parent, _ = _bfs(g)
    return Graph(g.n, [(parent[v], v) for v in order[1:]])


def is_tree(g: Graph) -> bool:
    return is_connected(g) and g.m == g.n - 1


def is_path(g: Graph) -> bool:
    """True for connected graphs that are simple paths (including n = 1)."""
    return (g.m == g.n - 1 and all(g.degree(v) <= 2 for v in range(g.n))
            and is_connected(g))


def is_cycle(g: Graph) -> bool:
    return (g.n >= 3 and g.m == g.n and all(g.degree(v) == 2 for v in range(g.n))
            and is_connected(g))


def prufer_elimination_order(t: Graph) -> tuple[int, ...]:
    """Order in which leaves are deleted, lowest-index leaf first.

    The classic construction stops at two vertices; here the rule is
    applied until one vertex remains and that vertex closes the order.
    """
    import heapq

    if not is_tree(t):
        raise ValueError("input is not a tree")
    if t.n == 1:
        return (0,)
    degree = [t.degree(v) for v in range(t.n)]
    alive = [True] * t.n
    leaves = [v for v in range(t.n) if degree[v] == 1]
    heapq.heapify(leaves)
    order = []
    for _ in range(t.n - 1):
        v = heapq.heappop(leaves)
        order.append(v)
        alive[v] = False
        for u in t.adjacency[v]:
            if alive[u]:
                degree[u] -= 1
                if degree[u] == 1:
                    heapq.heappush(leaves, u)
    order.append(next(v for v in range(t.n) if alive[v]))
    return tuple(order)


def line_graph(g: Graph) -> Graph:
    """Graph whose vertex i is g.edges[i]; edges join edges sharing an endpoint."""
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for idx, (u, v) in enumerate(g.edges):
        incident[u].append(idx)
        incident[v].append(idx)
    pairs = set()
    for ids in incident:
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                pairs.add((min(ids[a], ids[b]), max(ids[a], ids[b])))
    return Graph(g.m, sorted(pairs))


def spanning_tree_not_path(g: Graph) -> Graph:
    """Spanning tree with a vertex of degree >= 3.

    Starts with three edges at the lowest-index vertex of degree >= 3 and
    completes greedily over the remaining edges in index order.  Paths and
    cycles admit no such tree and raise.
    """
    if not is_connected(g):
        raise ValueError("graph is not connected")
    if is_path(g) or is_cycle(g):
        raise ValueError("every spanning tree of a path or cycle is a path")
    u = next(v for v in range(g.n) if g.degree(v) >= 3)
    first = [g.edge_index(u, w) for w in g.adjacency[u][:3]]
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    for idx in first + [i for i in range(g.m) if i not in first]:
        a, b = g.edges[idx]
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            chosen.append((a, b))
    tree = Graph(g.n, chosen)
    assert tree.m == g.n - 1 and tree.degree(u) >= 3
    return tree


def path_vertex_order(g: Graph) -> list[int]:
    """Vertices of a path graph in traversal order, from the lowest endpoint."""
    if not is_path(g):
        raise ValueError("graph is not a path")
    return _bfs(g, min((v for v in range(g.n) if g.degree(v) == 1), default=0))[0]


def cycle_vertex_order(g: Graph) -> list[int]:
    """Vertices of a cycle graph in walk order, from 0 toward its lowest neighbor."""
    if not is_cycle(g):
        raise ValueError("graph is not a cycle")
    # with 0's higher neighbor blocked, the search walks the cycle the other way
    last = max(g.adjacency[0])
    return _bfs(g, 0, last)[0] + [last]


def tree_path(t: Graph, u: int, v: int) -> list[int]:
    """The unique u-v path in a tree, as a vertex list from u to v."""
    if u == v:
        return [u]
    parent = {u: u}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x == v:
            break
        for y in t.adjacency[x]:
            if y not in parent:
                parent[y] = x
                queue.append(y)
    if v not in parent:
        raise ValueError(f"no path between {u} and {v}")
    path = [v]
    while path[-1] != u:
        path.append(parent[path[-1]])
    path.reverse()
    return path


class _Rooted:
    """A tree rooted at vertex 0 by _bfs, for O(path) tree paths.  The
    root is its own parent; path() never climbs past depth 0."""

    __slots__ = ("tree", "parent", "depth", "up_edge")

    def __init__(self, tree: Graph):
        _, parent, depth = _bfs(tree)
        # each vertex's own edge tuple to its parent
        up_edge: list[tuple[int, ...]] = [()] * tree.n
        for edge in tree.edges:
            x, y = edge
            up_edge[x if parent[x] == y else y] = edge
        self.tree, self.parent, self.depth, self.up_edge = tree, parent, depth, up_edge

    def path(self, u: int, v: int) -> tuple[list[int], list[tuple[int, ...]]]:
        """The u-v path's vertices and its edges in order, by climbing the
        deeper end until the two ends meet: O(path)."""
        parent, depth = self.parent, self.depth
        up: list[int] = []
        down: list[int] = []
        while u != v:
            if depth[u] >= depth[v]:
                up.append(u)
                u = parent[u]
            else:
                down.append(v)
                v = parent[v]
        down.reverse()
        # each edge is the tree's own tuple, looked up by a C-level map
        edges = list(map(self.up_edge.__getitem__, up))
        edges += map(self.up_edge.__getitem__, down)
        return up + [u] + down, edges
