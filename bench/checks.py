"""Independent references for checking the program's answers.

Nothing here imports ``relabel``.  Every reference is recomputed from the
definitions with code of its own (a Fenwick tree for inversions, the
Akers-Krishnamurthy form of the star distance, Mahonian and Stirling
numbers by recurrence, a plain tuple-keyed BFS), so a fault in the program
cannot pass its own check.  A failed check raises ``CheckError``.
"""

from __future__ import annotations

from collections import deque


class CheckError(Exception):
    """An answer of the program disagrees with an independent computation."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def relative(labels, target) -> list[int]:
    """Position of each label in the target: the target reads as the identity."""
    where = [0] * len(target)
    for pos, lab in enumerate(target):
        where[lab] = pos
    return [where[lab] for lab in labels]


def inversions(p) -> int:
    """Pairs i < j with p[i] > p[j], counted with a Fenwick tree."""
    n = len(p)
    tree = [0] * (n + 1)
    inv = 0
    for seen, v in enumerate(p):
        j, at_most = v + 1, 0
        while j:
            at_most += tree[j]
            j -= j & -j
        inv += seen - at_most
        j = v + 1
        while j <= n:
            tree[j] += 1
            j += j & -j
    return inv


def cycles(p) -> tuple[int, int, int]:
    """(all cycles, nontrivial cycles, moved points) of a permutation."""
    seen = [False] * len(p)
    total = nontrivial = moved = 0
    for start in range(len(p)):
        if seen[start]:
            continue
        length, v = 0, start
        while not seen[v]:
            seen[v] = True
            v = p[v]
            length += 1
        total += 1
        if length > 1:
            nontrivial += 1
            moved += length
    return total, nontrivial, moved


def parity(p) -> int:
    return (len(p) - cycles(p)[0]) % 2


def star_q(p) -> int:
    """Star distance to the identity, center 0 (Akers and Krishnamurthy):
    moved points plus nontrivial cycles, less 2 when the center is moved."""
    _, nontrivial, moved = cycles(p)
    return moved + nontrivial - (2 if p[0] != 0 else 0)


def complete_distance(p) -> int:
    """Transposition distance to the identity: n minus the number of cycles."""
    return len(p) - cycles(p)[0]


def mahonian(n: int) -> dict[int, int]:
    """Permutations of n elements by inversion count."""
    row = [1]
    for i in range(1, n + 1):
        nxt = [0] * (len(row) + i - 1)
        for k, c in enumerate(row):
            for j in range(i):
                nxt[k + j] += c
        row = nxt
    return dict(enumerate(row))


def stirling_distances(n: int) -> dict[int, int]:
    """Permutations of n elements by n - cycles (unsigned Stirling numbers)."""
    row = [1]                              # c(0, k)
    for m in range(1, n + 1):
        row = [(row[k - 1] if k else 0) + (m - 1) * (row[k] if k < len(row) else 0)
               for k in range(m + 1)]
    return {n - k: c for k, c in enumerate(row) if c}


def histogram(values) -> dict[int, int]:
    hist: dict[int, int] = {}
    for v in values:
        hist[v] = hist.get(v, 0) + 1
    return dict(sorted(hist.items()))


def normalized_edges(edges) -> set[tuple[int, int]]:
    return {(min(u, v), max(u, v)) for u, v in edges}


def bfs(edges, source, privileged=None, stop=None) -> dict[tuple, int]:
    """Distances from source over labelings, a flip swapping the labels on an
    edge; with a privileged set a flip needs one privileged label.  Stops
    once ``stop`` is reached."""
    source = tuple(source)
    dist = {source: 0}
    queue = deque([source])
    while queue and stop not in dist:
        state = queue.popleft()
        d = dist[state] + 1
        for u, v in edges:
            if privileged is not None and state[u] not in privileged \
                    and state[v] not in privileged:
                continue
            nxt = list(state)
            nxt[u], nxt[v] = nxt[v], nxt[u]
            nxt = tuple(nxt)
            if nxt not in dist:
                dist[nxt] = d
                queue.append(nxt)
    return dist


def replay(edges: set, start, flips, privileged=None) -> list:
    """Apply flips with the benchmark's own swap loop, checking each one."""
    cur = list(start)
    for i, flip in enumerate(flips):
        u, v = flip
        expect((min(u, v), max(u, v)) in edges, f"flip {i} {tuple(flip)} is not an edge")
        if privileged is not None:
            expect(cur[u] in privileged or cur[v] in privileged,
                   f"flip {i} {tuple(flip)} swaps two non-privileged labels")
        cur[u], cur[v] = cur[v], cur[u]
    return cur


def check_sequence(edges: set, start, target, flips, privileged=None) -> None:
    end = replay(edges, start, flips, privileged)
    expect(end == list(target), f"{len(flips)} flips end at a labeling that is not the target")


def line_graph_edges(edges) -> list[tuple[int, int]]:
    """Pairs of edge indices that share an endpoint, sorted."""
    incident: dict[int, list[int]] = {}
    for i, edge in enumerate(edges):
        for v in edge:
            incident.setdefault(v, []).append(i)
    return sorted({(a, b) for ids in incident.values() for a in ids for b in ids if a < b})


def grid_solvable(cols: int, frm, to, blank: int) -> bool:
    """Wilson's rule on a bipartite 2-connected graph, here a grid with one
    blank: solvable iff the board parity equals the parity of the blank's
    displacement."""
    a, b = frm.index(blank), to.index(blank)
    moved = abs(a // cols - b // cols) + abs(a % cols - b % cols)
    return parity(relative(frm, to)) == moved % 2


def connected(n: int, edges) -> bool:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(n)}) == 1
