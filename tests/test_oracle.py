import itertools
import math
import random

import pytest

from relabel import oracle
from relabel.graph import Graph, is_connected, make_family
from relabel.labeling import apply_vertex_flip, identity_labeling
from relabel.oracle import (
    CapacityError,
    ConfigurationSpace,
    bfs_distance,
    component,
    diameter,
    distance_distribution,
    distance_map,
    reachable_in_exactly,
    shortest_flip_sequence,
)
from relabel.privileged import PrivilegedInstance, resolve_solvable


def test_bfs_distance_examples():
    g = make_family("path", 4)
    space = ConfigurationSpace(g)
    ident = identity_labeling(4)
    assert bfs_distance(space, ident, ident) == 0
    assert bfs_distance(space, (3, 2, 1, 0), ident) == 6


def test_restricted_space_can_be_unreachable():
    # non-privileged neighbors swapped: blocked on a path
    g = make_family("path", 4)
    space = ConfigurationSpace(g, privileged=[0, 1])
    assert bfs_distance(space, (0, 1, 2, 3), (0, 1, 3, 2)) is None


def test_reachable_in_exactly():
    g = make_family("star", 3)
    space = ConfigurationSpace(g)
    ident = identity_labeling(3)
    lab = (1, 2, 0)  # distance 2
    assert reachable_in_exactly(space, lab, ident, 2)
    assert not reachable_in_exactly(space, lab, ident, 3)
    assert reachable_in_exactly(space, lab, ident, 4)
    assert reachable_in_exactly(space, ident, ident, 0)
    assert not reachable_in_exactly(space, ident, ident, 1)
    assert reachable_in_exactly(space, ident, ident, 2)


def test_no_odd_closed_walks():
    g = make_family("cycle", 4)
    space = ConfigurationSpace(g)
    rng = random.Random(12)
    for _ in range(10):
        lab = tuple(rng.sample(range(4), 4))
        for t in (1, 3, 5):
            assert not reachable_in_exactly(space, lab, lab, t)


def test_reachable_in_exactly_matches_walk_frontiers():
    # S_0 = {frm}, S_{k+1} = every labeling one legal flip from S_k:
    # to is reachable in exactly t flips iff it lies in S_t
    cases = [(make_family("path", 4), None), (make_family("cycle", 4), None),
             (make_family("star", 4), None), (make_family("grid", 2), {3}),
             (make_family("path", 1), None), (Graph(4, [(0, 1), (2, 3)]), None)]
    for g, priv in cases:
        space = ConfigurationSpace(g, privileged=priv)
        labelings = list(itertools.permutations(range(g.n)))
        for frm in labelings:
            frontier = {frm}
            for t in range(9):
                for to in labelings:
                    assert reachable_in_exactly(space, frm, to, t) == (to in frontier), \
                        (g.edges, priv, frm, to, t)
                frontier = {apply_vertex_flip(g, s, (u, v)) for s in frontier
                            for u, v in g.edges
                            if priv is None or s[u] in priv or s[v] in priv}


def test_component_full_space():
    for n in (2, 3, 4):
        g = make_family("random_connected", n, seed=n)
        size = 1
        for k in range(2, n + 1):
            size *= k
        assert component(ConfigurationSpace(g), identity_labeling(n)) == size


def test_component_restricted_path_matches_enumeration():
    # one privileged label on a path: exactly the labelings with the same
    # non-privileged left-to-right order are reachable
    g = make_family("path", 4)
    start = (0, 1, 2, 3)
    space = ConfigurationSpace(g, privileged=[3])
    expected = set()
    for slot in range(4):
        rest = [0, 1, 2]
        lab = rest[:slot] + [3] + rest[slot:]
        expected.add(tuple(lab))
    assert component(space, start) == 4
    assert set(distance_map(space, start)) == expected


def test_component_size_is_the_distance_map_size():
    grid = Graph(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7),
                     (0, 4), (1, 5), (2, 6), (3, 7)])
    rng = random.Random(71)
    for space in (ConfigurationSpace(make_family("cycle", 6)),
                  ConfigurationSpace(Graph(5, [(0, 1), (2, 3), (3, 4)])),
                  ConfigurationSpace(make_family("star", 5), mode="edge"),
                  ConfigurationSpace(make_family("path", 6), mode="edge"),
                  ConfigurationSpace(make_family("path", 6), privileged=[2]),
                  ConfigurationSpace(make_family("star", 6), privileged=[0, 3]),
                  ConfigurationSpace(grid, privileged=[7])):
        n = space.positions
        frm = tuple(rng.sample(range(n), n))
        dist = distance_map(space, frm)
        assert component(space, frm) == len(dist)


def test_diameter_and_distribution():
    assert diameter(ConfigurationSpace(make_family("star", 4))) == 4
    assert diameter(ConfigurationSpace(make_family("path", 4))) == 6
    hist = distance_distribution(ConfigurationSpace(make_family("star", 4)))
    assert sum(hist.values()) == 24
    assert max(hist.keys()) == 4


def test_shortest_flip_sequence():
    from relabel.labeling import apply_vertex_sequence

    g = make_family("cycle", 5)
    space = ConfigurationSpace(g)
    rng = random.Random(3)
    for _ in range(20):
        a = tuple(rng.sample(range(5), 5))
        b = tuple(rng.sample(range(5), 5))
        seq = shortest_flip_sequence(space, a, b)
        assert len(seq) == bfs_distance(space, a, b)
        assert apply_vertex_sequence(g, a, seq) == b


def test_shortest_flip_sequence_tie_breaking():
    # pinned sequences: flips are tried in edge order, level by level, and
    # the first flip to reach a labeling is kept
    c5 = make_family("cycle", 5)
    assert shortest_flip_sequence(ConfigurationSpace(c5), (3, 4, 0, 1, 2),
                                  identity_labeling(5)) == \
        [(0, 1), (1, 2), (2, 3), (0, 4), (0, 1), (1, 2)]
    grid = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)])
    space = ConfigurationSpace(grid, privileged=[5])
    assert shortest_flip_sequence(space, (3, 4, 5, 0, 1, 2), identity_labeling(6)) == \
        [(1, 2), (0, 1), (0, 3), (3, 4), (1, 4), (1, 2), (2, 5), (4, 5), (3, 4),
         (0, 3), (0, 1), (1, 4), (4, 5), (2, 5), (1, 2), (0, 1), (0, 3), (3, 4),
         (1, 4), (1, 2), (2, 5)]


def test_capacity_guard():
    big = make_family("path", 11)
    space = ConfigurationSpace(big)
    with pytest.raises(CapacityError):
        bfs_distance(space, identity_labeling(11), identity_labeling(11))
    small = make_family("path", 5)
    with pytest.raises(CapacityError):
        distance_map(ConfigurationSpace(small, capacity=100), identity_labeling(5))
    assert diameter(ConfigurationSpace(small, capacity=10**6)) == 10


def test_position_limit():
    # a search key stores each position in one byte: 256 positions are
    # searched, more are refused whatever the capacity
    p300 = make_family("path", 300)
    ident = identity_labeling(300)
    space = ConfigurationSpace(p300, capacity=math.factorial(300))
    with pytest.raises(CapacityError, match="300 positions"):
        bfs_distance(space, ident, ident)
    p256 = make_family("path", 256)
    space = ConfigurationSpace(p256, capacity=math.factorial(256))
    rev = tuple(reversed(range(256)))
    assert bfs_distance(space, rev, rev) == 0
    assert reachable_in_exactly(space, rev, rev, 2)


def test_edge_mode_matches_direct_edge_flips(brute_edge_distances):
    for g in (make_family("path", 4), make_family("star", 4),
              make_family("cycle", 4), Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])):
        ident = identity_labeling(g.m)
        direct = brute_edge_distances(g, ident)
        via_line_graph = distance_map(ConfigurationSpace(g, mode="edge"), ident)
        assert direct == via_line_graph


def test_edge_mode_diameter_bound():
    g = make_family("path", 4)
    assert diameter(ConfigurationSpace(g, mode="edge")) <= g.m * (g.m - 1) // 2


def test_determinism():
    g = make_family("random_connected", 5, seed=44)
    space = ConfigurationSpace(g)
    a = distance_map(space, identity_labeling(5))
    b = distance_map(space, identity_labeling(5))
    assert a == b
    assert distance_distribution(space) == distance_distribution(space)


def test_symmetry_of_distance():
    g = make_family("cycle", 5)
    space = ConfigurationSpace(g)
    rng = random.Random(21)
    for _ in range(15):
        a = tuple(rng.sample(range(5), 5))
        b = tuple(rng.sample(range(5), 5))
        assert bfs_distance(space, a, b) == bfs_distance(space, b, a)


def reference_search(space, src):
    # plain BFS: every edge in edge order, the neighbour built by list/swap/tuple
    s = space.privileged
    parent = {src: None}
    sizes = [1]
    level = [src]
    while level:
        found = []
        for state in level:
            for edge in space.base.edges:
                u, v = edge
                if s is None or state[u] in s or state[v] in s:
                    nxt = list(state)
                    nxt[u], nxt[v] = nxt[v], nxt[u]
                    nxt = tuple(nxt)
                    if nxt not in parent:
                        parent[nxt] = edge
                        found.append(nxt)
        if found:
            sizes.append(len(found))
        level = found
    return parent, sizes


def assert_matches_reference(space, src, stride=1):
    """Discovery order, depths, level sizes, point queries to every
    stride-th dst, and the stored flips, which must be the edge tuples of
    space.base.edges themselves; distance_map keys are labeling tuples of
    ints.  Returns the number of unreachable targets."""
    n = space.positions
    parent, sizes = reference_search(space, src)
    depth = {}
    for state, edge in parent.items():
        before = state if edge is None else apply_vertex_flip(space.base, state, edge)
        depth[state] = 0 if edge is None else depth[before] + 1
    got_map = distance_map(space, src)
    assert list(got_map.items()) == list(depth.items())
    assert all(type(state) is tuple and all(type(x) is int for x in state)
               for state in got_map)
    assert distance_distribution(space, src) == dict(enumerate(sizes))
    assert diameter(space, src) == len(sizes) - 1
    assert component(space, src) == len(parent)
    unreachable = 0
    for dst in itertools.islice(itertools.permutations(range(n)), 0, None, stride):
        if dst not in parent:
            assert bfs_distance(space, src, dst) is None
            assert shortest_flip_sequence(space, src, dst) is None
            assert not reachable_in_exactly(space, src, dst, n)
            unreachable += 1
            continue
        want = []
        state = dst
        while parent[state] is not None:
            want.append(parent[state])
            state = apply_vertex_flip(space.base, state, parent[state])
        got = shortest_flip_sequence(space, src, dst)
        assert got == want[::-1]
        assert all(any(f is e for e in space.base.edges) for f in got)
        assert bfs_distance(space, src, dst) == depth[dst]
        assert reachable_in_exactly(space, src, dst, depth[dst])
        assert not reachable_in_exactly(space, src, dst, depth[dst] + 1)
    return unreachable


def test_search_matches_reference_bfs():
    c5 = make_family("cycle", 5)
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    spaces = [ConfigurationSpace(Graph(1, [])), ConfigurationSpace(make_family("path", 2)),
              ConfigurationSpace(make_family("path", 5)), ConfigurationSpace(c5),
              ConfigurationSpace(make_family("star", 5)),
              ConfigurationSpace(make_family("path", 6), mode="edge"),
              ConfigurationSpace(Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4),
                                           (2, 5)]), privileged=[5]),
              ConfigurationSpace(c5, privileged=[3, 4]),
              ConfigurationSpace(make_family("cycle", 6), privileged=[0, 3]),
              ConfigurationSpace(two_triangles)]
    rng = random.Random(5)
    unreachable = 0
    for space in spaces:
        n = space.positions
        for src in (identity_labeling(n), tuple(rng.sample(range(n), n))):
            unreachable += assert_matches_reference(space, src)
    assert unreachable


def two_colourable(g):
    colour = {}
    for root in range(g.n):
        if root not in colour:
            colour[root] = 0
            stack = [root]
            while stack:
                u = stack.pop()
                for v in g.adjacency[u]:
                    if v not in colour:
                        colour[v] = 1 - colour[u]
                        stack.append(v)
                    elif colour[v] == colour[u]:
                        return False
    return True


def test_invariants_and_stop_match_reference_on_random_graphs():
    # the component table, the known-size stop and the parity invariant
    # change no answer: random graphs on 4-6 vertices, one of each of
    # disconnected, connected bipartite and connected non-bipartite per
    # size, under unrestricted flips, every singleton privileged set, one
    # two-label set and edge mode; every (src, dst) pair on up to 4
    # positions, every dst from random sources on 5, every fourth on 6
    rng = random.Random(17)
    unreachable = 0
    for n in (4, 5, 6):
        pairs = list(itertools.combinations(range(n), 2))
        found = {}
        while len(found) < 3:
            g = Graph(n, rng.sample(pairs, rng.randint(n - 2, n + 1)))
            found.setdefault((is_connected(g), is_connected(g) and two_colourable(g)), g)
        assert {bip for (conn, bip) in found if conn} == {False, True}
        for g in found.values():
            spaces = [ConfigurationSpace(g), ConfigurationSpace(g, privileged=[0, n - 1])]
            spaces += [ConfigurationSpace(g, privileged=[x]) for x in range(n)]
            if g.m <= 5:
                spaces.append(ConfigurationSpace(g, mode="edge"))
            for space in spaces:
                k = space.positions
                every = list(itertools.permutations(range(k)))
                for src in every if k <= 4 else rng.sample(every, 7 - k):
                    unreachable += assert_matches_reference(space, src, 4 if k == 6 else 1)
    assert unreachable


@pytest.fixture
def lookups(monkeypatch):
    """The search keys whose legal flips the oracle looks up, in order.

    More than 1,000 lookups fail the test at once, so that a search the
    invariants should have skipped (12!/2 states) cannot run on."""
    seen = []
    real = oracle._legal_flips

    def counting(space):
        legal = real(space)

        def lookup(w):
            seen.append(w)
            assert len(seen) <= 1000, "the search ran on"
            return legal(w)
        return lookup
    monkeypatch.setattr(oracle, "_legal_flips", counting)
    return seen


def test_invariants_answer_unreachable_targets_without_a_flip(lookups):
    # 3x4 board, blank 11 privileged: two tiles swapped with the blank at
    # home is odd, so Wilson's invariant rules it out of 12!/2 states
    grid = Graph(12, [(r * 4 + c, r * 4 + c + 1) for r in range(3) for c in range(3)] +
                 [(r * 4 + c, r * 4 + c + 4) for r in range(2) for c in range(4)])
    board = ConfigurationSpace(grid, privileged=[11], capacity=math.factorial(12))
    home = identity_labeling(12)
    # P_3 + P_3: label 0 cannot reach the other path, whatever the flip rule
    two_paths = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    cases = [(board, home, (1, 0) + home[2:])]
    cases += [(ConfigurationSpace(two_paths, privileged=priv), identity_labeling(6),
               (3, 1, 2, 0, 4, 5)) for priv in (None, [0], [1], [0, 3])]
    for space, frm, to in cases:
        assert bfs_distance(space, frm, to) is None
        assert shortest_flip_sequence(space, frm, to) is None
        assert not reachable_in_exactly(space, frm, to, 0)
        assert not reachable_in_exactly(space, frm, to, 7)
    assert lookups == []
    # a reachable target is searched for: one flip moves the blank
    assert bfs_distance(board, home, home[:10] + (11, 10)) == 1
    assert lookups


def test_known_size_stops_the_search(lookups):
    # K_5 has 5! labelings at Stirling distances; the search stops at the
    # last one found instead of expanding every labeling
    hist = distance_distribution(ConfigurationSpace(make_family("complete", 5)))
    assert hist == {0: 1, 1: 10, 2: 35, 3: 50, 4: 24}
    assert len(lookups) < sum(hist.values())


def test_invariants_answer_before_the_capacity_guard(lookups):
    # 4x4 board, blank 15 privileged, tiles 0 and 1 swapped: 16! states
    # exceed the default capacity, but Wilson's invariant rules the target out
    board = make_family("grid", 4)
    home = identity_labeling(16)
    swapped = (1, 0) + home[2:]
    space = ConfigurationSpace(board, privileged=[15])
    # P_6 + P_6 unrestricted, 12! states: label 0 cannot reach the other path
    two_paths = Graph(12, [(i, i + 1) for i in range(11) if i != 5])
    moved = (6,) + home[1:6] + (0,) + home[7:12]
    for space, frm, to in ((space, home, swapped),
                           (ConfigurationSpace(two_paths), home[:12], moved)):
        assert bfs_distance(space, frm, to) is None
        assert shortest_flip_sequence(space, frm, to) is None
        assert not reachable_in_exactly(space, frm, to, 9)
    inst = PrivilegedInstance(board, "vertex", home, swapped, frozenset([15]))
    assert resolve_solvable(inst, want_witness=True) == ("no", "oracle", None)
    assert lookups == []
    # a target the invariants allow still meets the guard
    with pytest.raises(CapacityError, match="exceeds capacity"):
        bfs_distance(ConfigurationSpace(board, privileged=[15]), home,
                     home[:11] + (15,) + home[12:15] + (11,))


def test_component_size_known_without_a_search(lookups):
    k8 = ConfigurationSpace(make_family("complete", 8))
    assert component(k8, (7, 6, 5, 4, 3, 2, 1, 0)) == math.factorial(8)
    # two components: every arrangement within each, 3! * 2!
    two = ConfigurationSpace(Graph(5, [(0, 1), (1, 2), (3, 4)]))
    assert component(two, (2, 0, 1, 4, 3)) == 12
    assert lookups == []
    with pytest.raises(CapacityError):
        component(ConfigurationSpace(make_family("complete", 8), capacity=100),
                  identity_labeling(8))
    with pytest.raises(ValueError):
        component(k8, (0, 1, 2))
