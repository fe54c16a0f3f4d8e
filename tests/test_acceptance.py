"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
All-pairs distance checks use the identity-source BFS map plus the label
renaming that turns any pair into an identity-target pair (renaming labels
commutes with flips, so it is an automorphism of the configuration space);
sampled pairwise BFS runs cross-check the reduction.
"""

import itertools
import random
from collections import Counter

from relabel.exact_path import path_distance, path_exact_t_feasible
from relabel.exact_star import star_distance, star_flip_sequence, star_max_distance, star_q
from relabel.graph import Graph, is_connected, is_path, make_family, tree_path
from relabel.labeling import (
    apply_vertex_flip,
    apply_vertex_sequence,
    identity_labeling,
    relative_permutation,
)
from relabel.oracle import (
    ConfigurationSpace,
    bfs_distance,
    component,
    distance_map,
    reachable_in_exactly,
)
from relabel.privileged import (
    PrivilegedInstance,
    puzzle_instance,
    solvable,
    sw_swap,
)
from relabel.reductions import EdgeInstance, VertexInstance, edge_to_vertex, vertex_to_edge
from relabel.transform import spanning_tree_transform


def report(num, desc, ok, detail=""):
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}"
    if detail:
        line += f" ({detail})"
    print(line)


def pair_distance(dist_from_identity, a, b):
    # distance(a, b) equals distance(relative(a, b), identity)
    return dist_from_identity[relative_permutation(a, b)]


def test_criterion_1_path_exactness():
    bad = []
    rng = random.Random(101)
    for n in range(3, 8):
        g = make_family("path", n)
        ident = identity_labeling(n)
        dist = distance_map(ConfigurationSpace(g), ident)
        for lab in itertools.permutations(range(n)):
            if path_distance(lab, ident) != dist[lab]:
                bad.append((n, lab))
        if max(dist.values()) != n * (n - 1) // 2:
            bad.append((n, "diameter"))
        space = ConfigurationSpace(g)
        for _ in range(20):
            a = tuple(rng.sample(range(n), n))
            b = tuple(rng.sample(range(n), n))
            if path_distance(a, b) != bfs_distance(space, a, b):
                bad.append((n, a, b))
    report(1, "path distance equals BFS for n=3..7, diameter n(n-1)/2",
           not bad, f"{len(bad)} mismatches" if bad else "max at n=7 is 21")
    assert not bad


def test_criterion_2_exact_t_parity():
    bad = []
    g = make_family("path", 4)
    space = ConfigurationSpace(g)
    labelings = list(itertools.permutations(range(4)))
    for a in labelings:
        for b in labelings:
            for t in range(11):
                if path_exact_t_feasible(a, b, t) != reachable_in_exactly(space, a, b, t):
                    bad.append((a, b, t))
    report(2, "exact-t feasibility on P_4 matches walk lengths for t<=10",
           not bad, f"{len(labelings) ** 2 * 11} checks")
    assert not bad


def test_criterion_3_star_exactness():
    bad = []
    rng = random.Random(103)
    for n in range(3, 8):
        g = make_family("star", n)
        ident = identity_labeling(n)
        dist = distance_map(ConfigurationSpace(g), ident)
        for lab in itertools.permutations(range(n)):
            if star_q(lab) != dist[lab]:
                bad.append((n, lab))
        if max(dist.values()) != star_max_distance(n):
            bad.append((n, "diameter"))
        space = ConfigurationSpace(g)
        for _ in range(20):
            a = tuple(rng.sample(range(n), n))
            b = tuple(rng.sample(range(n), n))
            if star_distance(a, b) != bfs_distance(space, a, b):
                bad.append((n, a, b))
    report(3, "star distance equals BFS for n=3..7, diameter floor(3(n-1)/2)",
           not bad, f"{len(bad)} mismatches" if bad else "max at n=7 is 9")
    assert not bad


def test_criterion_4_plus_minus_one():
    bad = 0
    checks = 0
    for n in range(2, 7):
        g = make_family("star", n)
        for lab in itertools.permutations(range(n)):
            q = star_q(lab)
            for edge in g.edges:
                checks += 1
                if abs(star_q(apply_vertex_flip(g, lab, edge)) - q) != 1:
                    bad += 1
    report(4, "every star flip changes q by exactly one, exhaustive n<=6",
           bad == 0, f"{checks} flips")
    assert bad == 0


def test_criterion_5_constructive_upper_bound():
    rng = random.Random(105)
    bad = []
    for trial in range(500):
        n = rng.randint(2, 30)
        g = make_family("random_connected", n, seed=trial)
        a = tuple(rng.sample(range(n), n))
        b = tuple(rng.sample(range(n), n))
        flips = spanning_tree_transform(g, a, b)
        if len(flips) > n * (n - 1) // 2 or apply_vertex_sequence(g, a, flips) != b:
            bad.append(trial)
    report(5, "tree transform reaches target within n(n-1)/2 on 500 random graphs",
           not bad)
    assert not bad


def test_criterion_6_reduction_soundness(brute_edge_distances):
    # v2e is checked for what vertex_to_edge guarantees on its own output:
    # (i) completeness, (ii) parity, (iii) tightness at d_V = 1.  It is not
    # sound: (iv) counts the no-instances that map to yes-instances and
    # requires the P_3 reversal at t = 2 to be one.  (v) e2v is exact.
    v2e_bad = []
    converse = 0
    for g in (make_family("path", 3), make_family("path", 4),
              make_family("complete", 3), make_family("star", 4)):
        vdist = distance_map(ConfigurationSpace(g), identity_labeling(g.n))
        diam = max(vdist.values())
        edists = {}
        labelings = list(itertools.permutations(range(g.n)))
        for a in labelings:
            for b in labelings:
                dv = pair_distance(vdist, a, b)
                for t in range(diam + 1):
                    out = vertex_to_edge(VertexInstance(g, a, b, t))
                    if out.graph not in edists:
                        edists[out.graph] = distance_map(
                            ConfigurationSpace(out.graph, mode="edge"),
                            identity_labeling(out.graph.m))
                    de = pair_distance(edists[out.graph], out.from_labels,
                                       out.to_labels)
                    case = (g.edges, a, b, t, dv, de, out.t)
                    if dv <= t and de > out.t:
                        v2e_bad.append(("incomplete", case))
                    if (de - dv) % 2:
                        v2e_bad.append(("parity", case))
                    if dv == 1 and de != 3:
                        v2e_bad.append(("not tight", case))
                    if dv > t and de <= out.t:
                        converse += 1

    p3 = make_family("path", 3)
    rev = VertexInstance(p3, (2, 1, 0), (0, 1, 2), 2)
    rev_out = vertex_to_edge(rev)
    rev_dv = bfs_distance(ConfigurationSpace(p3), rev.from_labels, rev.to_labels)
    rev_de = bfs_distance(ConfigurationSpace(rev_out.graph, mode="edge"),
                          rev_out.from_labels, rev_out.to_labels)
    witness = rev_dv > rev.t and rev_de <= rev_out.t

    e2v_bad = []
    for g in (make_family("path", 3), make_family("path", 4),
              make_family("star", 4)):
        m = g.m
        e_ident = identity_labeling(m)
        direct = brute_edge_distances(g, e_ident)
        diam = max(direct.values())
        for a in itertools.permutations(range(m)):
            for b in itertools.permutations(range(m)):
                inst = EdgeInstance(g, a, b, 0)
                out = edge_to_vertex(inst)
                dv = bfs_distance(ConfigurationSpace(out.graph),
                                  out.from_labels, out.to_labels)
                de = pair_distance(direct, a, b)
                for t in range(diam + 1):
                    if (de <= t) != (dv <= t):
                        e2v_bad.append((g.edges, a, b, t))

    ok = not v2e_bad and witness and not e2v_bad
    report(6, "v2e complete, parity-preserving, tight at 3t, not sound; "
              "e2v exact", ok,
           f"{converse} v2e converse failures; P_3 reversal at t=2: "
           f"d_V {rev_dv}, d_E {rev_de}, bound {rev_out.t}; "
           f"{len(v2e_bad)} v2e and {len(e2v_bad)} e2v violations")
    assert not v2e_bad, (
        f"{len(v2e_bad)} violations of vertex_to_edge's guarantees "
        f"{dict(Counter(kind for kind, _ in v2e_bad))}, first {v2e_bad[0]}")
    assert witness, (
        f"P_3 reversal at t=2 is no longer a converse failure: d_V {rev_dv}, "
        f"d_E {rev_de}, bound {rev_out.t}")
    assert not e2v_bad, (
        f"{len(e2v_bad)} e2v mismatches, first {e2v_bad[0]}")


def test_criterion_7_privileged_characterization():
    all_edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    graphs = []
    for r in range(3, 7):
        for sub in itertools.combinations(all_edges, r):
            g = Graph(4, sub)
            if is_connected(g):
                graphs.append(g)
    assert len(graphs) == 38

    bad = []
    path_yes = path_no = 0
    labelings = list(itertools.permutations(range(4)))
    for g in graphs:
        g_is_path = is_path(g)
        for nonpriv in itertools.combinations(range(4), 2):
            s = frozenset(set(range(4)) - set(nonpriv))
            for a in labelings:
                reach = set(distance_map(ConfigurationSpace(g, privileged=s), a))
                for b in labelings:
                    inst = PrivilegedInstance(g, "vertex", a, b, s)
                    dec = solvable(inst)
                    reachable = b in reach
                    if dec.answer == "yes":
                        answer = True
                    elif dec.answer == "no":
                        answer = False
                    else:
                        answer = reachable  # deferred to the oracle
                    if not g_is_path and not answer:
                        bad.append((g.edges, s, a, b, "non-path not yes"))
                    if answer != reachable:
                        bad.append((g.edges, s, a, b, dec))
                    if g_is_path:
                        if answer:
                            path_yes += 1
                        else:
                            path_no += 1
    ok = not bad and path_yes > 0 and path_no > 0
    report(7, "two-non-privileged solvability matches restricted BFS on all "
              "4-vertex graphs", ok,
           f"paths: {path_yes} yes / {path_no} no")
    assert ok


def test_criterion_8_puzzle_halving():
    inst = puzzle_instance(2, [0, 1, 2, 3], [0, 1, 2, 3], 0)
    space = ConfigurationSpace(inst.graph, privileged=inst.privileged)
    size = component(space, inst.from_labels)
    report(8, "2x2 puzzle reaches exactly 12 of 24 states", size == 12,
           f"component size {size}")
    assert size == 12


def test_criterion_9_sw_cost():
    rng = random.Random(109)
    bad = []
    for trial in range(200):
        n = rng.randint(2, 12)
        tree = Graph(n, [(rng.randint(0, i - 1), i) for i in range(1, n)])
        u, v = rng.sample(range(n), 2)
        labels = tuple(rng.sample(range(n), n))
        path = tree_path(tree, u, v)
        blocker = rng.choice([None, rng.choice(path)])
        nonpriv = {labels[blocker]} if blocker is not None else set()
        for x in range(n):
            if x not in path and rng.random() < 0.3:
                nonpriv.add(labels[x])
        privileged = set(range(n)) - nonpriv or {labels[u]}
        flips = sw_swap(tree, u, v, labels, privileged)
        want = list(labels)
        want[u], want[v] = want[v], want[u]
        cur = labels
        for f in flips:
            cur = apply_vertex_flip(tree, cur, f)
        if len(flips) != 2 * (len(path) - 1) - 1 or cur != tuple(want):
            bad.append(trial)
    report(9, "SW(u,v) costs exactly 2*dist-1 and is a pure transposition",
           not bad, "200 random trees")
    assert not bad


def test_criterion_10_star_greedy_optimality():
    bad = []
    for n in range(2, 8):
        ident = identity_labeling(n)
        for lab in itertools.permutations(range(n)):
            if len(star_flip_sequence(lab, ident)) != star_q(lab):
                bad.append((n, lab))
    report(10, "greedy star sequence length equals q for all labelings n<=7",
           not bad, "5912 labelings")
    assert not bad
