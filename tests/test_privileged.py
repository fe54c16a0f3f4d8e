import dataclasses
import itertools
import random
import time
from collections import Counter, deque

import pytest

import relabel.graph
import relabel.privileged
from relabel.exact_path import path_distance, path_flip_sequence
from relabel.graph import (
    Graph,
    cycle_vertex_order,
    is_path,
    line_graph,
    make_family,
    path_vertex_order,
    spanning_tree_not_path,
    tree_path,
)
from relabel.labeling import (
    apply_edge_flip,
    apply_edge_sequence,
    apply_vertex_flip,
    apply_vertex_sequence,
    identity_labeling,
)
from relabel.oracle import ConfigurationSpace, component, distance_map
from relabel.privileged import (
    PrivilegedInstance,
    UnsolvableError,
    cycle_orientation_invariant,
    is_valid_restricted_flip,
    path_order_invariant,
    privileged_transform,
    puzzle_instance,
    _line_graph_instance,
    resolve_solvable,
    solvable,
    sw_swap,
    tree_swap_sequence,
)

SPIDER = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


def replay(inst, flips):
    cur = inst.from_labels
    for f in flips:
        assert is_valid_restricted_flip(inst, cur, f)
        cur = apply_vertex_flip(inst.graph, cur, f)
    return cur


def example_a_instance(n=4, k=2):
    # privileged prefix, then the two lowest non-privileged labels swapped
    g = make_family("path", n)
    priv = list(range(n - k, n))
    rest = list(range(n - k))
    frm = tuple(priv + rest)
    to = tuple(priv + [rest[1], rest[0]] + rest[2:])
    return PrivilegedInstance(g, "vertex", frm, to, frozenset(priv))


def test_restricted_flip_rule():
    g = make_family("path", 3)
    inst = PrivilegedInstance(g, "vertex", (0, 1, 2), (0, 1, 2), frozenset({0, 1}))
    assert is_valid_restricted_flip(inst, (0, 1, 2), (0, 1))   # both privileged
    assert is_valid_restricted_flip(inst, (0, 1, 2), (1, 2))   # one privileged
    inst2 = PrivilegedInstance(g, "vertex", (0, 1, 2), (0, 1, 2), frozenset({0}))
    assert not is_valid_restricted_flip(inst2, (0, 1, 2), (1, 2))
    with pytest.raises(ValueError):
        is_valid_restricted_flip(inst, (0, 1, 2), (0, 2))


def test_restricted_flip_rule_edges():
    star = make_family("star", 4)
    inst = PrivilegedInstance(star, "edge", (0, 1, 2), (0, 1, 2), frozenset({2}))
    assert is_valid_restricted_flip(inst, (0, 1, 2), (0, 2))
    assert not is_valid_restricted_flip(inst, (0, 1, 2), (0, 1))
    p4 = make_family("path", 4)
    inst = PrivilegedInstance(p4, "edge", (0, 1, 2), (0, 1, 2), frozenset({0}))
    with pytest.raises(ValueError):
        is_valid_restricted_flip(inst, (0, 1, 2), (0, 2))


def test_path_order_invariant():
    bad = example_a_instance()
    assert not path_order_invariant(bad)
    g = make_family("path", 4)
    same = PrivilegedInstance(g, "vertex", (3, 2, 0, 1), (3, 2, 0, 1), frozenset({3, 2}))
    assert path_order_invariant(same)
    moved = PrivilegedInstance(g, "vertex", (0, 3, 1, 2), (3, 0, 1, 2), frozenset({3, 2, 1}))
    assert path_order_invariant(moved)
    with pytest.raises(ValueError):
        path_order_invariant(PrivilegedInstance(make_family("star", 4), "vertex",
                                                (0, 1, 2, 3), (0, 1, 2, 3),
                                                frozenset({0})))


def test_path_order_invariant_non_canonical_indexing():
    # path 1-0-2-3: reading order starts from the lowest-index endpoint
    g = Graph(4, [(1, 0), (0, 2), (2, 3)])
    frm = (1, 0, 2, 3)  # order along path (from vertex 1): 0, 1, 2, 3
    to = (0, 1, 2, 3)   # order along path: 1, 0, 2, 3
    inst = PrivilegedInstance(g, "vertex", frm, to, frozenset({2, 3}))
    assert not path_order_invariant(inst)


def test_cycle_orientation_invariant():
    g = make_family("cycle", 4)
    # one privileged label, the non-privileged triple flipped
    frm = (3, 0, 1, 2)
    to = (3, 1, 0, 2)
    bad = PrivilegedInstance(g, "vertex", frm, to, frozenset({3}))
    assert not cycle_orientation_invariant(bad)
    same = PrivilegedInstance(g, "vertex", frm, frm, frozenset({3}))
    assert cycle_orientation_invariant(same)
    # rotated non-privileged cyclic order is fine
    rot = PrivilegedInstance(g, "vertex", (0, 1, 3, 2), (1, 2, 3, 0), frozenset({3}))
    assert cycle_orientation_invariant(rot)
    with pytest.raises(ValueError):
        cycle_orientation_invariant(example_a_instance())
    with pytest.raises(ValueError):
        cycle_orientation_invariant(
            PrivilegedInstance(g, "vertex", frm, to, frozenset({3, 2})))


def test_sw_swap_examples():
    p2 = tree_path(SPIDER, 2, 4)
    assert len(p2) - 1 == 4
    labels = (0, 1, 2, 3, 4, 5, 6)
    all_priv = frozenset(range(7))
    assert len(sw_swap(SPIDER, 0, 1, labels, all_priv)) == 1
    # distance 3 needs 5 flips
    flips = sw_swap(SPIDER, 2, 3, labels, all_priv)
    assert len(flips) == 5
    cur = labels
    for f in flips:
        cur = apply_vertex_flip(SPIDER, cur, f)
    assert cur == (0, 1, 3, 2, 4, 5, 6)
    # distance 2, fully privileged: 3 flips
    assert len(sw_swap(SPIDER, 2, 0, labels, all_priv)) == 3


def test_sw_swap_rejects_two_blockers():
    labels = (0, 1, 2, 3, 4, 5, 6)
    with pytest.raises(ValueError):
        sw_swap(SPIDER, 2, 4, labels, frozenset(range(7)) - {1, 3})


@pytest.mark.parametrize("u", [-1, 7])
def test_swaps_reject_vertices_out_of_range(u):
    # -1 must not index the last vertex
    labels = (0, 1, 2, 3, 4, 5, 6)
    with pytest.raises(ValueError, match="0..6"):
        sw_swap(SPIDER, u, 2, labels, frozenset(range(7)))
    with pytest.raises(ValueError, match="0..6"):
        tree_swap_sequence(SPIDER, 2, u, labels, frozenset(range(5)))


def test_tree_swap_sequence_cases():
    rng = random.Random(15)
    # endpoints non-privileged on a star (degenerate maximal path ends)
    star = make_family("star", 4)
    labels = (3, 0, 1, 2)
    inst = PrivilegedInstance(star, "vertex", labels, labels, frozenset({3, 2}))
    flips = tree_swap_sequence(star, 1, 2, labels, frozenset({3, 2}))
    cur = labels
    for f in flips:
        assert is_valid_restricted_flip(inst, cur, f)
        cur = apply_vertex_flip(star, cur, f)
    assert cur == (3, 1, 0, 2)

    # exhaustive over the spider: all pairs, all placements of 2 blockers
    for nonpriv in itertools.combinations(range(7), 2):
        S = frozenset(set(range(7)) - set(nonpriv))
        for trial in range(6):
            labels = tuple(rng.sample(range(7), 7))
            u, v = rng.sample(range(7), 2)
            flips = tree_swap_sequence(SPIDER, u, v, labels, S)
            inst = PrivilegedInstance(SPIDER, "vertex", labels, labels, S)
            cur = labels
            for f in flips:
                assert is_valid_restricted_flip(inst, cur, f)
                cur = apply_vertex_flip(SPIDER, cur, f)
            want = list(labels)
            want[u], want[v] = want[v], want[u]
            assert cur == tuple(want)


def test_tree_swap_sequence_errors():
    labels = (0, 1, 2, 3)
    with pytest.raises(ValueError):
        tree_swap_sequence(make_family("path", 4), 0, 3, labels, frozenset({0, 1}))
    with pytest.raises(ValueError):
        tree_swap_sequence(make_family("star", 4), 0, 1, labels, frozenset({0}))
    with pytest.raises(ValueError):
        tree_swap_sequence(make_family("star", 4), 1, 1, labels, frozenset({0, 1}))


def test_privileged_transform_star():
    g = make_family("star", 4)
    rng = random.Random(25)
    for _ in range(40):
        frm = tuple(rng.sample(range(4), 4))
        to = tuple(rng.sample(range(4), 4))
        S = frozenset(set(range(4)) - set(rng.sample(range(4), 2)))
        inst = PrivilegedInstance(g, "vertex", frm, to, S)
        assert replay(inst, privileged_transform(inst)) == to


def test_privileged_transform_path_unsolvable():
    with pytest.raises(UnsolvableError):
        privileged_transform(example_a_instance())


def test_privileged_transform_cycles():
    rng = random.Random(27)
    for n in (3, 4, 5, 6):
        g = make_family("cycle", n)
        for _ in range(40):
            frm = tuple(rng.sample(range(n), n))
            to = tuple(rng.sample(range(n), n))
            S = frozenset(set(range(n)) - set(rng.sample(range(n), 2)))
            inst = PrivilegedInstance(g, "vertex", frm, to, S)
            assert replay(inst, privileged_transform(inst)) == to


def test_privileged_transform_matches_oracle_reachability():
    # every solvable instance is solved, every unsolvable one raises
    for g in (make_family("path", 4), make_family("cycle", 4),
              make_family("star", 4)):
        n = g.n
        for nonpriv in itertools.combinations(range(n), 2):
            S = frozenset(set(range(n)) - set(nonpriv))
            for frm in itertools.permutations(range(n)):
                reach = set(distance_map(ConfigurationSpace(g, privileged=S), frm))
                for to in itertools.permutations(range(n)):
                    inst = PrivilegedInstance(g, "vertex", frm, to, S)
                    if to in reach:
                        assert replay(inst, privileged_transform(inst)) == to
                    else:
                        with pytest.raises(UnsolvableError):
                            privileged_transform(inst)


def test_solvable_rules():
    g = make_family("star", 5)
    ident = identity_labeling(5)
    shuffled = (4, 3, 2, 1, 0)
    almost_all = PrivilegedInstance(g, "vertex", ident, shuffled,
                                    frozenset({0, 1, 2, 3}))
    assert solvable(almost_all) == ("yes", "theorem")
    two_np = PrivilegedInstance(g, "vertex", ident, shuffled, frozenset({0, 1, 2}))
    assert solvable(two_np) == ("yes", "theorem")
    assert solvable(example_a_instance()) == ("no", "invariant")
    k3 = make_family("complete", 3)
    small = PrivilegedInstance(k3, "vertex", (0, 1, 2), (1, 0, 2), frozenset({2}))
    assert solvable(small) == ("yes", "theorem")
    p4 = make_family("path", 4)
    ok_path = PrivilegedInstance(p4, "vertex", (0, 1, 2, 3), (1, 0, 2, 3),
                                 frozenset({0, 1}))
    assert path_order_invariant(ok_path)
    assert solvable(ok_path) == ("yes", "theorem")
    with pytest.raises(ValueError):
        solvable(PrivilegedInstance(Graph(4, [(0, 1), (2, 3)]), "vertex",
                                    (0, 1, 2, 3), (0, 1, 2, 3), frozenset({0})))


def test_resolve_solvable_oracle_method():
    # three non-privileged labels on K_4 are left to the oracle, whose
    # witness is a shortest one
    k4 = make_family("complete", 4)
    inst = PrivilegedInstance(k4, "vertex", (0, 1, 2, 3), (2, 0, 1, 3), frozenset({3}))
    assert solvable(inst) == ("unknown_use_oracle", None)
    answer, method, witness = resolve_solvable(inst, want_witness=True)
    assert (answer, method) == ("yes", "oracle")
    assert replay(inst, witness) == inst.to_labels
    space = ConfigurationSpace(k4, privileged={3})
    assert len(witness) == distance_map(space, inst.from_labels)[inst.to_labels] == 4


def test_edge_privileged_solvable():
    # path edges: non-privileged pair out of order is a no
    p6 = make_family("path", 6)
    frm = (4, 3, 0, 1, 2)
    to = (4, 3, 1, 0, 2)
    bad = PrivilegedInstance(p6, "edge", frm, to, frozenset({4, 3, 2}))
    assert solvable(bad) == ("no", "invariant")
    # star edges with two non-privileged labels: line graph is complete
    s5 = make_family("star", 5)
    inst = PrivilegedInstance(s5, "edge", (3, 2, 1, 0), (0, 1, 2, 3),
                              frozenset({2, 3}))
    assert solvable(inst) == ("yes", "theorem")
    same = PrivilegedInstance(s5, "edge", (3, 2, 1, 0), (3, 2, 1, 0),
                              frozenset({0}))
    assert solvable(same).answer == "yes"
    answer, method, witness = resolve_solvable(inst, want_witness=True)
    assert answer == "yes"
    # the witness is a sequence of edge-index pairs sharing endpoints
    assert apply_edge_sequence(s5, frm := inst.from_labels, witness) == inst.to_labels


def test_privileged_transform_edge_instances():
    # the line graphs are K_4 (tree swaps), C_5 (cycle moves) and P_4 (path
    # closed form)
    cases = [(make_family("star", 5), (3, 2, 1, 0), (0, 1, 2, 3), {2, 3}),
             (make_family("cycle", 5), (4, 0, 3, 1, 2), (0, 1, 2, 3, 4), {2, 3, 4}),
             (make_family("path", 5), (0, 2, 1, 3), (2, 1, 0, 3), {1, 2})]
    for g, frm, to, priv in cases:
        inst = PrivilegedInstance(g, "edge", frm, to, frozenset(priv))
        flips = privileged_transform(inst)
        lg = PrivilegedInstance(line_graph(g), "vertex", frm, to, frozenset(priv))
        assert flips and replay(lg, flips) == to
        assert apply_edge_sequence(g, frm, flips) == to
        assert resolve_solvable(inst, want_witness=True) == ("yes", "theorem", flips)


def shuffled_path(rng, n):
    # the path visits name[0], name[1], ..., so its numbering is not canonical
    name = rng.sample(range(n), n)
    return Graph(n, [(name[i], name[i + 1]) for i in range(n - 1)])


def test_path_theorem_matches_restricted_bfs():
    # every privileged set, three sources each, and every target up to five
    # positions (at six, 24 reachable and 24 arbitrary ones): the theorem
    # answers exactly the pairs the restricted BFS reaches, and its witness
    # replays legally in exactly the BFS distance
    rng = random.Random(21)
    answers = Counter()
    for kind, sizes in (("vertex", range(2, 7)), ("edge", range(3, 7))):
        apply = apply_vertex_flip if kind == "vertex" else apply_edge_flip
        for n in sizes:
            g = shuffled_path(rng, n)
            count = n if kind == "vertex" else n - 1
            every = list(itertools.permutations(range(count)))
            for r in range(1, count + 1):
                for S in map(frozenset, itertools.combinations(range(count), r)):
                    space = ConfigurationSpace(g, mode=kind, privileged=S)
                    for _ in range(3):
                        frm = tuple(rng.sample(range(count), count))
                        dist = distance_map(space, frm)
                        targets = every if count < 6 else (
                            rng.sample(sorted(dist), min(24, len(dist))) + rng.sample(every, 24))
                        for to in targets:
                            inst = PrivilegedInstance(g, kind, frm, to, S)
                            answer, method, witness = resolve_solvable(inst, want_witness=True)
                            answers[answer] += 1
                            if to not in dist:
                                assert (answer, method, witness) == ("no", "invariant", None)
                                continue
                            assert (answer, method) == ("yes", "theorem")
                            assert len(witness) == dist[to]
                            cur = frm
                            for f in witness:
                                assert is_valid_restricted_flip(inst, cur, f)
                                cur = apply(g, cur, f)
                            assert cur == to
    assert answers["yes"] > 10_000 and answers["no"] > 10_000, answers


def test_path_theorem_past_oracle_capacity():
    # 12 positions: 12! states, beyond what the restricted BFS will search
    g = make_family("path", 12)
    frm, to = identity_labeling(12), (0, 2, 1) + tuple(range(3, 12))
    inst = PrivilegedInstance(g, "vertex", frm, to, frozenset(range(2, 12)))
    answer, method, witness = resolve_solvable(inst, want_witness=True)
    assert (answer, method) == ("yes", "theorem")
    assert replay(inst, witness) == to
    assert len(witness) == path_distance(frm, to) == 1


def test_long_path_witness():
    rng = random.Random(23)
    n = 2000
    g = shuffled_path(rng, n)
    frm = tuple(rng.sample(range(n), n))
    a_lab, b_lab = rng.sample(range(n), 2)
    # any target keeping a and b in their left-to-right order
    order = path_vertex_order(g)
    rest = [x for x in rng.sample(range(n), n) if x not in (a_lab, b_lab)]
    first, second = sorted((frm.index(a_lab), frm.index(b_lab)), key=order.index)
    i, j = sorted(rng.sample(range(n), 2))
    rest[i:i] = [frm[first]]
    rest[j:j] = [frm[second]]
    to = [0] * n
    for v, lab in zip(order, rest):
        to[v] = lab
    inst = PrivilegedInstance(g, "vertex", frm, tuple(to), frozenset(range(n)) - {a_lab, b_lab})
    assert solvable(inst) == ("yes", "theorem")
    flips = privileged_transform(inst)
    assert len(flips) == path_distance([frm[v] for v in order], [to[v] for v in order])
    cur = list(frm)
    for a, b in flips:
        assert g.has_edge(a, b) and (cur[a] not in (a_lab, b_lab) or cur[b] not in (a_lab, b_lab))
        cur[a], cur[b] = cur[b], cur[a]
    assert cur == to


def all_rotations_orientation(inst):
    # the orientation invariant as every rotation of the source sequence
    order = cycle_vertex_order(inst.graph)
    seq_from = [inst.from_labels[v] for v in order if inst.from_labels[v] not in inst.privileged]
    seq_to = [inst.to_labels[v] for v in order if inst.to_labels[v] not in inst.privileged]
    return any(seq_from[i:] + seq_from[:i] == seq_to for i in range(len(seq_from)))


def test_cycle_orientation_invariant_matches_all_rotations():
    rng = random.Random(29)
    seen = set()
    for n in range(3, 9):
        g = make_family("cycle", n)
        for _ in range(200):
            frm = tuple(rng.sample(range(n), n))
            S = frozenset(rng.sample(range(n), rng.randint(1, n - 3)) if n > 3 else [])
            if not S:
                continue
            to = list(frm) if rng.random() < 0.5 else rng.sample(range(n), n)
            if to == list(frm):
                # rotate the non-privileged labels among their own slots
                slots = [v for v in range(n) if frm[v] not in S]
                labs = [frm[v] for v in slots]
                k = rng.randrange(len(labs))
                for v, lab in zip(slots, labs[k:] + labs[:k]):
                    to[v] = lab
            inst = PrivilegedInstance(g, "vertex", frm, tuple(to), S)
            want = all_rotations_orientation(inst)
            assert cycle_orientation_invariant(inst) == want
            seen.add(want)
    assert seen == {True, False}
    # one privileged label and the rest reversed: answered in linear time
    n = 50_000
    g = make_family("cycle", n)
    frm = tuple(range(n))
    to = (0,) + frm[:0:-1]
    inst = PrivilegedInstance(g, "vertex", frm, to, frozenset({0}))
    start = time.perf_counter()
    assert solvable(inst) == ("no", "invariant")
    elapsed = time.perf_counter() - start
    # comparing every rotation took about 20 s on a 2-core Xeon VM
    assert elapsed < 2, f"{elapsed:.2f} s"


def test_puzzle_instance():
    inst = puzzle_instance(2, [0, 1, 2, 3], [0, 1, 2, 3], 0)
    assert inst.kind == "vertex"
    assert inst.privileged == frozenset({3})
    assert inst.t == 0
    assert inst.graph.n == 4 and inst.graph.m == 4
    # boards are flat; nested rows are decoded on the wire (jsonio.board_from_json)
    with pytest.raises(ValueError):
        puzzle_instance(2, [[0, 1], [2, 3]], [[0, 1], [2, 3]], 0)
    with pytest.raises(ValueError):
        puzzle_instance(2, [0, 1, 2], [0, 1, 2, 3], 0)
    with pytest.raises(ValueError):
        puzzle_instance(2, [0, 1, 2, 2], [0, 1, 2, 3], 0)


def test_puzzle_half_reachable():
    inst = puzzle_instance(2, [0, 1, 2, 3], [0, 1, 2, 3], 0)
    space = ConfigurationSpace(inst.graph, privileged=inst.privileged)
    assert component(space, inst.from_labels) == 12


def test_puzzle_one_move():
    solved = list(range(9))
    moved = solved[:]
    moved[5], moved[8] = moved[8], moved[5]  # slide a tile into the blank
    inst = puzzle_instance(3, solved, moved, 1)
    answer, method, witness = resolve_solvable(inst, want_witness=True)
    assert answer == "yes"
    assert len(witness) == 1


def test_restricted_sequences_preserve_path_order():
    rng = random.Random(33)
    g = make_family("path", 5)
    for _ in range(30):
        labels = tuple(rng.sample(range(5), 5))
        S = frozenset(rng.sample(range(5), rng.randint(1, 4)))
        inst = PrivilegedInstance(g, "vertex", labels, labels, S)
        cur = labels
        for _ in range(30):
            legal = [e for e in g.edges if is_valid_restricted_flip(inst, cur, e)]
            if not legal:
                break
            cur = apply_vertex_flip(g, cur, rng.choice(legal))
        before = [x for x in labels if x not in S]
        after = [x for x in cur if x not in S]
        assert before == after


def test_restricted_sequences_preserve_cycle_orientation():
    rng = random.Random(35)
    g = make_family("cycle", 5)
    from relabel.graph import cycle_vertex_order

    order = cycle_vertex_order(g)
    for _ in range(30):
        labels = tuple(rng.sample(range(5), 5))
        S = frozenset(rng.sample(range(5), rng.randint(1, 2)))
        if len(S) > 2:
            continue
        inst = PrivilegedInstance(g, "vertex", labels, labels, S)
        cur = labels
        for _ in range(40):
            legal = [e for e in g.edges if is_valid_restricted_flip(inst, cur, e)]
            cur = apply_vertex_flip(g, cur, rng.choice(legal))
        before = [labels[v] for v in order if labels[v] not in S]
        after = [cur[v] for v in order if cur[v] not in S]
        k = len(before)
        assert any(before[i:] + before[:i] == after for i in range(k))


# The BFS-based tree transform and the cycle transform as they stood before
# the rooted-tree rewrite, kept verbatim (plus branch counts) as references:
# every flip sequence must stay the same.

def ref_sw_swap(tree, u, v, labels, privileged):
    if u == v:
        return []
    path = tree_path(tree, u, v)
    off_limits = sum(1 for x in path if labels[x] not in privileged)
    if off_limits > 1:
        raise ValueError(
            f"{off_limits} non-privileged labels on the {u}-{v} path; at most one allowed")
    down = list(zip(path, path[1:]))
    up = list(zip(path[-3::-1], path[-2::-1]))
    flips = [(min(a, b), max(a, b)) for a, b in down + up]
    assert len(flips) == 2 * (len(path) - 1) - 1
    return flips


def ref_farthest_avoiding(tree, src, banned):
    dist = {src: 0}
    queue = deque([src])
    while queue:
        x = queue.popleft()
        for y in tree.adjacency[x]:
            if x == src and y == banned:
                continue
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    far = max(dist.values())
    return min(x for x, d in dist.items() if d == far)


def ref_maximal_path_through(tree, u, v):
    path = tree_path(tree, u, v)
    u_end = ref_farthest_avoiding(tree, u, path[1])
    v_end = ref_farthest_avoiding(tree, v, path[-2])
    return tree_path(tree, u_end, u)[:-1] + path + tree_path(tree, v, v_end)[1:]


def ref_run_sw_plan(tree, plan, labels, privileged):
    cur = tuple(labels)
    flips = []
    for a, b in plan:
        if a == b:
            continue
        step = ref_sw_swap(tree, a, b, cur, privileged)
        flips.extend(step)
        cur = apply_vertex_sequence(tree, cur, step)
    return flips


def ref_swap_both_nonpriv(tree, u, v, labels, privileged):
    pstar = ref_maximal_path_through(tree, u, v)
    w = min(x for x in pstar[1:-1] if tree.degree(x) >= 3)
    w_off = min(y for y in tree.adjacency[w] if y not in set(pstar))
    u_end, v_end = pstar[0], pstar[-1]
    plan = [(u, u_end), (v, v_end), (u_end, w_off), (u_end, v_end),
            (v_end, w_off), (u, u_end), (v, v_end)]
    return ref_run_sw_plan(tree, plan, labels, privileged)


def ref_tree_swap(tree, u, v, labels, privileged, nonpriv, hits):
    path = tree_path(tree, u, v)
    on_path = [x for x in nonpriv if x in set(path)]
    if len(on_path) <= 1:
        hits["one sw"] += 1
        return ref_sw_swap(tree, u, v, labels, privileged)

    if labels[u] not in privileged and labels[v] not in privileged:
        hits["both at the ends"] += 1
        return ref_swap_both_nonpriv(tree, u, v, labels, privileged)

    pos = {p: i for i, p in enumerate(path)}
    x, y = sorted(on_path, key=pos.__getitem__)
    if x != u and y != v:
        hits["blockers inside"] += 1
        return ref_run_sw_plan(tree, [(u, x), (x, v), (u, x)], labels, privileged)
    hits["blocker at an end"] += 1
    head = [(y, v), (u, y)] if x == u else [(u, x), (x, v)]
    pair = (y, v) if x == u else (u, x)
    flips = ref_run_sw_plan(tree, head, labels, privileged)
    cur = apply_vertex_sequence(tree, labels, flips)
    return flips + ref_swap_both_nonpriv(tree, pair[0], pair[1], cur, privileged)


def ref_tree_transform(inst, hits):
    g, to = inst.graph, inst.to_labels
    tree = spanning_tree_not_path(g)
    cur = inst.from_labels
    flips = []
    for v in range(g.n):
        if cur[v] != to[v]:
            u = cur.index(to[v])
            nonpriv_at = [x for x in range(g.n) if cur[x] not in inst.privileged]
            step = ref_tree_swap(tree, u, v, cur, inst.privileged, nonpriv_at, hits)
            flips.extend(step)
            cur = apply_vertex_sequence(tree, cur, step)
    assert cur == to
    return flips


def ref_cycle_transform(g, frm, to, privileged, hits):
    n = g.n
    order = cycle_vertex_order(g)
    slot_of_vertex = {v: i for i, v in enumerate(order)}
    cur = list(frm)
    flips = []

    def do_flip(i, j):
        a, b = order[i % n], order[j % n]
        flips.append((min(a, b), max(a, b)))
        cur[a], cur[b] = cur[b], cur[a]

    def slot_of(lab):
        return slot_of_vertex[cur.index(lab)]

    home = {to[v]: i for i, v in enumerate(order)}
    a_lab, b_lab = [lab for lab in range(n) if lab not in privileged]

    if slot_of(b_lab) == home[a_lab]:
        s = slot_of(b_lab)
        step = 1 if cur[order[(s + 1) % n]] != a_lab else -1
        hits["nudge up" if step == 1 else "nudge down"] += 1
        do_flip(s, s + step)

    def route(lab, dest, avoid):
        s = slot_of(lab)
        if s == dest:
            return
        fwd = (dest - s) % n
        step = 1 if (avoid - s) % n > fwd else -1
        name = "a" if lab == a_lab else "b"
        hits[f"{name} {'up' if step == 1 else 'down'}"] += 1
        while s != dest:
            do_flip(s, s + step)
            s = (s + step) % n

    route(a_lab, home[a_lab], slot_of(b_lab))
    route(b_lab, home[b_lab], home[a_lab])

    ha, hb = home[a_lab], home[b_lab]
    arc1 = [(ha + k) % n for k in range(1, (hb - ha) % n)]
    arc2 = [(hb + k) % n for k in range(1, (ha - hb) % n)]
    set1 = set(arc1)

    exchanges = 0
    while True:
        w1 = [cur[order[s]] for s in arc1 if home[cur[order[s]]] not in set1]
        if not w1:
            break
        exchanges += 1
        w2 = [cur[order[s]] for s in arc2 if home[cur[order[s]]] in set1]
        p_lab, q_lab = w1[0], w2[0]
        gate1, gate2 = (ha + 1) % n, (ha - 1) % n
        s = slot_of(p_lab)
        while s != gate1:
            do_flip(s, s - 1)
            s = (s - 1) % n
        s = slot_of(q_lab)
        while s != gate2:
            do_flip(s, s + 1)
            s = (s + 1) % n
        do_flip(ha, gate1)
        do_flip(ha, gate2)
        do_flip(ha, gate1)
    hits[{0: "no exchange", 1: "one exchange"}.get(exchanges, "several exchanges")] += 1

    for arc in (arc1, arc2):
        for k in range(len(arc)):
            want = to[order[arc[k]]]
            j = arc.index(slot_of(want))
            while j > k:
                do_flip(arc[j - 1], arc[j])
                j -= 1
    assert cur == list(to)
    return flips


def two_nonprivileged(rng, g):
    frm = tuple(rng.sample(range(g.n), g.n))
    to = tuple(rng.sample(range(g.n), g.n))
    S = frozenset(range(g.n)) - set(rng.sample(range(g.n), 2))
    return PrivilegedInstance(g, "vertex", frm, to, S)


def random_tree(rng, n):
    # parents drawn at random, then the vertices renamed at random
    name = rng.sample(range(n), n)
    return Graph(n, [(name[rng.randrange(v)], name[v]) for v in range(1, n)])


def test_tree_transform_matches_bfs_reference():
    rng = random.Random(11)
    hits = Counter()
    trees = 0
    while trees < 2000:
        g = random_tree(rng, rng.randint(4, 12))
        if is_path(g):
            continue
        trees += 1
        inst = two_nonprivileged(rng, g)
        want = ref_tree_transform(inst, hits) if inst.from_labels != inst.to_labels else []
        assert privileged_transform(inst) == want
    for nonpriv in itertools.combinations(range(7), 2):
        S = frozenset(range(7)) - set(nonpriv)
        for _ in range(5):
            frm, to = tuple(rng.sample(range(7), 7)), tuple(rng.sample(range(7), 7))
            inst = PrivilegedInstance(SPIDER, "vertex", frm, to, S)
            assert privileged_transform(inst) == ref_tree_transform(inst, hits)
    # every branch of the swap is exercised
    assert set(hits) == {"one sw", "both at the ends", "blockers inside",
                         "blocker at an end"}, hits


def test_cycle_transform_matches_reference():
    rng = random.Random(13)
    hits = Counter()
    sizes = list(range(3, 41)) + sorted(random.Random(14).sample(range(41, 201), 12))
    for n in sizes:
        g = make_family("cycle", n)
        for _ in range(12 if n <= 40 else 3):
            inst = two_nonprivileged(rng, g)
            if inst.from_labels == inst.to_labels:
                continue
            assert privileged_transform(inst) == ref_cycle_transform(
                g, inst.from_labels, inst.to_labels, inst.privileged, hits)
    big = two_nonprivileged(rng, make_family("cycle", 600))
    assert privileged_transform(big) == ref_cycle_transform(
        big.graph, big.from_labels, big.to_labels, big.privileged, hits)
    # forced branches on C_8, where slot s is vertex s and, with the
    # identity as target, a (label 2) has its home on slot 2 and b (label
    # 5) on slot 5; "a up" walks a up from slot 7, over slot 0, to slot 2
    g = make_family("cycle", 8)
    forced = {
        "nudge up": (0, 1, 5, 3, 4, 6, 2, 7),
        "nudge down": (0, 1, 5, 2, 4, 3, 6, 7),
        "a up": (0, 1, 7, 3, 5, 6, 4, 2),
        "a down": (0, 1, 7, 3, 2, 6, 4, 5),
        "b up": (0, 1, 7, 3, 5, 6, 4, 2),
        "b down": (0, 1, 7, 3, 2, 6, 4, 5),
        "no exchange": (0, 1, 2, 3, 4, 5, 7, 6),
        "several exchanges": (3, 4, 2, 0, 1, 5, 6, 7),
    }
    to, S = tuple(range(8)), frozenset(range(8)) - {2, 5}
    for branch, frm in forced.items():
        mine = Counter()
        inst = PrivilegedInstance(g, "vertex", frm, to, S)
        assert privileged_transform(inst) == ref_cycle_transform(g, frm, to, S, mine)
        assert mine[branch] == 1, (branch, mine)
        hits += mine
    # every branch of the cycle transform is exercised
    assert set(hits) >= {"nudge up", "nudge down", "a up", "a down", "b up",
                         "b down", "no exchange", "one exchange",
                         "several exchanges"}, hits


def test_swaps_match_bfs_reference():
    rng = random.Random(17)
    for _ in range(400):
        g = random_tree(rng, rng.randint(4, 10))
        u, v = rng.sample(range(g.n), 2)
        labels = tuple(rng.sample(range(g.n), g.n))
        S = frozenset(rng.sample(range(g.n), rng.randint(g.n - 2, g.n)))
        try:
            want = ref_sw_swap(g, u, v, labels, S)
        except ValueError:
            with pytest.raises(ValueError):
                sw_swap(g, u, v, labels, S)
        else:
            assert sw_swap(g, u, v, labels, S) == want
        if is_path(g) or len(S) != g.n - 2:
            continue
        nonpriv = [x for x in range(g.n) if labels[x] not in S]
        assert tree_swap_sequence(g, u, v, labels, S) == ref_tree_swap(
            g, u, v, labels, S, nonpriv, Counter())


def test_tree_transform_is_not_quadratic():
    rng = random.Random(5)
    g = random_tree(rng, 4000)
    assert not is_path(g)
    inst = two_nonprivileged(rng, g)
    start = time.perf_counter()
    flips = privileged_transform(inst)
    elapsed = time.perf_counter() - start
    # a whole-tree search and an O(n) scan per placement took several seconds
    assert elapsed < 2, f"{elapsed:.1f} s for {len(flips)} flips"
    cur = list(inst.from_labels)
    for a, b in flips:
        assert g.has_edge(a, b) and (cur[a] in inst.privileged or cur[b] in inst.privileged)
        cur[a], cur[b] = cur[b], cur[a]
    assert tuple(cur) == inst.to_labels


def test_transform_checks_connectivity_once(connectivity_searches):
    # graph.is_connected is O(n + m) once per graph: privileged_transform
    # searches its graph once and reads path, cycle and spanning-tree shape
    # off the kept answer; a second run searches nothing
    rng = random.Random(19)
    cases = [random_tree(rng, 100), make_family("grid", 6),
             Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)])]
    for g in cases:
        inst = two_nonprivileged(rng, g)
        connectivity_searches.clear()
        want = privileged_transform(inst)
        assert [id(x) for x in connectivity_searches] == [id(g)]
        assert privileged_transform(inst) == want
        assert len(connectivity_searches) == 1
        replay(inst, want)


def test_line_graph_instance_is_not_rechecked(permutation_checks):
    # the edge instance's checked labelings and privileged set carry over
    # to the line graph unchecked, as the record the constructor builds
    rng = random.Random(41)
    graphs = [make_family("path", 3), make_family("star", 4)]
    graphs += [make_family("random_connected", rng.randint(3, 12), seed=s)
               for s in range(10)]
    for g in graphs:
        frm = tuple(rng.sample(range(g.m), g.m))
        to = tuple(rng.sample(range(g.m), g.m))
        priv = frozenset(rng.sample(range(g.m), rng.randint(1, g.m)))
        inst = PrivilegedInstance(g, "edge", frm, to, priv, 3)
        assert permutation_checks == [g.m, g.m]
        permutation_checks.clear()
        trusted = _line_graph_instance(inst)
        assert permutation_checks == []
        checked = PrivilegedInstance(line_graph(g), "vertex", list(frm), list(to), set(priv), 3)
        assert permutation_checks == [g.m, g.m]
        permutation_checks.clear()
        assert trusted == checked and hash(trusted) == hash(checked)
        with pytest.raises(dataclasses.FrozenInstanceError):
            trusted.t = 0


def test_privileged_instance_checks_what_it_is_given(permutation_checks):
    g = make_family("path", 3)
    for kind, count in (("vertex", g.n), ("edge", g.m)):
        ident = tuple(range(count))
        permutation_checks.clear()
        PrivilegedInstance(g, kind, ident, ident, frozenset({0}), 1)
        assert permutation_checks == [count, count]
        for bad in (ident[:-1], (0.0,) + ident[1:], (0, True) + ident[2:]):
            with pytest.raises(ValueError):
                PrivilegedInstance(g, kind, bad, ident, frozenset({0}))
            with pytest.raises(ValueError):
                PrivilegedInstance(g, kind, ident, bad, frozenset({0}))
        for priv, t in ((frozenset(), None), (frozenset({count}), None), (frozenset({0}), -1)):
            with pytest.raises(ValueError):
                PrivilegedInstance(g, kind, ident, ident, priv, t)


def test_path_witness_is_path_flip_sequence_on_the_path_edges():
    # flip for flip, path_flip_sequence in the path's order with each flip
    # (k, k + 1) written as the path's k-th edge, the graph's own tuple
    rng = random.Random(29)
    for n in (3, 6, 40):
        g = shuffled_path(rng, n)
        order = path_vertex_order(g)
        edge = [g.edges[g.edge_index(u, v)] for u, v in zip(order, order[1:])]
        for _ in range(20):
            frm = tuple(rng.sample(range(n), n))
            to = rng.sample(range(n), n)
            a_lab, b_lab = rng.sample(range(n), 2)
            before = [order.index(x.index(a_lab)) < order.index(x.index(b_lab))
                      for x in (frm, to)]
            if before[0] != before[1]:  # keep the two in their order
                i, j = to.index(a_lab), to.index(b_lab)
                to[i], to[j] = to[j], to[i]
            inst = PrivilegedInstance(g, "vertex", frm, tuple(to),
                                      frozenset(range(n)) - {a_lab, b_lab})
            flips = privileged_transform(inst)
            want = path_flip_sequence([frm[v] for v in order], [to[v] for v in order])
            assert flips == [edge[k] for k, _ in want]
            assert all(f is edge[order.index(min(f, key=order.index))] for f in flips)


def test_path_shape_read_once_per_call(monkeypatch):
    # a witness on a path decides solvable and builds the flips from one
    # reading of the path's order; the flips are the parent's
    reads = []
    for module, name in ((relabel.privileged, "is_path"), (relabel.graph, "is_path"),
                         (relabel.privileged, "path_vertex_order")):
        def counting(g, _f=getattr(module, name), _name=name):
            reads.append(_name)
            return _f(g)
        monkeypatch.setattr(module, name, counting)
    n = 2000
    g = make_family("path", n)
    frm = identity_labeling(n)
    to = (1, 0) + frm[2:]
    inst = PrivilegedInstance(g, "vertex", frm, to, frozenset(frm) - {5, 9})
    assert resolve_solvable(inst, want_witness=True) == ("yes", "theorem", [(0, 1)])
    assert reads.count("path_vertex_order") == 1 and reads.count("is_path") <= 2
    reads.clear()
    assert privileged_transform(inst) == [(0, 1)]
    assert reads.count("path_vertex_order") == 1 and reads.count("is_path") <= 2
