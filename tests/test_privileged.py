import itertools
import random

import pytest

from relabel.graph import Graph, line_graph, make_family, tree_path
from relabel.labeling import apply_edge_sequence, apply_vertex_flip, identity_labeling
from relabel.oracle import ConfigurationSpace, component, distance_map
from relabel.privileged import (
    PrivilegedInstance,
    UnsolvableError,
    cycle_orientation_invariant,
    is_valid_restricted_flip,
    path_order_invariant,
    privileged_transform,
    puzzle_instance,
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
    assert solvable(small).answer == "unknown_use_oracle"
    p4 = make_family("path", 4)
    ok_path = PrivilegedInstance(p4, "vertex", (0, 1, 2, 3), (1, 0, 2, 3),
                                 frozenset({0, 1}))
    assert path_order_invariant(ok_path)
    assert solvable(ok_path).answer == "unknown_use_oracle"
    with pytest.raises(ValueError):
        solvable(PrivilegedInstance(Graph(4, [(0, 1), (2, 3)]), "vertex",
                                    (0, 1, 2, 3), (0, 1, 2, 3), frozenset({0})))


def test_resolve_solvable_oracle_method():
    k3 = make_family("complete", 3)
    inst = PrivilegedInstance(k3, "vertex", (0, 1, 2), (1, 0, 2), frozenset({2}))
    answer, method, witness = resolve_solvable(inst, want_witness=True)
    assert answer == "yes" and method == "oracle"
    assert replay(inst, witness) == inst.to_labels


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
    # the line graphs are K_4 (theorem), C_5 (cycle moves) and P_4 (oracle)
    cases = [(make_family("star", 5), (3, 2, 1, 0), (0, 1, 2, 3), {2, 3}, "theorem"),
             (make_family("cycle", 5), (4, 0, 3, 1, 2), (0, 1, 2, 3, 4), {2, 3, 4}, "theorem"),
             (make_family("path", 5), (0, 2, 1, 3), (2, 1, 0, 3), {1, 2}, "oracle")]
    for g, frm, to, priv, method in cases:
        inst = PrivilegedInstance(g, "edge", frm, to, frozenset(priv))
        flips = privileged_transform(inst)
        lg = PrivilegedInstance(line_graph(g), "vertex", frm, to, frozenset(priv))
        assert flips and replay(lg, flips) == to
        assert apply_edge_sequence(g, frm, flips) == to
        assert resolve_solvable(inst, want_witness=True) == ("yes", method, flips)


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
    assert component(space, inst.from_labels).size == 12


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
