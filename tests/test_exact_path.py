import itertools
import random

import pytest

from relabel.exact_path import (
    path_distance,
    path_exact_t_feasible,
    path_flip_sequence,
    transposition_cost_on_path,
)
from relabel.graph import make_family
from relabel.labeling import apply_vertex_sequence, identity_labeling
from relabel.oracle import ConfigurationSpace, bfs_distance, distance_map
from relabel.perm import inversions


def test_distance_examples():
    lab = (2, 0, 3, 1)
    assert path_distance(lab, lab) == 0
    assert path_distance((3, 2, 1, 0), identity_labeling(4)) == 6
    assert path_distance((1, 0, 2), identity_labeling(3)) == 1


def test_flip_sequence_examples():
    assert path_flip_sequence((0, 1, 2), (0, 1, 2)) == []
    assert path_flip_sequence((1, 0, 2), (0, 1, 2)) == [(0, 1)]
    seq = path_flip_sequence((2, 1, 0), (0, 1, 2))
    assert seq == [(0, 1), (1, 2), (0, 1)]
    p3 = make_family("path", 3)
    assert apply_vertex_sequence(p3, (2, 1, 0), seq) == (0, 1, 2)


def test_flip_sequence_reaches_target_and_is_optimal():
    rng = random.Random(4)
    for _ in range(150):
        n = rng.randint(1, 9)
        g = make_family("path", n)
        a = tuple(rng.sample(range(n), n))
        b = tuple(rng.sample(range(n), n))
        seq = path_flip_sequence(a, b)
        assert len(seq) == path_distance(a, b)
        assert apply_vertex_sequence(g, a, seq) == b


def test_monotone_descent():
    # every flip in the synthesized sequence removes exactly one inversion
    for a in itertools.permutations(range(5)):
        cur = list(a)
        counts = [inversions(cur)]
        for i, j in path_flip_sequence(a, identity_labeling(5)):
            cur[i], cur[j] = cur[j], cur[i]
            counts.append(inversions(cur))
        assert counts[-1] == 0
        assert all(x - y == 1 for x, y in zip(counts, counts[1:]))


def test_symmetry():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(2, 9)
        a = tuple(rng.sample(range(n), n))
        b = tuple(rng.sample(range(n), n))
        assert path_distance(a, b) == path_distance(b, a)


def test_exact_t_examples():
    ident = identity_labeling(3)
    swapped = (1, 0, 2)
    assert path_exact_t_feasible(swapped, ident, 1)
    assert not path_exact_t_feasible(swapped, ident, 2)
    assert path_exact_t_feasible(swapped, ident, 3)
    assert path_exact_t_feasible(ident, ident, 0)
    assert not path_exact_t_feasible((3, 2, 1, 0), identity_labeling(4), 5)
    with pytest.raises(ValueError):
        path_exact_t_feasible(ident, ident, -1)


def test_transposition_cost_examples():
    cost, flips = transposition_cost_on_path(2, 3)
    assert cost == 1 and flips == [(2, 3)]
    cost, _ = transposition_cost_on_path(0, 3)
    assert cost == 5
    cost, flips = transposition_cost_on_path(1, 4)
    assert cost == 5
    g = make_family("path", 6)
    out = apply_vertex_sequence(g, identity_labeling(6), flips)
    assert out == (0, 4, 2, 3, 1, 5)
    with pytest.raises(ValueError):
        transposition_cost_on_path(3, 3)
    with pytest.raises(ValueError):
        transposition_cost_on_path(4, 2)


def test_oracle_equivalence_small():
    for n in range(2, 6):
        g = make_family("path", n)
        ident = identity_labeling(n)
        dist = distance_map(ConfigurationSpace(g), ident)
        for lab in itertools.permutations(range(n)):
            assert path_distance(lab, ident) == dist[lab]


def test_oracle_equivalence_all_pairs_n4():
    g = make_family("path", 4)
    space = ConfigurationSpace(g)
    labelings = list(itertools.permutations(range(4)))
    for a in labelings:
        dist = distance_map(space, a)
        for b in labelings:
            assert path_distance(a, b) == dist[b]


def test_feasibility_matches_oracle_walks():
    from relabel.oracle import reachable_in_exactly

    # n = 1: no flip at all, so only t = 0 works
    for n in (1, 4):
        space = ConfigurationSpace(make_family("path", n))
        ident = identity_labeling(n)
        for lab in itertools.permutations(range(n)):
            for t in range(7):
                assert path_exact_t_feasible(lab, ident, t) == \
                    reachable_in_exactly(space, lab, ident, t)
