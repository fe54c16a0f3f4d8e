import itertools
import random

import pytest

from relabel.exact_star import (
    star_distance,
    star_flip_sequence,
    star_max_distance,
    star_q,
)
from relabel.graph import make_family
from relabel.labeling import (apply_vertex_flip, apply_vertex_sequence, exact_t_rule,
                              identity_labeling)
from relabel.oracle import ConfigurationSpace, distance_distribution, distance_map
from relabel.perm import cycle_decomposition, pi_zero


def reference_q(p):
    # q over pi_zero and cycle_decomposition, as computed before the one-pass walk
    if p and p[0] != 0:
        return reference_q(pi_zero(p)) + (1 if p[p[0]] == 0 else -1)
    cycles = cycle_decomposition(p)
    return sum(len(c) for c in cycles) + len(cycles)


def star_adversary(rng, n):
    """Half the leaves fixed, the rest swapped in pairs."""
    moved = rng.sample(range(1, n), (n - 1) // 4 * 2)
    rel = list(range(n))
    for u, v in zip(moved[::2], moved[1::2]):
        rel[u], rel[v] = v, u
    return tuple(rel)


def test_q_examples():
    assert star_q(identity_labeling(5)) == 0
    # center and leaf traded labels: normalization is the identity, q = 1
    assert star_q((2, 1, 0)) == 1
    # center fixed, one 3-cycle on the leaves: support 3 plus 1 cycle
    assert star_q((0, 2, 3, 1)) == 4
    # center label elsewhere: normalized q = 3, corrected down to 2
    assert star_q((1, 2, 0)) == 2


def test_distance_examples():
    lab = (3, 0, 2, 1)
    assert star_distance(lab, lab) == 0
    ident = identity_labeling(4)
    worst = max(star_distance(lab, ident) for lab in itertools.permutations(range(4)))
    assert worst == 4 == star_max_distance(4)


def test_max_distance_examples():
    assert star_max_distance(4) == 4
    assert star_max_distance(7) == 9
    assert star_max_distance(2) == 1
    with pytest.raises(ValueError):
        star_max_distance(1)


def test_flip_sequence_examples():
    ident = identity_labeling(3)
    assert star_flip_sequence(ident, ident) == []
    assert star_flip_sequence((1, 2, 0), ident) == [(0, 1), (0, 2)]
    # leaf 3-cycle fixing the center: open at the cycle, close where it began
    seq = star_flip_sequence((0, 2, 3, 1), identity_labeling(4))
    assert seq == [(0, 1), (0, 2), (0, 3), (0, 1)]
    g = make_family("star", 4)
    assert apply_vertex_sequence(g, (0, 2, 3, 1), seq) == identity_labeling(4)


def test_greedy_length_equals_q_exhaustive():
    for n in range(2, 7):
        g = make_family("star", n)
        ident = identity_labeling(n)
        for lab in itertools.permutations(range(n)):
            seq = star_flip_sequence(lab, ident)
            assert len(seq) == star_q(lab)
            assert apply_vertex_sequence(g, lab, seq) == ident


def test_flip_sequence_arbitrary_targets():
    rng = random.Random(6)
    pairs = []
    for _ in range(100):
        n = rng.randint(2, 8)
        pairs.append((tuple(rng.sample(range(n), n)), tuple(rng.sample(range(n), n))))
    # half the leaves fixed, the rest swapped in pairs: rescanning from
    # leaf 1 after every flip would make the greedy quadratic here
    n = 2001
    moved = rng.sample(range(1, n), n // 2)
    adversary = list(range(n))
    for u, v in zip(moved[::2], moved[1::2]):
        adversary[u], adversary[v] = v, u
    pairs.append((tuple(adversary), identity_labeling(n)))
    for a, b in pairs:
        g = make_family("star", len(a))
        seq = star_flip_sequence(a, b)
        assert len(seq) == star_distance(a, b)
        assert apply_vertex_sequence(g, a, seq) == b


def test_oracle_equivalence_small():
    for n in range(2, 7):
        ident = identity_labeling(n)
        dist = distance_map(ConfigurationSpace(make_family("star", n)), ident)
        for lab in itertools.permutations(range(n)):
            assert star_q(lab) == dist[lab]


def test_plus_minus_one_step():
    for n in range(2, 6):
        g = make_family("star", n)
        for lab in itertools.permutations(range(n)):
            q = star_q(lab)
            for edge in g.edges:
                assert abs(star_q(apply_vertex_flip(g, lab, edge)) - q) == 1


def test_exact_t_matches_oracle_walks():
    from relabel.oracle import reachable_in_exactly

    # the exact-t rule over star_distance; n = 1: no flip at all, so only t = 0 works
    for n in (1, 4):
        space = ConfigurationSpace(make_family("star", n))
        ident = identity_labeling(n)
        for lab in itertools.permutations(range(n)):
            for t in range(7):
                assert exact_t_rule(star_distance(lab, ident), t, n > 1) == \
                    reachable_in_exactly(space, lab, ident, t)


def test_diameter_and_distribution():
    for n in range(2, 7):
        dist = distance_map(ConfigurationSpace(make_family("star", n)),
                            identity_labeling(n))
        assert max(dist.values()) == star_max_distance(n)
    hist = distance_distribution(ConfigurationSpace(make_family("star", 4)))
    assert sum(hist.values()) == 24
    assert max(hist) == 4
    # histogram agrees with the q parameter counted directly
    direct = {}
    for lab in itertools.permutations(range(4)):
        direct[star_q(lab)] = direct.get(star_q(lab), 0) + 1
    assert hist == direct


def test_q_matches_the_pi_zero_and_cycle_reference():
    pairs = [(lab, identity_labeling(n))
             for n in range(1, 8) for lab in itertools.permutations(range(n))]
    rng = random.Random(19)
    for _ in range(300):
        n = rng.randint(1, 300)
        pairs.append((tuple(rng.sample(range(n), n)), tuple(rng.sample(range(n), n))))
    for n in (2, 3, 301, 2001):
        pairs.append((tuple(range(n - 1, -1, -1)), identity_labeling(n)))
        target = tuple(rng.sample(range(n), n))
        # labels whose relative permutation to target is the adversary
        pairs.append((tuple(target[v] for v in star_adversary(rng, n)), target))
    for a, b in pairs:
        pos = {label: i for i, label in enumerate(b)}
        want = reference_q(tuple(pos[label] for label in a))
        assert star_distance(a, b) == want
        if b == identity_labeling(len(b)):
            assert star_q(a) == want
        assert len(star_flip_sequence(a, b)) == want


@pytest.mark.parametrize("bad", [[0, 1.0, 2], [0, True, 2], [0, 0, 2], [1, 2, 3]])
def test_non_permutations_raise_value_error(bad):
    ident = identity_labeling(3)
    with pytest.raises(ValueError, match="not a permutation"):
        star_q(bad)
    for fn in (star_distance, star_flip_sequence):
        with pytest.raises(ValueError, match="not a permutation"):
            fn(bad, ident)
        with pytest.raises(ValueError, match="not a permutation"):
            fn(ident, bad)


def test_unequal_lengths_raise_value_error():
    for fn in (star_distance, star_flip_sequence):
        with pytest.raises(ValueError, match="size mismatch"):
            fn((0, 1), (0, 1, 2))
    # an empty labeling has no center
    with pytest.raises(ValueError, match="no star center"):
        star_q(())
    for fn in (star_distance, star_flip_sequence):
        with pytest.raises(ValueError, match="no star center"):
            fn((), ())
