import itertools

import pytest
from hypothesis import given, strategies as st

from relabel.labeling import identity_labeling
from relabel.perm import (
    compose,
    cycle_count,
    cycle_decomposition,
    from_cycles,
    inverse,
    inversions,
    parity,
    pi_zero,
)


def brute_inversions(p):
    # independent quadratic pair count
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


@st.composite
def perm_pairs(draw):
    n = draw(st.integers(1, 8))
    p = tuple(draw(st.permutations(range(n))))
    q = tuple(draw(st.permutations(range(n))))
    return p, q


def test_cycle_decomposition_examples():
    assert cycle_decomposition(identity_labeling(5)) == []
    assert cycle_decomposition([0, 2, 3, 1]) == [(1, 2, 3)]
    assert cycle_decomposition([1, 0, 3, 2]) == [(0, 1), (2, 3)]


def test_cycle_decomposition_counts():
    assert cycle_count([0, 2, 3, 1]) == 1
    assert cycle_count([1, 0, 3, 2]) == 2


def test_cycle_decomposition_canonical_and_roundtrip():
    for n in range(9):
        for p in itertools.permutations(range(n)):
            cycles = cycle_decomposition(p)
            for c in cycles:
                assert len(c) >= 2
                assert c[0] == min(c)
            assert [c[0] for c in cycles] == sorted(c[0] for c in cycles)
            assert from_cycles(n, cycles) == p


def test_inversions_examples():
    assert inversions(identity_labeling(4)) == 0
    assert inversions([3, 2, 1, 0]) == 4 * 3 // 2
    assert inversions([2, 0, 1]) == 2


def test_inversions_against_brute_force():
    for n in range(7):
        for p in itertools.permutations(range(n)):
            assert inversions(p) == brute_inversions(p)


def test_inversions_zero_iff_identity():
    for n in range(1, 7):
        for p in itertools.permutations(range(n)):
            assert (inversions(p) == 0) == (p == identity_labeling(n))


def test_adjacent_transposition_changes_inversions_by_one():
    for n in range(2, 7):
        for p in itertools.permutations(range(n)):
            for i in range(n - 1):
                swap = list(range(n))
                swap[i], swap[i + 1] = i + 1, i
                q = compose(p, swap)
                assert abs(inversions(q) - inversions(p)) == 1


def test_parity_examples():
    assert parity(identity_labeling(4)) == 0
    assert parity([1, 0, 2]) == 1
    assert parity([1, 2, 0]) == 0 and inversions([1, 2, 0]) == 2


def test_parity_matches_inversions():
    for n in range(7):
        for p in itertools.permutations(range(n)):
            assert parity(p) == inversions(p) % 2


@given(perm_pairs())
def test_parity_xor_under_composition(pq):
    p, q = pq
    assert parity(compose(p, q)) == parity(p) ^ parity(q)


def test_pi_zero_examples():
    assert pi_zero(identity_labeling(4)) == identity_labeling(4)
    assert pi_zero([2, 1, 0]) == (0, 1, 2)
    assert pi_zero([1, 2, 0]) == (0, 2, 1)


def test_pi_zero_fixes_zero():
    for n in range(1, 7):
        for p in itertools.permutations(range(n)):
            z = pi_zero(p)
            assert z[0] == 0
            if p[0] == 0:
                assert z == p


def test_compose_examples():
    p = (2, 0, 3, 1)
    assert compose(p, identity_labeling(4)) == p
    assert compose(p, inverse(p)) == identity_labeling(4)
    assert compose([1, 0, 2], [0, 2, 1]) == (1, 2, 0)


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose([0, 1], [0, 1, 2])


@given(perm_pairs())
def test_compose_is_function_composition(pq):
    p, q = pq
    r = compose(p, q)
    assert all(r[i] == p[q[i]] for i in range(len(p)))

