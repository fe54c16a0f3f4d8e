import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from relabel.exact_path import (
    path_distance,
    path_exact_t_feasible,
    path_flip_sequence,
    transposition_cost_on_path,
)
from relabel.graph import make_family
from relabel.labeling import apply_vertex_sequence, identity_labeling
from relabel.oracle import ConfigurationSpace, bfs_distance, distance_map
from relabel.perm import _BLOCK_BITS, inversion_table, inversions


def reference_relative(labels, target):
    pos = {label: i for i, label in enumerate(target)}
    return [pos[label] for label in labels]


def reference_inversions(p):
    # the recursive merge sort that counted inversions before the Fenwick table
    def count(seq):
        if len(seq) <= 1:
            return seq, 0
        mid = len(seq) // 2
        left, a = count(seq[:mid])
        right, b = count(seq[mid:])
        merged = []
        inv = a + b
        i = j = 0
        while i < len(left) and j < len(right):
            if left[i] <= right[j]:
                merged.append(left[i])
                i += 1
            else:
                merged.append(right[j])
                j += 1
                inv += len(left) - i
        merged.extend(left[i:])
        merged.extend(right[j:])
        return merged, inv

    return count(list(p))[1]


def pair_count_table(p):
    # c[v] from the definition: the labels smaller than v to its right
    c = [0] * len(p)
    for i, v in enumerate(p):
        c[v] = sum(map(v.__gt__, p[i + 1:]))
    return c


def reference_flip_sequence(labels, target):
    # the index-and-swap loop that synthesized sequences before the table
    rel = reference_relative(labels, target)
    flips = []
    for v in range(len(rel) - 1, 0, -1):
        i = rel.index(v)
        for k in range(i, v):
            flips.append((k, k + 1))
            rel[k], rel[k + 1] = rel[k + 1], rel[k]
    return flips


def reference_pairs():
    """Every labeling against the identity for n <= 7, 300 seeded random
    pairs with n <= 300, and the reversal both ways."""
    for n in range(8):
        ident = identity_labeling(n)
        for lab in itertools.permutations(range(n)):
            yield lab, ident
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 300)
        yield tuple(rng.sample(range(n), n)), tuple(rng.sample(range(n), n))
    n = 300
    yield tuple(range(n - 1, -1, -1)), identity_labeling(n)
    yield identity_labeling(n), tuple(range(n - 1, -1, -1))


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


def test_matches_the_merge_sort_and_swap_loop_references():
    for a, b in reference_pairs():
        flips = path_flip_sequence(a, b)
        assert flips == reference_flip_sequence(a, b)
        assert path_distance(a, b) == reference_inversions(reference_relative(a, b)) == len(flips)


def test_inversion_table_counts_smaller_labels_to_the_right():
    rng = random.Random(5)
    perms = [p for n in range(7) for p in itertools.permutations(range(n))]
    perms += [rng.sample(range(n), n) for n in (50, 257, 1000)]
    for p in perms:
        assert inversion_table(p) == pair_count_table(p)
        assert inversions(p) == reference_inversions(p)


BLOCK = 1 << _BLOCK_BITS


def block_shapes(n, rng):
    # inputs whose inserts land at the ends, the middles and across the
    # edges of inversion_table's blocks of values
    even = [v for v in range(n) if not (v // BLOCK) % 2]
    odd = [v for v in range(n) if (v // BLOCK) % 2]
    interleaved = [v for pair in itertools.zip_longest(even, odd[::-1]) for v in pair
                   if v is not None]
    straddle = list(range(n))
    k = BLOCK if n > BLOCK else n - 1  # values BLOCK - 1 and BLOCK sit in two blocks
    straddle[k - 1], straddle[k] = straddle[k], straddle[k - 1]
    return {"identity": list(range(n)), "reversal": list(range(n))[::-1],
            "random": rng.sample(range(n), n), "blocks interleaved": interleaved,
            "straddling swap": straddle}


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 3 * BLOCK + 7])
def test_inversion_table_across_block_boundaries(n):
    for shape, p in block_shapes(n, random.Random(n)).items():
        assert inversion_table(p) == pair_count_table(p), shape
        assert inversions(p) == reference_inversions(p), shape


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2500), st.integers(0, 2 ** 32 - 1), st.none() | st.integers(0, 30))
def test_inversion_table_matches_pair_count(n, seed, swaps):
    # a shuffle, or the identity after a few random adjacent swaps
    rng = random.Random(seed)
    if swaps is None or n < 2:
        p = rng.sample(range(n), n)
    else:
        p = list(range(n))
        for _ in range(swaps):
            i = rng.randrange(n - 1)
            p[i], p[i + 1] = p[i + 1], p[i]
    assert inversion_table(p) == pair_count_table(p)
    assert inversions(p) == reference_inversions(p)


def test_one_adjacent_swap_is_not_quadratic():
    n = 200_000
    labels = list(range(n))
    labels[n // 2], labels[n // 2 + 1] = labels[n // 2 + 1], labels[n // 2]
    start = time.perf_counter()
    flips = path_flip_sequence(labels, range(n))
    elapsed = time.perf_counter() - start
    assert flips == [(n // 2, n // 2 + 1)]
    # scanning for each label's position would take minutes here
    assert elapsed < 5, f"{elapsed:.1f} s for one flip"


def test_sorted_and_reversed_inputs_are_not_quadratic():
    # every insert lands at one end of its block; one block holding all the
    # values would move O(n) entries per insert: on a 2-core Xeon VM under
    # CPython 3.11 that took about 7 s on the identity here, against 0.25 s
    n = 200_000
    ident = list(range(n))
    start = time.perf_counter()
    assert path_distance(ident, ident[::-1]) == n * (n - 1) // 2
    assert path_distance(ident, ident) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 3, f"{elapsed:.1f} s for two distances"


@pytest.mark.parametrize("bad", [[0, 1.0, 2], [0, True, 2], [0, 0, 2], [1, 2, 3]])
def test_non_permutations_raise_value_error(bad):
    ident = identity_labeling(3)
    for fn in (path_distance, path_flip_sequence):
        with pytest.raises(ValueError, match="not a permutation"):
            fn(bad, ident)
        with pytest.raises(ValueError, match="not a permutation"):
            fn(ident, bad)


def test_unequal_lengths_raise_value_error():
    for fn in (path_distance, path_flip_sequence):
        with pytest.raises(ValueError, match="size mismatch"):
            fn((0, 1), (0, 1, 2))
