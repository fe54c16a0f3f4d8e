import random

import pytest
from hypothesis import given, strategies as st

from relabel.graph import make_family
from relabel.labeling import (
    apply_edge_flip,
    apply_edge_sequence,
    apply_vertex_flip,
    apply_vertex_sequence,
    exact_t_rule,
    identity_labeling,
    relative_permutation,
    validate_vertex_labeling,
)
from relabel.perm import compose, is_permutation


def test_apply_flip_examples():
    p3 = make_family("path", 3)
    assert apply_vertex_flip(p3, (0, 1, 2), (0, 1)) == (1, 0, 2)
    once = apply_vertex_flip(p3, (0, 1, 2), (1, 2))
    assert apply_vertex_flip(p3, once, (1, 2)) == (0, 1, 2)
    with pytest.raises(ValueError):
        apply_vertex_flip(p3, (0, 1, 2), (0, 2))


def test_apply_sequence_examples():
    p3 = make_family("path", 3)
    assert apply_vertex_sequence(p3, (0, 1, 2), []) == (0, 1, 2)
    assert apply_vertex_sequence(p3, (0, 1, 2), [(0, 1), (1, 2)]) == (1, 2, 0)
    seq = [(0, 1), (1, 2), (0, 1)]
    out = apply_vertex_sequence(p3, (0, 1, 2), seq + seq[::-1])
    assert out == (0, 1, 2)


def test_apply_sequence_reports_bad_flip_index():
    p3 = make_family("path", 3)
    with pytest.raises(ValueError, match="flip 1"):
        apply_vertex_sequence(p3, (0, 1, 2), [(0, 1), (0, 2)])


def test_edge_flips():
    star = make_family("star", 4)
    # all star edges share the center, so any pair may swap
    assert apply_edge_flip(star, (0, 1, 2), (0, 2)) == (2, 1, 0)
    p4 = make_family("path", 4)
    assert apply_edge_flip(p4, (0, 1, 2), (0, 1)) == (1, 0, 2)
    with pytest.raises(ValueError):
        apply_edge_flip(p4, (0, 1, 2), (0, 2))
    with pytest.raises(ValueError):
        apply_edge_flip(p4, (0, 1, 2), (0, 3))
    assert apply_edge_sequence(p4, (0, 1, 2), [(0, 1), (1, 2)]) == (1, 2, 0)


def _fold_vertex(g, labels, flips):
    # reference: the per-flip fold, copying the labeling at every flip
    cur = tuple(labels)
    for i, flip in enumerate(flips):
        try:
            u, v = flip
            if not g.has_edge(u, v):
                raise ValueError(f"({u},{v}) is not an edge")
        except ValueError as err:
            raise ValueError(f"flip {i}: {err}") from None
        out = list(cur)
        out[u], out[v] = out[v], out[u]
        cur = tuple(out)
    return cur


def _fold_edge(g, labels, flips):
    cur = tuple(labels)
    for i, flip in enumerate(flips):
        try:
            e1, e2 = flip
            if not (0 <= e1 < g.m and 0 <= e2 < g.m):
                raise ValueError(f"edge index out of range: ({e1},{e2})")
            if e1 == e2 or not set(g.edges[e1]) & set(g.edges[e2]):
                raise ValueError(f"edges {e1} and {e2} share no endpoint")
        except ValueError as err:
            raise ValueError(f"flip {i}: {err}") from None
        out = list(cur)
        out[e1], out[e2] = out[e2], out[e1]
        cur = tuple(out)
    return cur


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as err:
        return str(err)


def test_sequences_match_the_per_flip_fold():
    # the in-place replay returns what the per-flip fold returns, and at an
    # injected illegal flip raises the same message
    rng = random.Random(61)
    for trial in range(300):
        n = rng.randint(2, 9)
        g = make_family("random_connected", n, seed=trial)
        pairs = [(a, b) for a in range(g.m) for b in range(g.m)
                 if a != b and set(g.edges[a]) & set(g.edges[b])]
        cases = [(apply_vertex_sequence, _fold_vertex, g.n, list(g.edges),
                  [(0, n), (-1, 0), (0,), (0, 1, 2)]
                  + [(u, v) for u in range(n) for v in range(n) if not g.has_edge(u, v)]),
                 (apply_edge_sequence, _fold_edge, g.m, pairs,
                  [(0, g.m), (-1, 0), (0, 0), (1,)]
                  + [(a, b) for a in range(g.m) for b in range(g.m)
                     if not set(g.edges[a]) & set(g.edges[b])])]
        for apply, fold, size, legal, illegal in cases:
            if not legal:
                continue
            labels = tuple(rng.sample(range(size), size))
            flips = [rng.choice(legal)[::rng.choice((1, -1))]
                     for _ in range(rng.randint(0, 40))]
            assert apply(g, labels, flips) == fold(g, labels, flips)
            flips.insert(rng.randint(0, len(flips)), rng.choice(illegal))
            expected = _outcome(fold, g, labels, flips)
            assert expected.startswith("flip ")
            assert _outcome(apply, g, labels, flips) == expected


def test_relative_permutation_examples():
    lab = (2, 0, 1)
    assert relative_permutation(lab, lab) == identity_labeling(3)
    assert relative_permutation((1, 0, 2), (0, 1, 2)) == (1, 0, 2)
    rel = relative_permutation((2, 0, 1), (1, 2, 0))
    assert compose((1, 2, 0), rel) == (2, 0, 1)


def test_relative_permutation_recomposition_random():
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randint(1, 9)
        a = tuple(rng.sample(range(n), n))
        b = tuple(rng.sample(range(n), n))
        rel = relative_permutation(a, b)
        assert compose(b, rel) == a
        assert relative_permutation(a, a) == identity_labeling(n)


def test_relative_permutation_size_mismatch():
    with pytest.raises(ValueError):
        relative_permutation((0, 1), (0, 1, 2))


@given(st.integers(2, 7), st.data())
def test_flips_preserve_bijectivity(n, data):
    g = make_family("random_connected", n, seed=data.draw(st.integers(0, 100)))
    labels = tuple(data.draw(st.permutations(range(n))))
    flips = [data.draw(st.sampled_from(g.edges)) for _ in range(data.draw(st.integers(0, 8)))]
    out = apply_vertex_sequence(g, labels, flips)
    assert is_permutation(out)
    assert sorted(out) == sorted(labels)


def test_validation():
    p3 = make_family("path", 3)
    assert validate_vertex_labeling(p3, [2, 0, 1]) == (2, 0, 1)
    with pytest.raises(ValueError):
        validate_vertex_labeling(p3, [0, 1])
    with pytest.raises(ValueError):
        validate_vertex_labeling(p3, [0, 0, 2])
    assert identity_labeling(3) == (0, 1, 2)


@pytest.mark.parametrize("bad", [[0, 1.0, 2], [0, True, 2], [0, "1", 2]])
def test_non_integer_labels_raise_value_error(bad):
    p3 = make_family("path", 3)
    with pytest.raises(ValueError, match="not a vertex labeling"):
        validate_vertex_labeling(p3, bad)
    with pytest.raises(ValueError, match="not a permutation"):
        relative_permutation(bad, (0, 1, 2))
    with pytest.raises(ValueError, match="not a permutation"):
        relative_permutation((0, 1, 2), bad)
    assert not is_permutation(bad)


def test_exact_t_rule():
    assert exact_t_rule(0, 0, False)
    assert not exact_t_rule(0, 2, False)
    assert exact_t_rule(0, 2, True)
    assert exact_t_rule(3, 5, False)
    assert not exact_t_rule(3, 4, True)
    assert not exact_t_rule(3, 1, True)
    assert not exact_t_rule(None, 4, True)
    with pytest.raises(ValueError):
        exact_t_rule(2, -1, True)
