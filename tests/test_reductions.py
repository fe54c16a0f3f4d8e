import dataclasses
import itertools
import random

import pytest

from relabel.graph import Graph, is_connected, line_graph, make_family
from relabel.labeling import (
    apply_edge_sequence,
    apply_vertex_sequence,
    identity_labeling,
)
from relabel.oracle import ConfigurationSpace, bfs_distance
from relabel.reductions import (
    EdgeInstance,
    VertexInstance,
    compile_vertex_flips_to_edge_flips,
    edge_to_vertex,
    pendant_graph,
    vertex_to_edge,
)


def test_vertex_to_edge_p2():
    g = make_family("path", 2)
    inst = VertexInstance(g, (0, 1), (1, 0), 1)
    out = vertex_to_edge(inst)
    assert out.graph.n == 4 and out.graph.m == 3
    assert out.t == 3
    assert out.from_labels == (0, 1, 2)
    assert out.to_labels == (1, 0, 2)


def test_vertex_to_edge_identity():
    g = make_family("path", 3)
    inst = VertexInstance(g, (2, 0, 1), (2, 0, 1), 0)
    out = vertex_to_edge(inst)
    assert out.from_labels == out.to_labels
    assert out.t == 0


def test_pendant_labels_track_vertex_labels():
    g = make_family("star", 4)
    frm = (2, 0, 3, 1)
    to = (0, 1, 2, 3)
    out = vertex_to_edge(VertexInstance(g, frm, to, 2))
    n, m = g.n, g.m
    assert out.from_labels[:n] == frm and out.to_labels[:n] == to
    assert out.from_labels[n:] == tuple(range(n, n + m)) == out.to_labels[n:]
    assert out.graph.edges[:n] == tuple((i, n + i) for i in range(n))
    assert out.graph.edges[n:] == g.edges


def test_p3_reversal_yes_at_tripled_bound():
    g = make_family("path", 3)
    inst = VertexInstance(g, (2, 1, 0), identity_labeling(3), 3)
    dv = bfs_distance(ConfigurationSpace(g), inst.from_labels, inst.to_labels)
    assert dv == 3 <= inst.t
    out = vertex_to_edge(inst)
    de = bfs_distance(ConfigurationSpace(out.graph, mode="edge"),
                      out.from_labels, out.to_labels)
    assert de <= out.t


def test_gadget_compiler():
    rng = random.Random(19)
    for trial in range(30):
        g = make_family("random_connected", rng.randint(2, 6), seed=trial)
        n = g.n
        frm = tuple(rng.sample(range(n), n))
        flips = [g.edges[rng.randrange(g.m)] for _ in range(rng.randint(0, 6))]
        eflips = compile_vertex_flips_to_edge_flips(g, flips)
        assert len(eflips) == 3 * len(flips)
        g2 = pendant_graph(g)
        start = frm + tuple(range(n, n + g.m))
        out = apply_edge_sequence(g2, start, eflips)
        direct = apply_vertex_sequence(g, frm, flips)
        assert out[:n] == direct
        assert out[n:] == start[n:]


def ref_compile_vertex_flips_to_edge_flips(g, flips):
    # the per-flip loop as it stood before the one-lookup rewrite
    out = []
    for k, l in flips:
        e = g.n + g.edge_index(k, l)
        out.extend([(k, e), (e, l), (e, k)])
    return out


def test_gadget_compiler_matches_reference():
    rng = random.Random(23)
    for trial in range(40):
        g = make_family("random_connected", rng.randint(2, 30), seed=trial)
        flips = [g.edges[rng.randrange(g.m)] for _ in range(rng.randint(0, 50))]
        for given in (flips, [(l, k) for k, l in flips], [list(f) for f in flips]):
            assert compile_vertex_flips_to_edge_flips(g, given) == \
                ref_compile_vertex_flips_to_edge_flips(g, given)
    g = make_family("path", 4)
    for bad in ([(0, 2)], [(1, 2), (3, 1)], [[0, 0]], [(0, 9)]):
        with pytest.raises(ValueError) as want:
            ref_compile_vertex_flips_to_edge_flips(g, bad)
        with pytest.raises(ValueError) as got:
            compile_vertex_flips_to_edge_flips(g, bad)
        assert str(got.value) == str(want.value)


def test_pendant_graph_matches_checked_graph(assert_like_checked):
    rng = random.Random(31)
    graphs = [Graph(0, []), Graph(1, []), make_family("star", 5),
              Graph(6, [(3, 4), (0, 5), (1, 2)])]  # disconnected
    graphs += [make_family(family, 4, seed=0) for family in
               ("path", "star", "cycle", "grid", "complete", "random_connected")]
    graphs += [make_family("random_connected", rng.randint(2, 40), seed=s)
               for s in range(20)]
    for g in graphs:
        n = g.n
        got = pendant_graph(g)
        assert got == Graph(2 * n, [(i, n + i) for i in range(n)] + list(g.edges))
        assert_like_checked(got)
        assert is_connected(got) == is_connected(Graph(n, g.edges))
        lg = line_graph(g)
        assert_like_checked(lg)
        # its edges are every pair of g's edges that share an endpoint
        assert lg.edges == tuple((i, j) for i in range(g.m) for j in range(i + 1, g.m)
                                 if set(g.edges[i]) & set(g.edges[j]))


def test_reductions_do_not_recheck(permutation_checks):
    # the maps build from checked parts and check nothing again; the
    # records they build equal, and hash like, the checked ones
    rng = random.Random(37)
    graphs = [make_family("path", 3), make_family("star", 4)]
    graphs += [make_family("random_connected", rng.randint(2, 12), seed=s)
               for s in range(10)]
    for g in graphs:
        frm = tuple(rng.sample(range(g.n), g.n))
        to = tuple(rng.sample(range(g.n), g.n))
        inst = VertexInstance(g, frm, to, 2)
        assert permutation_checks == [g.n, g.n]
        permutation_checks.clear()
        einst = vertex_to_edge(inst)
        vinst = edge_to_vertex(einst)
        assert permutation_checks == []
        fixed = list(range(g.n, g.n + g.m))
        pendant = Graph(2 * g.n, [(i, g.n + i) for i in range(g.n)] + list(g.edges))
        checked_e = EdgeInstance(pendant, list(frm) + fixed, list(to) + fixed, 6)
        checked_v = VertexInstance(Graph(pendant.m, line_graph(pendant).edges),
                                   list(frm) + fixed, list(to) + fixed, 6)
        assert permutation_checks == [pendant.m] * 4
        for trusted, checked in ((einst, checked_e), (vinst, checked_v)):
            assert type(trusted) is type(checked)
            assert trusted == checked and hash(trusted) == hash(checked)
            with pytest.raises(dataclasses.FrozenInstanceError):
                trusted.t = 0
        permutation_checks.clear()


def test_public_constructors_check_every_instance(permutation_checks):
    g = make_family("path", 3)
    for make in (VertexInstance, EdgeInstance):
        count = g.n if make is VertexInstance else g.m
        ident = tuple(range(count))
        permutation_checks.clear()
        make(g, ident, ident, 1)
        assert permutation_checks == [count, count]
        for bad in (ident[:-1], (0.0,) + ident[1:], (0, True) + ident[2:]):
            with pytest.raises(ValueError):
                make(g, bad, ident, 1)
            with pytest.raises(ValueError):
                make(g, ident, bad, 1)
        with pytest.raises(ValueError):
            make(g, ident, ident, -1)


def test_edge_to_vertex_examples():
    star = make_family("star", 4)
    inst = EdgeInstance(star, (2, 0, 1), (0, 1, 2), 2)
    out = edge_to_vertex(inst)
    assert out.graph == line_graph(star)
    assert out.graph.m == 3  # triangle
    assert out.t == 2
    assert out.from_labels == inst.from_labels

    same = EdgeInstance(star, (2, 0, 1), (2, 0, 1), 0)
    assert edge_to_vertex(same).from_labels == edge_to_vertex(same).to_labels


def test_edge_to_vertex_preserves_answers_exactly(brute_edge_distances):
    # flip-for-flip correspondence: checked against a direct edge-flip BFS
    for g in (make_family("path", 3), make_family("path", 4),
              make_family("star", 4)):
        ident = identity_labeling(g.m)
        direct = brute_edge_distances(g, ident)
        for lab in itertools.permutations(range(g.m)):
            de = direct[lab]
            for t in range(5):
                inst = EdgeInstance(g, lab, ident, t)
                out = edge_to_vertex(inst)
                dv = bfs_distance(ConfigurationSpace(out.graph),
                                  out.from_labels, out.to_labels)
                assert (de <= t) == (dv <= out.t)


def test_round_trip_matches_intermediate():
    # e2v after v2e answers exactly like the edge instance it came from
    g = make_family("path", 3)
    rng = random.Random(29)
    for _ in range(10):
        frm = tuple(rng.sample(range(3), 3))
        to = tuple(rng.sample(range(3), 3))
        einst = vertex_to_edge(VertexInstance(g, frm, to, rng.randint(0, 4)))
        vinst = edge_to_vertex(einst)
        de = bfs_distance(ConfigurationSpace(einst.graph, mode="edge"),
                          einst.from_labels, einst.to_labels)
        dv = bfs_distance(ConfigurationSpace(vinst.graph),
                          vinst.from_labels, vinst.to_labels)
        assert de == dv and einst.t == vinst.t


def test_instance_validation():
    g = make_family("path", 3)
    with pytest.raises(ValueError):
        VertexInstance(g, (0, 1), (0, 1, 2), 1)
    with pytest.raises(ValueError):
        VertexInstance(g, (0, 1, 2), (0, 1, 2), -1)
    with pytest.raises(ValueError):
        EdgeInstance(g, (0, 1, 2), (0, 1), 1)
