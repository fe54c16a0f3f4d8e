import argparse
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import relabel
from relabel.cli import build_parser, main
from relabel.graph import Graph, make_family
from relabel.jsonio import graph_to_json
from relabel.labeling import apply_vertex_sequence
from relabel.transform import METHODS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def p4_files(tmp_path):
    graph = write(tmp_path, "p4.json", graph_to_json(make_family("path", 4)))
    rev = write(tmp_path, "rev.json", {"labels": [3, 2, 1, 0]})
    ident = write(tmp_path, "id.json", {"labels": [0, 1, 2, 3]})
    return graph, rev, ident


def test_gen_star(capsys):
    code, out = run(capsys, "gen", "--family", "star", "--n", "4")
    assert code == 0
    assert out == {"edges": [[0, 1], [0, 2], [0, 3]], "n": 4}


def test_gen_seed_reproducible(capsys):
    code1, out1 = run(capsys, "gen", "--family", "random_connected", "--n", "9",
                      "--seed", "3")
    code2, out2 = run(capsys, "gen", "--family", "random_connected", "--n", "9",
                      "--seed", "3")
    assert code1 == code2 == 0 and out1 == out2


def test_distance_path(capsys, p4_files):
    graph, rev, ident = p4_files
    code, out = run(capsys, "distance", "--graph", graph, "--from", rev,
                    "--to", ident)
    assert code == 0
    assert out == {"distance": 6, "exact": True, "method": "path"}


def test_distance_star(capsys, tmp_path):
    graph = write(tmp_path, "s4.json", graph_to_json(make_family("star", 4)))
    frm = write(tmp_path, "frm.json", {"labels": [1, 2, 3, 0]})
    to = write(tmp_path, "to.json", {"labels": [0, 1, 2, 3]})
    code, out = run(capsys, "distance", "--graph", graph, "--from", frm, "--to", to)
    assert code == 0
    assert out == {"distance": 3, "exact": True, "method": "star"}


def test_distance_non_canonical_path(capsys, tmp_path):
    # path 1-0-2-3 is still dispatched to the path method
    g = Graph(4, [(1, 0), (0, 2), (2, 3)])
    graph = write(tmp_path, "g.json", graph_to_json(g))
    frm = write(tmp_path, "frm.json", {"labels": [0, 1, 2, 3]})
    to = write(tmp_path, "to.json", {"labels": [1, 0, 2, 3]})
    code, out = run(capsys, "distance", "--graph", graph, "--from", frm, "--to", to)
    assert out["method"] == "path"
    from relabel.oracle import ConfigurationSpace, bfs_distance
    assert out["distance"] == bfs_distance(ConfigurationSpace(g),
                                           (0, 1, 2, 3), (1, 0, 2, 3))


def test_distance_bfs_and_fallback(capsys, tmp_path):
    k4 = write(tmp_path, "k4.json", graph_to_json(make_family("complete", 4)))
    frm = write(tmp_path, "frm.json", {"labels": [1, 0, 3, 2]})
    to = write(tmp_path, "to.json", {"labels": [0, 1, 2, 3]})
    code, out = run(capsys, "distance", "--graph", k4, "--from", frm, "--to", to)
    assert code == 0 and out == {"distance": 2, "exact": True, "method": "bfs"}

    big = make_family("random_connected", 12, seed=4)
    graph = write(tmp_path, "g12.json", graph_to_json(big))
    a = write(tmp_path, "a.json", {"labels": list(range(12))})
    b = write(tmp_path, "b.json", {"labels": list(range(11, -1, -1))})
    code, out = run(capsys, "distance", "--graph", graph, "--from", a, "--to", b)
    assert code == 0
    assert out["exact"] is False and out["method"] == "tree-bound"
    assert out["distance"] <= 66

    code = main(["distance", "--graph", graph, "--from", a, "--to", b,
                 "--method", "bfs"])
    assert code == 3


def test_disconnected_graph_answers(capsys, tmp_path):
    # distance, oracle and transform by BFS agree on a reachable pair of a
    # disconnected graph and all refuse an unreachable one (the oracle
    # answers null); the tree bound refuses both
    graph = write(tmp_path, "two.json", {"n": 4, "edges": [[0, 1], [2, 3]]})
    swapped = write(tmp_path, "swapped.json", {"labels": [1, 0, 3, 2]})
    crossed = write(tmp_path, "crossed.json", {"labels": [2, 1, 0, 3]})
    ident = write(tmp_path, "id.json", {"labels": [0, 1, 2, 3]})
    for method in ("auto", "bfs"):
        code, out = run(capsys, "distance", "--graph", graph, "--from", swapped,
                        "--to", ident, "--method", method)
        assert code == 0 and out == {"distance": 2, "exact": True, "method": "bfs"}
        assert_input_error(capsys, "distance", "--graph", graph, "--from", crossed,
                           "--to", ident, "--method", method)
    code, out = run(capsys, "oracle", "--graph", graph, "--from", swapped, "--to", ident)
    assert code == 0 and out == {"distance": 2}
    code, out = run(capsys, "oracle", "--graph", graph, "--from", crossed, "--to", ident)
    assert code == 0 and out == {"distance": None}
    code, out = run(capsys, "transform", "--graph", graph, "--from", swapped,
                    "--to", ident, "--method", "bfs")
    assert code == 0 and out == {"flips": [[0, 1], [2, 3]]}
    assert_input_error(capsys, "transform", "--graph", graph, "--from", crossed,
                       "--to", ident, "--method", "bfs")
    for frm in (swapped, crossed):
        for command in ("distance", "transform"):
            assert_input_error(capsys, command, "--graph", graph, "--from", frm,
                               "--to", ident, "--method", "tree-bound")


def test_empty_graph_is_solved(tmp_path):
    # n = 0: every method answers with nothing to do, exit 0, and no traceback
    graph = write(tmp_path, "empty.json", {"n": 0, "edges": []})
    empty = write(tmp_path, "empty_labels.json", {"labels": []})
    want = {
        ("transform", "tree-bound"): {"flips": []},
        ("transform", "bfs"): {"flips": []},
        ("distance", "tree-bound"): {"distance": 0, "exact": False, "method": "tree-bound"},
        ("distance", "bfs"): {"distance": 0, "exact": True, "method": "bfs"},
        ("distance", "auto"): {"distance": 0, "exact": True, "method": "bfs"},
    }
    env = {**os.environ, "PYTHONPATH": str(Path(relabel.__file__).parents[1])}
    for (command, method), out in want.items():
        done = subprocess.run([sys.executable, "-m", "relabel.cli", command, "--graph", graph,
                               "--from", empty, "--to", empty, "--method", method],
                              capture_output=True, text=True, timeout=60, env=env)
        assert (done.returncode, done.stderr) == (0, ""), (command, method, done.stderr)
        assert json.loads(done.stdout) == out


def test_position_limit_exits_3(capsys, tmp_path):
    # a search holds at most 256 positions, whatever the capacity override
    graph = write(tmp_path, "p300.json", graph_to_json(make_family("path", 300)))
    ident = write(tmp_path, "id300.json", {"labels": list(range(300))})
    override = str(math.factorial(300))
    for argv in (("oracle", "--graph", graph, "--from", ident, "--to", ident),
                 ("distance", "--graph", graph, "--from", ident, "--to", ident,
                  "--method", "bfs")):
        assert main([*argv, "--capacity-override", override]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "300 positions" in err


def test_distance_method_mismatch(capsys, tmp_path):
    k4 = write(tmp_path, "k4.json", graph_to_json(make_family("complete", 4)))
    frm = write(tmp_path, "frm.json", {"labels": [1, 0, 3, 2]})
    assert main(["distance", "--graph", k4, "--from", frm, "--to", frm,
                 "--method", "path"]) == 2


def test_unknown_method_exits_2(capsys, monkeypatch, p4_files):
    # distance() rejects the method, with one line and no usage text
    graph, rev, ident = p4_files
    assert_input_error(capsys, "distance", "--graph", graph, "--from", rev, "--to", ident,
                       "--method", "nonsense")
    # the help still names every method
    monkeypatch.setenv("COLUMNS", "200")
    assert main(["distance", "--help"]) == 0
    help_text = capsys.readouterr().out
    assert all(method in help_text for method in METHODS)


# each request, its exit code and the library modules it executes: the rest stay lazy
EXECUTED = {
    "import": ((), 0, set()),
    "gen": (("gen", "--family", "path", "--n", "5"), 0, {"graph", "jsonio"}),
    "distance": (("distance", "--graph", "p4.json", "--from", "rev.json", "--to", "id.json"),
                 0, {"graph", "jsonio", "transform", "exact_path", "labeling", "perm"}),
    # a labeling the decoder rejects: no method module is loaded
    "distance-malformed": (("distance", "--graph", "p4.json", "--from", "bad.json",
                            "--to", "id.json"), 2, {"graph", "jsonio"}),
    "reduce": (("reduce", "--direction", "v2e", "--instance", "inst.json"),
               0, {"graph", "jsonio", "reductions", "labeling", "perm"}),
    "oracle": (("oracle", "--graph", "p4.json", "--diameter"),
               0, {"graph", "jsonio", "oracle", "labeling", "perm"}),
    "puzzle": (("puzzle", "--side", "2", "--b1", "[0,1,2,3]", "--b2", "[0,2,1,3]", "--k", "4"),
               0, {"graph", "jsonio", "privileged", "labeling", "perm"}),
    "solvable": (("solvable", "--instance", "k13.json"),
                 0, {"graph", "jsonio", "privileged", "labeling", "perm"}),
}
CHILD = """
import contextlib, io, json, sys, types
sys.path.insert(0, {src!r})
from relabel.cli import main
argv = {argv!r}
with contextlib.redirect_stdout(io.StringIO()):
    code = main(argv) if argv else 0
print(json.dumps([code, sorted(name[len("relabel."):] for name, m in sys.modules.items()
                               if name.startswith("relabel.") and name != "relabel.cli"
                               and type(m) is types.ModuleType)]))
"""


@pytest.mark.parametrize("request_name", EXECUTED)
def test_requests_execute_only_the_modules_they_run(tmp_path, request_name):
    argv, code, executed = EXECUTED[request_name]
    write(tmp_path, "p4.json", graph_to_json(make_family("path", 4)))
    write(tmp_path, "rev.json", {"labels": [3, 2, 1, 0]})
    write(tmp_path, "id.json", {"labels": [0, 1, 2, 3]})
    write(tmp_path, "bad.json", {"labels": [0, "1", 2, 3]})
    write(tmp_path, "inst.json", {"kind": "vertex", "graph": graph_to_json(make_family("path", 3)),
                                  "from": {"labels": [2, 1, 0]}, "to": {"labels": [0, 1, 2]},
                                  "t": 3})
    # two non-privileged labels on K_{1,3}: solved by tree swaps, no search
    write(tmp_path, "k13.json", {"kind": "vertex", "graph": graph_to_json(make_family("star", 4)),
                                 "from": {"labels": [0, 1, 2, 3]}, "to": {"labels": [3, 2, 1, 0]},
                                 "privileged": [0, 1], "t": None})
    src = str(Path(relabel.__file__).parents[1])  # the package this suite imports
    child = CHILD.format(src=src, argv=list(argv))
    out = subprocess.run([sys.executable, "-c", child], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert json.loads(out) == [code, sorted(executed)]


def test_transform_self_check(capsys, p4_files):
    graph, rev, ident = p4_files
    for method in ("tree-bound", "bfs"):
        code, out = run(capsys, "transform", "--graph", graph, "--from", rev,
                        "--to", ident, "--method", method)
        assert code == 0
        g = make_family("path", 4)
        flips = [tuple(f) for f in out["flips"]]
        assert apply_vertex_sequence(g, (3, 2, 1, 0), flips) == (0, 1, 2, 3)
    # bfs output is optimal
    assert len(flips) == 6


def test_reduce_round_trip(capsys, tmp_path):
    inst = {
        "kind": "vertex",
        "graph": graph_to_json(make_family("path", 3)),
        "from": {"labels": [2, 1, 0]},
        "to": {"labels": [0, 1, 2]},
        "t": 3,
    }
    path = write(tmp_path, "inst.json", inst)
    code, eout = run(capsys, "reduce", "--direction", "v2e", "--instance", path)
    assert code == 0
    assert eout["kind"] == "edge" and eout["t"] == 9
    assert eout["from"]["edge_labels"] == [2, 1, 0, 3, 4]
    epath = write(tmp_path, "einst.json", eout)
    code, vout = run(capsys, "reduce", "--direction", "e2v", "--instance", epath)
    assert code == 0
    assert vout["kind"] == "vertex" and vout["t"] == 9
    assert vout["graph"]["n"] == 5
    assert main(["reduce", "--direction", "e2v", "--instance", path]) == 2


def test_solvable_no(capsys, tmp_path):
    inst = {
        "kind": "vertex",
        "graph": graph_to_json(make_family("path", 4)),
        "from": {"labels": [3, 2, 0, 1]},
        "to": {"labels": [3, 2, 1, 0]},
        "privileged": [2, 3],
        "t": None,
    }
    path = write(tmp_path, "inst.json", inst)
    code, out = run(capsys, "solvable", "--instance", path)
    assert code == 1
    assert out == {"answer": "no", "method": "invariant", "witness": None}


def test_solvable_yes_with_witness(capsys, tmp_path):
    inst = {
        "kind": "vertex",
        "graph": graph_to_json(make_family("star", 4)),
        "from": {"labels": [3, 0, 1, 2]},
        "to": {"labels": [0, 1, 2, 3]},
        "privileged": [0, 1],
    }
    path = write(tmp_path, "inst.json", inst)
    code, out = run(capsys, "solvable", "--instance", path)
    assert code == 0
    assert out["answer"] == "yes" and out["method"] == "theorem"
    flips = [tuple(f) for f in out["witness"]]
    g = make_family("star", 4)
    assert apply_vertex_sequence(g, (3, 0, 1, 2), flips) == (0, 1, 2, 3)
    code, one = run(capsys, "solvable", "--instance", path, "--one-based")
    assert one["witness"] == [[u + 1, v + 1] for u, v in flips]


def test_puzzle_and_solvable(capsys, tmp_path):
    code, out = run(capsys, "puzzle", "--side", "2", "--b1", "[0,1,2,3]",
                    "--b2", "[0,2,1,3]", "--k", "4")
    assert code == 0
    assert out["privileged"] == [3] and out["kind"] == "vertex"
    path = write(tmp_path, "puz.json", out)
    code, res = run(capsys, "solvable", "--instance", path)
    assert code in (0, 1)
    assert res["answer"] in ("yes", "no")


def test_oracle_outputs(capsys, p4_files):
    graph, rev, ident = p4_files
    code, out = run(capsys, "oracle", "--graph", graph, "--from", rev, "--to", ident)
    assert code == 0 and out == {"distance": 6}
    code, out = run(capsys, "oracle", "--graph", graph, "--from", rev,
                    "--to", ident, "--t", "8")
    assert out == {"distance": 6, "reachable_in_exactly": True}
    code, out = run(capsys, "oracle", "--graph", graph, "--diameter")
    assert out == {"diameter": 6}
    code, out = run(capsys, "oracle", "--graph", graph, "--distribution")
    hist = out["distribution"]
    assert sum(hist.values()) == 24 and hist["6"] == 1


def test_oracle_restricted_unreachable(capsys, p4_files):
    graph, rev, ident = p4_files
    code, out = run(capsys, "oracle", "--graph", graph, "--privileged", "0,1",
                    "--from", rev, "--to", ident)
    assert code == 0 and out == {"distance": None}


@pytest.mark.parametrize("query", [
    ("--diameter", "--distribution"),
    ("--diameter", "--from", "REV"),
    ("--diameter", "--to", "ID"),
    ("--diameter", "--t", "3"),
    ("--diameter", "--from", "REV", "--to", "ID", "--t", "3"),
    ("--distribution", "--from", "REV"),
    ("--distribution", "--to", "ID"),
    ("--distribution", "--t", "3"),
    ("--distribution", "--from", "REV", "--to", "ID"),
])
def test_oracle_refuses_conflicting_queries(capsys, monkeypatch, p4_files, query):
    # a whole-space query answers none of the others, so it comes alone;
    # the refusal names the options and runs no search
    graph, rev, ident = p4_files
    monkeypatch.setattr(relabel.oracle, "ConfigurationSpace", None)
    argv = [{"REV": rev, "ID": ident}.get(a, a) for a in query]
    err = assert_input_error(capsys, "oracle", "--graph", graph, *argv)
    assert all(opt in err for opt in query if opt.startswith("--")), err


def test_oracle_empty_privileged_set_exits_2(capsys, p4_files):
    # "" names the empty set, which the library refuses; it is not "no set"
    graph, rev, ident = p4_files
    assert_input_error(capsys, "oracle", "--graph", graph, "--privileged", "", "--diameter")
    assert_input_error(capsys, "oracle", "--graph", graph, "--privileged", "",
                       "--from", rev, "--to", ident)


def test_edge_mode_refusal_builds_no_line_graph(capsys, monkeypatch, tmp_path):
    # K_30 has 435 edges, more positions than a search key holds: the space
    # counts them from the edges and refuses before building its line graph
    def no_line_graph(g):
        raise AssertionError("line_graph called")
    graph = write(tmp_path, "k30.json", graph_to_json(make_family("complete", 30)))
    monkeypatch.setattr(relabel.oracle, "line_graph", no_line_graph)
    for query in (["--diameter"], ["--distribution"]):
        assert main(["oracle", "--graph", graph, "--mode", "edge", *query]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == ("error: 435 positions exceed the 256 a search "
                                     "can hold\n")
    # a malformed labeling is still refused as input first, and so is a
    # privileged label past the edge count
    short = write(tmp_path, "short.json", {"edge_labels": [1, 0]})
    assert_input_error(capsys, "oracle", "--graph", graph, "--mode", "edge",
                       "--from", short, "--to", short)
    assert_input_error(capsys, "oracle", "--graph", graph, "--mode", "edge",
                       "--privileged", "435", "--diameter")


def test_oracle_edge_mode(capsys, tmp_path):
    graph = write(tmp_path, "s4.json", graph_to_json(make_family("star", 4)))
    code, out = run(capsys, "oracle", "--graph", graph, "--mode", "edge",
                    "--diameter")
    assert code == 0 and out == {"diameter": 2}


def test_one_based_rendering(capsys, p4_files):
    code, out = run(capsys, "gen", "--family", "star", "--n", "4", "--one-based")
    assert out == {"edges": [[1, 2], [1, 3], [1, 4]], "n": 4}
    # flips are emitted as the tree's edge tuples; both renderings are arrays
    graph, rev, ident = p4_files
    for extra, shift in (([], 0), (["--one-based"], 1)):
        assert main(["transform", "--graph", graph, "--from", rev, "--to", ident,
                     *extra]) == 0
        pairs = [[2, 3], [1, 2], [0, 1], [2, 3], [1, 2], [2, 3]]
        flips = ",".join(f"[{u + shift},{v + shift}]" for u, v in pairs)
        assert capsys.readouterr().out == '{"flips":[' + flips + ']}\n'


def test_usage_and_input_errors(capsys, tmp_path):
    assert main(["distance", "--graph", "/nonexistent.json",
                 "--from", "/x.json", "--to", "/y.json"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["gen", "--family", "star"]) == 2  # missing --n
    assert main(["oracle", "--graph", str(bad), "--diameter"]) == 2


def test_byte_identical_output(capsys, p4_files):
    graph, rev, ident = p4_files
    main(["distance", "--graph", graph, "--from", rev, "--to", ident])
    first = capsys.readouterr().out
    main(["distance", "--graph", graph, "--from", rev, "--to", ident])
    second = capsys.readouterr().out
    assert first == second


def assert_input_error(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    return err


def test_gen_size_guard(capsys):
    # a grid of side 10^8 is refused before a single vertex is built
    tracemalloc.start()
    try:
        assert_input_error(capsys, "gen", "--family", "grid", "--n", "100000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert_input_error(capsys, "gen", "--family", "complete", "--n", "5000")


def test_decoded_graph_size_guard(capsys, monkeypatch, tmp_path):
    # 30 bytes that would have Graph build 10^9 neighbour rows: refused
    # before a single row is built
    def no_rows(*args):
        raise AssertionError("graph._rows called")
    monkeypatch.setattr(relabel.graph, "_rows", no_rows)
    huge = write(tmp_path, "huge.json", {"n": 10 ** 9, "edges": []})
    assert_input_error(capsys, "oracle", "--graph", huge, "--diameter")
    assert_input_error(capsys, "distance", "--graph", huge, "--from", huge, "--to", huge)
    inst = write(tmp_path, "inst.json", {"kind": "vertex", "graph": {"n": 10 ** 9, "edges": []},
                                         "from": {"labels": [0]}, "to": {"labels": [0]},
                                         "t": 0})
    assert_input_error(capsys, "reduce", "--direction", "v2e", "--instance", inst)
    # the edge count meets the same limit, here lowered so no large list is built
    monkeypatch.setattr(relabel.jsonio, "FAMILY_SIZE_LIMIT", 2)
    three = write(tmp_path, "three.json", {"n": 2, "edges": [[0, 1], [0, 1], [0, 1]]})
    assert_input_error(capsys, "oracle", "--graph", three, "--diameter")


@pytest.fixture
def p3_files(tmp_path):
    graph = write(tmp_path, "p3.json", {"n": 3, "edges": [[0, 1], [1, 2]]})
    ident = write(tmp_path, "id3.json", {"labels": [0, 1, 2]})
    return tmp_path, graph, ident


def test_string_vertex_count_exits_2(capsys, p3_files):
    tmp_path, _, ident = p3_files
    graph = write(tmp_path, "n_string.json", {"n": "3", "edges": [[0, 1], [1, 2]]})
    assert_input_error(capsys, "distance", "--graph", graph, "--from", ident, "--to", ident)


def assert_labeling_refused(capsys, p3_files, labels):
    # every distance method and both transform methods, on P_3 (a path and a
    # star) and on K_3 (neither), with the bad labeling on either side
    tmp_path, p3, ident = p3_files
    k3 = write(tmp_path, "k3.json", graph_to_json(make_family("complete", 3)))
    bad = write(tmp_path, "bad.json", {"labels": labels})
    requests = [("distance", m) for m in METHODS] + \
        [("transform", m) for m in ("tree-bound", "bfs")]
    for graph in (p3, k3):
        for command, method in requests:
            for frm, to in ((bad, ident), (ident, bad)):
                assert_input_error(capsys, command, "--graph", graph, "--from", frm,
                                   "--to", to, "--method", method)


def test_short_labeling_exits_2(capsys, p3_files):
    for labels in ([0, 1], [0, 1, 2, 3], [0, 0, 2]):
        assert_labeling_refused(capsys, p3_files, labels)
    # a bad labeling is an input error also where BFS would exceed capacity
    tmp_path = p3_files[0]
    k11 = write(tmp_path, "k11.json", graph_to_json(make_family("complete", 11)))
    dup = write(tmp_path, "dup11.json", {"labels": [0] + list(range(10))})
    ident = write(tmp_path, "id11.json", {"labels": list(range(11))})
    for command in ("distance", "transform"):
        assert_input_error(capsys, command, "--graph", k11, "--from", dup, "--to", ident,
                           "--method", "bfs")


def test_float_label_exits_2(capsys, p3_files):
    for labels in ([0, 1.0, 2], [0, True, 2]):
        assert_labeling_refused(capsys, p3_files, labels)


def test_non_integer_instance_fields_exit_2(capsys, tmp_path):
    inst = {"kind": "vertex", "graph": {"n": 3, "edges": [[0, 1], [1, 2]]},
            "from": {"labels": [0, 1, 2]}, "to": {"labels": [2, 1, 0]}}
    bound = write(tmp_path, "t.json", dict(inst, t="2"))
    assert_input_error(capsys, "reduce", "--direction", "v2e", "--instance", bound)
    priv = write(tmp_path, "priv.json", dict(inst, privileged=[1.5], t=None))
    assert_input_error(capsys, "solvable", "--instance", priv)


def test_oracle_labeling_kind_must_match_mode(capsys, tmp_path):
    graph = write(tmp_path, "k3.json", graph_to_json(make_family("complete", 3)))
    edge = write(tmp_path, "e.json", {"edge_labels": [2, 1, 0]})
    vertex = write(tmp_path, "v.json", {"labels": [0, 1, 2]})
    edge_ident = write(tmp_path, "e_id.json", {"edge_labels": [0, 1, 2]})
    for mode, frm, to in (("vertex", edge, vertex), ("vertex", edge, edge_ident),
                          ("edge", vertex, vertex), ("edge", edge, vertex)):
        assert_input_error(capsys, "oracle", "--graph", graph, "--mode", mode,
                           "--from", frm, "--to", to)
    code, out = run(capsys, "oracle", "--graph", graph, "--mode", "edge",
                    "--from", edge, "--to", edge_ident)
    assert code == 0 and out == {"distance": 1}


def test_puzzle_non_integer_cells_exit_2(capsys):
    for b1 in ("[[0,1.0],[2,3]]", "[0,true,2,3]", "[[0,1],2,3]", '"0123"'):
        assert_input_error(capsys, "puzzle", "--side", "2", "--b1", b1,
                           "--b2", "[0,1,2,3]", "--k", "2")
    code, out = run(capsys, "puzzle", "--side", "2", "--b1", "[[0,1],[2,3]]",
                    "--b2", "[0,1,2,3]", "--k", "2")
    assert code == 0 and out["from"] == {"labels": [0, 1, 2, 3]}


def test_unknown_json_keys_exit_2(capsys, tmp_path):
    inst = {"kind": "vertex", "graph": {"n": 3, "edges": [[0, 1], [1, 2]]},
            "from": {"labels": [0, 1, 2]}, "to": {"labels": [2, 1, 0]}, "t": 3}
    # a misspelt "privileged" would otherwise reduce as a plain instance
    typo = write(tmp_path, "typo.json", dict(inst, privilged=[1]))
    assert_input_error(capsys, "reduce", "--direction", "v2e", "--instance", typo)
    assert_input_error(capsys, "solvable", "--instance", typo)
    bad_graph = write(tmp_path, "bad_graph.json", dict(inst, graph={"n": 3, "edges": [],
                                                                    "m": 0}))
    assert_input_error(capsys, "reduce", "--direction", "v2e", "--instance", bad_graph)
    for labeling in ({"labels": [0, 1, 2], "edge_labels": [0, 1]},
                     {"labels": [0, 1, 2], "note": "home"}):
        bad = write(tmp_path, "bad_inst.json", dict(inst, to=labeling))
        assert_input_error(capsys, "reduce", "--direction", "v2e", "--instance", bad)
        lab = write(tmp_path, "bad_lab.json", labeling)
        p3 = write(tmp_path, "p3.json", inst["graph"])
        assert_input_error(capsys, "distance", "--graph", p3, "--from", lab, "--to", lab)
    assert_input_error(capsys, "distance", "--graph", bad_graph, "--from", lab, "--to", lab)
    # what gen, reduce and puzzle print still decodes
    code, graph = run(capsys, "gen", "--family", "star", "--n", "3")
    assert code == 0
    ident = write(tmp_path, "id.json", {"labels": [0, 1, 2]})
    code, out = run(capsys, "distance", "--graph", write(tmp_path, "g.json", graph),
                    "--from", ident, "--to", ident)
    assert code == 0 and out["distance"] == 0
    code, edge = run(capsys, "reduce", "--direction", "v2e", "--instance",
                     write(tmp_path, "inst.json", inst))
    assert code == 0
    code, back = run(capsys, "reduce", "--direction", "e2v", "--instance",
                     write(tmp_path, "edge.json", edge))
    assert code == 0 and back["kind"] == "vertex"
    code, puzzle = run(capsys, "puzzle", "--side", "2", "--b1", "[0,1,2,3]",
                       "--b2", "[0,1,3,2]", "--k", "1")
    assert code == 0
    code, res = run(capsys, "solvable", "--instance", write(tmp_path, "puz.json", puzzle))
    assert code == 0 and res["answer"] == "yes"


# each subcommand's options: --one-based only where the output has a key it
# shifts, --capacity-override only where a request can run an oracle search
OPTIONS = {
    "gen": {"--family", "--n", "--seed", "--one-based"},
    "distance": {"--graph", "--from", "--to", "--method", "--capacity-override"},
    "transform": {"--graph", "--from", "--to", "--method", "--one-based",
                  "--capacity-override"},
    "reduce": {"--direction", "--instance", "--one-based"},
    "solvable": {"--instance", "--one-based", "--capacity-override"},
    "puzzle": {"--side", "--b1", "--b2", "--k", "--one-based"},
    "oracle": {"--graph", "--mode", "--privileged", "--from", "--to", "--t", "--diameter",
               "--distribution", "--capacity-override"},
}


def test_each_subcommand_takes_only_the_options_it_reads(capsys, p4_files):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    got = {name: {s for action in p._actions for s in action.option_strings} - {"-h", "--help"}
           for name, p in sub.choices.items()}
    assert got == OPTIONS
    graph, rev, ident = p4_files
    for argv in (("distance", "--graph", graph, "--from", rev, "--to", ident, "--one-based"),
                 ("oracle", "--graph", graph, "--diameter", "--one-based"),
                 ("gen", "--family", "path", "--n", "3", "--capacity-override", "9")):
        assert main(list(argv)) == 2
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments" in err
