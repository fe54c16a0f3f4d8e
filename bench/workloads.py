"""The three workloads, each a fixed list of operations made from a seed.

A workload has three steps.  ``spec(seed)`` picks what the set-up builds.
The function of the same name in ``build.py`` is the program's own set-up:
it imports ``relabel`` and builds the graphs and configuration spaces.
``operations(env, seed)`` makes the inputs and reference answers, which
are not timed, and returns the round: a list of ``Op``.  Each operation
looks its function up on the module when it runs, so the tracer's wrappers
see it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

from build import CERTIFY_N, TREE_N, grid_edges
from checks import (
    bfs,
    check_sequence,
    complete_distance,
    connected,
    expect,
    grid_solvable,
    histogram,
    inversions,
    line_graph_edges,
    mahonian,
    normalized_edges,
    parity,
    relative,
    replay,
    star_q,
    stirling_distances,
)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    known_fault: str | None = None    # why this operation fails today, if it does
    argv: list[str] | None = None     # cli requests only


def python_env(src: str) -> dict:
    """The environment for a child interpreter that imports relabel from src."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def shuffled(rng: random.Random, n: int) -> tuple[int, ...]:
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def with_relative(target, rel) -> tuple[int, ...]:
    """The labeling whose relative permutation against target is rel."""
    return tuple(target[r] for r in rel)


# --------------------------------------------------------------------------
# certify: full-space searches on 7-8 positions

class Certify:
    """Vertex, edge and privileged spaces searched to the end, as the
    acceptance criteria, ``oracle --distribution`` and ``solvable`` do."""

    name = "certify"

    def spec(self, seed: int) -> None:
        return None

    def operations(self, env: dict, seed: int) -> list[Op]:
        R, n = env["R"], CERTIFY_N
        rng = random.Random(f"certify:{seed}")
        src = {f: shuffled(rng, n) for f in ("path", "star", "cycle", "complete")}
        esrc = {f: shuffled(rng, n) for f in ("path", "star")}
        vs, es = env["vertex"], env["edge"]
        cycle_ecc = max(bfs([(i, (i + 1) % n) for i in range(n)], range(n)).values())
        ops = [
            Op("P7 distance_distribution",
               lambda: R.oracle.distance_distribution(vs["path"], src["path"]),
               lambda h: expect(h == mahonian(n), f"histogram {h} is not Mahonian")),
            Op("S7 distance_map",
               lambda: R.oracle.distance_map(vs["star"], src["star"]),
               lambda d: self._check_map(d, src["star"], star_q, 3 * (n - 1) // 2)),
            Op("C7 diameter",
               lambda: R.oracle.diameter(vs["cycle"], src["cycle"]),
               lambda d: expect(d == cycle_ecc, f"diameter {d}, BFS gives {cycle_ecc}")),
            Op("K7 distance_distribution",
               lambda: R.oracle.distance_distribution(vs["complete"], src["complete"]),
               lambda h: expect(h == stirling_distances(n), f"histogram {h} is not Stirling")),
            Op("K7 diameter",
               lambda: R.oracle.diameter(vs["complete"], src["complete"]),
               lambda d: expect(d == n - 1, f"diameter {d}, expected {n - 1}")),
            # edge mode: the line graph of P_8 is P_7 in edge-index order,
            # the line graph of K_{1,7} is K_7
            Op("P8 edge distance_map",
               lambda: R.oracle.distance_map(es["path"], esrc["path"]),
               lambda d: self._check_map(d, esrc["path"], inversions, n * (n - 1) // 2,
                                         mahonian(n))),
            Op("K1,7 edge distance_map",
               lambda: R.oracle.distance_map(es["star"], esrc["star"]),
               lambda d: self._check_map(d, esrc["star"], complete_distance, n - 1,
                                         stirling_distances(n))),
            Op("K1,7 edge diameter",
               lambda: R.oracle.diameter(es["star"], esrc["star"]),
               lambda d: expect(d == n - 1, f"diameter {d}, expected {n - 1}")),
        ]
        ops += self._board_ops(R, env, rng)
        return ops

    @staticmethod
    def _check_map(dist, source, formula, diameter, hist=None) -> None:
        size = math.factorial(len(source))
        expect(len(dist) == size and all(sorted(s) == sorted(source) for s in dist),
               f"{len(dist)} states, expected {size} labelings")
        for state, d in dist.items():
            rel = relative(state, source)
            expect(d == formula(rel), f"distance {d} of {state}, expected {formula(rel)}")
            expect(d % 2 == parity(rel), f"distance {d} of {state} has the wrong parity")
        expect(max(dist.values()) == diameter, f"largest distance {max(dist.values())}, "
               f"expected {diameter}")
        if hist is not None:
            expect(histogram(dist.values()) == hist, "histogram differs")

    def _board_ops(self, R, env: dict, rng: random.Random) -> list[Op]:
        # three 2x3 boards, so that the median operation is a 7-position search
        ops = []
        for board, (rows, cols) in zip("ABCD", ((2, 3), (2, 3), (2, 3), (2, 4))):
            size = rows * cols
            blank = size - 1
            edges = grid_edges(rows, cols)
            eset = set(edges)
            frm = shuffled(rng, size)
            comp = bfs(edges, frm, {blank})
            if size == 8:
                far = max(comp.values())
                yes = rng.choice(sorted(s for s, d in comp.items() if d == far))

                def check_grid(dist, frm=frm, comp=comp, blank=blank, cols=cols):
                    half = math.factorial(len(frm)) // 2
                    expect(len(dist) == half, f"component has {len(dist)} states, "
                           f"expected 8!/2 = {half}")
                    for state, d in dist.items():
                        expect(grid_solvable(cols, frm, state, blank) and
                               d % 2 == parity(relative(state, frm)),
                               f"distance {d} of {state} breaks the parity rule")
                    expect(dist == comp, "distances differ from the benchmark's BFS")

                ops.append(Op("2x4 privileged distance_map",
                              lambda frm=frm: R.oracle.distance_map(env["grid_space"], frm),
                              check_grid))
            else:
                yes = rng.choice(sorted(s for s in comp if s != frm))
            # swapping two non-blank tiles flips the board parity, not the blank
            tiles = [i for i in range(size) if yes[i] != blank]
            i, j = rng.sample(tiles, 2)
            no = list(yes)
            no[i], no[j] = no[j], no[i]
            for to, word in ((yes, "solvable"), (tuple(no), "unsolvable")):
                g = env["grids"][(rows, cols)]
                inst = (g, "vertex", frm, to, frozenset({blank}))

                def run(inst=inst):
                    return R.privileged.resolve_solvable(
                        R.privileged.PrivilegedInstance(*inst), want_witness=True)

                def check(ans, frm=frm, to=to, comp=comp, blank=blank, cols=cols, eset=eset):
                    answer, method, witness = ans
                    want = grid_solvable(cols, frm, to, blank)
                    expect(want == (to in comp), "Wilson's rule disagrees with the BFS")
                    expect(answer == ("yes" if want else "no"),
                           f"answer {answer}, Wilson's rule says {'yes' if want else 'no'}")
                    if not want:
                        expect(witness is None, "witness for an unsolvable board")
                        return
                    check_sequence(eset, frm, to, witness, {blank})
                    d = comp[to]
                    expect(len(witness) >= d and (len(witness) - d) % 2 == 0,
                           f"witness of {len(witness)} flips, distance {d}")
                    if method == "oracle":
                        expect(len(witness) == d, f"oracle witness of {len(witness)} "
                               f"flips is not shortest ({d})")

                ops.append(Op(f"{rows}x{cols} board {board} resolve_solvable {word}", run,
                              check))
        return ops


# --------------------------------------------------------------------------
# queries: one answer at a time

class Queries:
    """Closed forms, sequences, the tree transform, constructive privileged
    moves, the vertex-to-edge map and early-stopping point queries."""

    name = "queries"
    N_DIST = {"path": 20_000, "star": 100_000}
    N_SEQ = 1000
    N_STAR_ADV = 12_000

    def spec(self, seed: int) -> dict:
        rng = random.Random(f"queries-graphs:{seed}")
        while True:
            parents = [rng.randrange(v) for v in range(1, TREE_N)]
            if max(parents.count(p) for p in set(parents)) >= 3:
                break           # not a path, so the constructive case applies
        return {"rc_seed": rng.randrange(2 ** 31), "v2e_seed": rng.randrange(2 ** 31),
                "tree_edges": [(p, v) for v, p in enumerate(parents, 1)]}

    def operations(self, env: dict, seed: int) -> list[Op]:
        R = env["R"]
        rng = random.Random(f"queries:{seed}")
        ops: list[Op] = []

        def closed_form(kind, n, target, labels, word):
            mod = getattr(R, f"exact_{kind}")
            ref = (inversions if kind == "path" else star_q)(relative(labels, target))
            ops.append(Op(f"{kind}_distance {word} n={n}",
                          lambda: getattr(mod, f"{kind}_distance")(labels, target),
                          lambda d: expect(d == ref, f"distance {d}, expected {ref}")))

        n = self.N_DIST["path"]
        t = shuffled(rng, n)
        closed_form("path", n, t, shuffled(rng, n), "random")
        closed_form("path", n, t, t[::-1], "reversal")
        n = self.N_DIST["star"]
        t = shuffled(rng, n)
        closed_form("star", n, t, shuffled(rng, n), "random")
        closed_form("star", n, t, with_relative(t, self._star_adversary(rng, n)),
                    "adversarial")

        def sequence(kind, n, labels, target, word):
            mod = getattr(R, f"exact_{kind}")
            edges = {(i, i + 1) for i in range(n - 1)} if kind == "path" else \
                {(0, i) for i in range(1, n)}
            ref = (inversions if kind == "path" else star_q)(relative(labels, target))

            def check(flips):
                check_sequence(edges, labels, target, flips)
                expect(len(flips) == ref, f"{len(flips)} flips, distance {ref}")

            ops.append(Op(f"{kind}_flip_sequence {word} n={n}",
                          lambda: getattr(mod, f"{kind}_flip_sequence")(labels, target),
                          check))

        n = self.N_SEQ
        sequence("path", n, shuffled(rng, n), shuffled(rng, n), "random")
        sequence("star", n, shuffled(rng, n), shuffled(rng, n), "random")
        n = self.N_STAR_ADV
        for word in ("adversarial A", "adversarial B"):
            t = shuffled(rng, n)
            sequence("star", n, with_relative(t, self._star_adversary(rng, n)), t, word)

        for name in ("rc", "path", "star"):
            g = env[name]
            a, b = shuffled(rng, g.n), shuffled(rng, g.n)

            def check(flips, g=g, a=a, b=b):
                check_sequence(normalized_edges(g.edges), a, b, flips)
                bound = g.n * (g.n - 1) // 2
                expect(len(flips) <= bound, f"{len(flips)} flips exceed n(n-1)/2 = {bound}")
                expect(len(flips) % 2 == parity(relative(a, b)), "flip count has the wrong parity")

            ops.append(Op(f"spanning_tree_transform {name} n={g.n}",
                          lambda g=g, a=a, b=b: R.transform.spanning_tree_transform(g, a, b),
                          check))

        for name in ("tree", "cycle"):
            g = env[name]
            a, b = shuffled(rng, g.n), shuffled(rng, g.n)
            priv = frozenset(range(g.n)) - set(rng.sample(range(g.n), 2))

            def run(g=g, a=a, b=b, priv=priv):
                inst = R.privileged.PrivilegedInstance(g, "vertex", a, b, priv)
                return R.privileged.privileged_transform(inst)

            ops.append(Op(f"privileged_transform {name} n={g.n}", run,
                          lambda flips, g=g, a=a, b=b, priv=priv: check_sequence(
                              normalized_edges(g.edges), a, b, flips, priv)))

        ops.append(self._v2e_op(R, env["v2e"], rng))
        ops += self._point_queries(R, env, rng)
        return ops

    @staticmethod
    def _star_adversary(rng: random.Random, n: int) -> list[int]:
        """Half the leaves fixed, the other half swapped in pairs."""
        moved = rng.sample(range(1, n), (n - 1) // 4 * 2)
        rel = list(range(n))
        for a, b in zip(moved[::2], moved[1::2]):
            rel[a], rel[b] = b, a
        return rel

    def _v2e_op(self, R, g, rng: random.Random) -> Op:
        a = shuffled(rng, g.n)
        walk = [g.edges[rng.randrange(g.m)] for _ in range(10 * g.n)]
        b = replay(normalized_edges(g.edges), a, walk)
        n, m, t = g.n, g.m, len(walk)
        pend_edges = [(i, n + i) for i in range(n)] + list(g.edges)
        fixed = list(range(n, n + m))

        def run():
            out = R.reductions.vertex_to_edge(R.reductions.VertexInstance(g, a, tuple(b), t))
            return out, R.reductions.compile_vertex_flips_to_edge_flips(g, walk)

        def check(ans):
            out, eflips = ans
            expect(out.graph.n == 2 * n and list(out.graph.edges) == pend_edges,
                   "edge instance is not on the pendant graph")
            expect(list(out.from_labels) == list(a) + fixed and
                   list(out.to_labels) == list(b) + fixed, "pendant labels are wrong")
            expect(out.t == 3 * t, f"bound {out.t}, expected {3 * t}")
            expect(len(eflips) == 3 * t, f"{len(eflips)} edge flips for {t} vertex flips")
            shares = set(line_graph_edges(pend_edges))
            check_sequence(shares, out.from_labels, out.to_labels, eflips)

        return Op(f"vertex_to_edge+compile n={n} flips={t}", run, check)

    def _point_queries(self, R, env: dict, rng: random.Random) -> list[Op]:
        def pair(space, d):
            edges = normalized_edges(space.graph.edges)
            a = shuffled(rng, space.graph.n)
            while True:
                b = tuple(replay(edges, a, [space.graph.edges[rng.randrange(space.graph.m)]
                                            for _ in range(d)]))
                if bfs(edges, a, stop=b)[b] == d:
                    return edges, a, b

        ops = []
        for key, fn in (("P9", "bfs_distance"), ("grid3", "bfs_distance"),
                        ("C9", "shortest_flip_sequence")):
            space = env[key]
            edges, a, b = pair(space, 3)

            def check(ans, edges=edges, a=a, b=b, fn=fn):
                if fn == "bfs_distance":
                    expect(ans == 3, f"distance {ans}, expected 3")
                else:
                    check_sequence(edges, a, b, ans)
                    expect(len(ans) == 3, f"{len(ans)} flips, distance 3")

            ops.append(Op(f"{fn} {key} d=3",
                          lambda space=space, a=a, b=b, fn=fn: getattr(R.oracle, fn)(space, a, b),
                          check))
        for key, d, t in (("P9", 3, 5), ("grid3", 3, 1), ("C9", 0, 2), ("P6", 3, 4)):
            space = env[key]
            edges, a, b = pair(space, d)
            want = t >= d and (t - d) % 2 == 0
            ops.append(Op(f"reachable_in_exactly {key} d={d} t={t}",
                          lambda space=space, a=a, b=b, t=t:
                              R.oracle.reachable_in_exactly(space, a, b, t),
                          lambda ans, want=want: expect(ans is want, f"answer {ans}, "
                                                        f"expected {want}")))
        return ops


# --------------------------------------------------------------------------
# cli: one process per request

class Cli:
    """``python -m relabel.cli`` as a user runs it, one process per request."""

    name = "cli"

    def spec(self, seed: int) -> None:
        return None

    def operations(self, env: dict, seed: int) -> list[Op]:
        workdir = env["workdir"]
        rng = random.Random(f"cli:{seed}")
        child_env = python_env(env["src"])
        ops: list[Op] = []

        def write(name: str, obj: Any) -> str:
            path = workdir / name
            path.write_text(json.dumps(obj))
            return str(path)

        def add(name, argv, check, code=0, known_fault=None):
            def run():
                proc = subprocess.run([sys.executable, "-m", "relabel.cli", *argv],
                                      cwd=workdir, env=child_env, capture_output=True,
                                      text=True, timeout=120)
                return proc.returncode, proc.stdout, proc.stderr

            def full_check(ans):
                rc, out, err = ans
                expect("Traceback" not in err, f"traceback, last line {err.strip().splitlines()[-1:]}")
                expect(rc == code, f"exit {rc}, expected {code}")
                if code == 2:
                    expect(out == "" and len(err.strip().splitlines()) == 1
                           and err.startswith("error: "), "not a one-line error")
                else:
                    check(json.loads(out))

            ops.append(Op(name, run, full_check, known_fault, argv))

        def graph_file(name, n, edges):
            return write(name, {"n": n, "edges": [list(e) for e in edges]})

        def labels_file(name, labels):
            return write(name, {"labels": list(labels)})

        n = rng.randint(20, 40)
        add("gen path", ["gen", "--family", "path", "--n", str(n)],
            lambda o, n=n: expect(o == {"n": n, "edges": [[i, i + 1] for i in range(n - 1)]},
                                  "not the canonical path"))

        def check_random(o):
            edges = [tuple(e) for e in o["edges"]]
            expect(o["n"] == 12 and all(0 <= u < v < 12 for u, v in edges)
                   and len(set(edges)) == len(edges) and connected(12, edges),
                   "not a simple connected graph on 12 vertices")

        add("gen random_connected", ["gen", "--family", "random_connected", "--n", "12",
                                     "--seed", str(rng.randrange(10 ** 6))], check_random)

        for kind, n in (("path", 300), ("star", 300)):
            edges = [(i, i + 1) for i in range(n - 1)] if kind == "path" else \
                [(0, i) for i in range(1, n)]
            a, b = shuffled(rng, n), shuffled(rng, n)
            d = (inversions if kind == "path" else star_q)(relative(a, b))
            add(f"distance {kind}", ["distance", "--graph", graph_file(f"{kind}.json", n, edges),
                                     "--from", labels_file(f"{kind}_a.json", a),
                                     "--to", labels_file(f"{kind}_b.json", b)],
                lambda o, d=d, kind=kind: expect(
                    o == {"distance": d, "exact": True, "method": kind}, f"{o}, expected {d}"))

        c6 = [(i, i + 1) for i in range(5)] + [(0, 5)]
        a, b = shuffled(rng, 6), shuffled(rng, 6)
        d = bfs(c6, a, stop=b)[b]
        add("distance bfs", ["distance", "--graph", graph_file("c6.json", 6, c6),
                             "--from", labels_file("c6_a.json", a),
                             "--to", labels_file("c6_b.json", b)],
            lambda o, d=d: expect(o == {"distance": d, "exact": True, "method": "bfs"},
                                  f"{o}, expected {d}"))

        g_n, g_edges = self._random_graph(rng, 25, 15)
        a, b = shuffled(rng, g_n), shuffled(rng, g_n)

        def check_transform(o, a=a, b=b, edges=set(g_edges)):
            flips = o["flips"]
            check_sequence(edges, a, b, flips)
            expect(len(flips) <= g_n * (g_n - 1) // 2 and
                   len(flips) % 2 == parity(relative(a, b)), "flip count out of bounds")

        add("transform tree-bound", ["transform", "--graph", graph_file("g25.json", g_n, g_edges),
                                     "--from", labels_file("g25_a.json", a),
                                     "--to", labels_file("g25_b.json", b)], check_transform)

        n, edges = self._random_graph(rng, 8, 3)
        a, b, t = shuffled(rng, n), shuffled(rng, n), rng.randint(1, 10)
        m = len(edges)
        fixed = list(range(n, n + m))
        want = {"kind": "edge",
                "graph": {"n": 2 * n, "edges": [[i, n + i] for i in range(n)] + [list(e) for e in edges]},
                "from": {"edge_labels": list(a) + fixed}, "to": {"edge_labels": list(b) + fixed},
                "t": 3 * t}
        add("reduce v2e", ["reduce", "--direction", "v2e", "--instance", write("v2e.json", {
            "kind": "vertex", "graph": {"n": n, "edges": [list(e) for e in edges]},
            "from": {"labels": list(a)}, "to": {"labels": list(b)}, "t": t})],
            lambda o, want=want: expect(o == want, "not the pendant-graph instance"))

        n, edges = self._random_graph(rng, 7, 3)
        a, b, t = shuffled(rng, len(edges)), shuffled(rng, len(edges)), rng.randint(1, 10)
        want = {"kind": "vertex",
                "graph": {"n": len(edges), "edges": [list(e) for e in line_graph_edges(edges)]},
                "from": {"labels": list(a)}, "to": {"labels": list(b)}, "t": t}
        add("reduce e2v", ["reduce", "--direction", "e2v", "--instance", write("e2v.json", {
            "kind": "edge", "graph": {"n": n, "edges": [list(e) for e in edges]},
            "from": {"edge_labels": list(a)}, "to": {"edge_labels": list(b)}, "t": t})],
            lambda o, want=want: expect(o == want, "not the line-graph instance"))

        # a spider with legs of 3, 2 and 2: a tree that is not a path
        spider = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (0, 6), (6, 7)]
        a, b = shuffled(rng, 8), shuffled(rng, 8)
        priv = sorted(set(range(8)) - set(rng.sample(range(8), 2)))

        def check_theorem(o, a=a, b=b, priv=set(priv)):
            expect(o["answer"] == "yes", f"answer {o['answer']}: two non-privileged labels on "
                   "a non-path tree are always solvable")
            check_sequence(set(spider), a, b, o["witness"], priv)

        add("solvable theorem", ["solvable", "--instance", write("spider.json", {
            "kind": "vertex", "graph": {"n": 8, "edges": [list(e) for e in spider]},
            "from": {"labels": list(a)}, "to": {"labels": list(b)}, "privileged": priv,
            "t": None})], check_theorem)

        p7 = [(i, i + 1) for i in range(6)]
        free = rng.sample(range(7), 3)       # the non-privileged labels
        a, b = shuffled(rng, 7), list(range(7))
        rng.shuffle(b)
        order = [x for x in b if x in free]
        if order == [x for x in a if x in free]:
            i, j = b.index(order[0]), b.index(order[1])
            b[i], b[j] = b[j], b[i]
        priv = sorted(set(range(7)) - set(free))

        def check_invariant(o):
            expect(o == {"answer": "no", "method": "invariant", "witness": None},
                   f"{o}: the non-privileged labels are out of order on the path")

        add("solvable invariant", ["solvable", "--instance", write("p7.json", {
            "kind": "vertex", "graph": {"n": 7, "edges": [list(e) for e in p7]},
            "from": {"labels": list(a)}, "to": {"labels": b}, "privileged": priv, "t": None})],
            check_invariant, code=1)

        b1, b2, k = shuffled(rng, 9), shuffled(rng, 9), rng.randint(5, 30)
        want = {"kind": "vertex",
                "graph": {"n": 9, "edges": [list(e) for e in grid_edges(3, 3)]},
                "from": {"labels": list(b1)}, "to": {"labels": list(b2)},
                "privileged": [8], "t": k}
        add("puzzle", ["puzzle", "--side", "3", "--k", str(k),
                       "--b1", json.dumps([list(b1[r * 3:r * 3 + 3]) for r in range(3)]),
                       "--b2", write("b2.json", list(b2))],
            lambda o, want=want: expect(o == want, "not the 3x3 puzzle instance"))

        # the two slowest requests, each a full search of K_6's 720 labelings:
        # with two a round, op_tail_ms falls inside their class on every run
        k6_file = graph_file("k6.json", 6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
        add("oracle diameter", ["oracle", "--graph", k6_file, "--diameter"],
            lambda o: expect(o == {"diameter": 5}, f"{o}, expected n - 1 = 5"))
        add("oracle distribution", ["oracle", "--graph", k6_file, "--distribution"],
            lambda o: expect(o == {"distribution": {str(k): v for k, v in
                                                    stirling_distances(6).items()}},
                             f"{o} is not Stirling"))
        p5_file = graph_file("p5.json", 5, [(i, i + 1) for i in range(4)])
        id5 = labels_file("id5.json", range(5))
        add("usage error", ["distance", "--graph", p5_file, "--from", id5, "--to", id5,
                            "--method", "star"], None, code=2)

        # malformed requests: each should exit 2 with a one-line error
        p3 = graph_file("p3.json", 3, [(0, 1), (1, 2)])
        id3 = labels_file("id3.json", range(3))
        for name, graph, frm, why in (
                ("malformed n string", write("n_string.json", {"n": "3", "edges": [[0, 1], [1, 2]]}),
                 id3, "TypeError: the graph decoder accepts a string vertex count"),
                ("malformed short labeling", p3, labels_file("short.json", [0, 1]),
                 "IndexError: labeling length is not checked against the graph"),
                ("malformed float label", p3, labels_file("float.json", [0, 1.0, 2]),
                 "TypeError: the labeling decoder accepts a float label")):
            add(name, ["distance", "--graph", graph, "--from", frm, "--to", id3], None,
                code=2, known_fault=why)
        return ops

    @staticmethod
    def _random_graph(rng: random.Random, n: int, extra: int) -> tuple[int, list]:
        """A random tree on n vertices plus ``extra`` random chords, sorted."""
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        while len(edges) < n - 1 + extra:
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        return n, sorted(edges)

    @staticmethod
    def run_in_process(R, op: Op) -> float:
        """Time relabel.cli.main(argv) in this process, output discarded."""
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = perf_counter()
            try:
                R.cli.main(op.argv)
            except Exception:       # the malformed requests escape main() today
                pass
            return perf_counter() - t0


WORKLOADS = {w.name: w for w in (Certify(), Queries(), Cli())}
