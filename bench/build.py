"""The program's own set-up for each workload, the part ``setup_s`` times.

Each function imports ``relabel`` from ``src`` and builds the graphs and
configuration spaces its workload uses.  This module imports nothing the
program imports, so a fresh process that times it (``probe.py``) counts
the program's imports in full.
"""

import importlib
import sys

MODULES = ("perm", "labeling", "graph", "exact_path", "exact_star", "transform",
           "oracle", "privileged", "reductions", "jsonio", "cli")
CERTIFY_N = 7                      # positions of the vertex spaces
QUERIES_N = 1000                   # vertices of the tree-transform graphs
TREE_N, CYCLE_N, V2E_N = 100, 150, 200


class Modules:
    """The imported ``relabel`` modules, looked up by name when an operation runs."""

    def __init__(self, src: str, *extra: str):
        if src not in sys.path:
            sys.path.insert(0, src)
        importlib.import_module("relabel")
        for name in extra:
            importlib.import_module(f"relabel.{name}")
        for m in MODULES:
            if f"relabel.{m}" in sys.modules:
                setattr(self, m, sys.modules[f"relabel.{m}"])


def grid_edges(rows: int, cols: int) -> list:
    """Row-major grid: right neighbour, then lower neighbour, per cell."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def certify(spec, src: str) -> dict:
    R = Modules(src)
    fam = R.graph.make_family
    space = R.oracle.ConfigurationSpace
    n = CERTIFY_N
    grids = {shape: R.graph.Graph(shape[0] * shape[1], grid_edges(*shape))
             for shape in ((2, 3), (2, 4))}
    return {
        "R": R,
        "vertex": {f: space(fam(f, n)) for f in ("path", "star", "cycle", "complete")},
        "edge": {f: space(fam(f, n + 1), mode="edge") for f in ("path", "star")},
        "grids": grids,
        "grid_space": space(grids[(2, 4)], privileged=[7]),
    }


def queries(spec, src: str) -> dict:
    R = Modules(src)
    fam = R.graph.make_family
    space = R.oracle.ConfigurationSpace
    return {
        "R": R,
        "rc": fam("random_connected", QUERIES_N, seed=spec["rc_seed"], edge_probability=0.012),
        "path": fam("path", QUERIES_N),
        "star": fam("star", QUERIES_N),
        "tree": R.graph.Graph(TREE_N, spec["tree_edges"]),
        "cycle": fam("cycle", CYCLE_N),
        "v2e": fam("random_connected", V2E_N, seed=spec["v2e_seed"], edge_probability=0.05),
        "P9": space(fam("path", 9)),
        "grid3": space(R.graph.Graph(9, grid_edges(3, 3))),
        "C9": space(fam("cycle", 9)),
        "P6": space(fam("path", 6)),
    }


def cli(spec, src: str) -> dict:
    return {"R": Modules(src, "cli")}
