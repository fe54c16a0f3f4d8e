"""Command-line front end with JSON input and output.

Subcommands: gen, distance, transform, reduce, solvable, puzzle, oracle.
Machine-readable JSON goes to stdout; human messages go to stderr.  Exit
codes: 0 success or yes, 1 no/unsolvable, 2 usage or input error,
3 capacity exceeded.

Each subcommand imports the library modules it runs when it runs, and
building the parser imports none, so with the lazy modules of
``relabel/__init__`` a request loads only what its subcommand needs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Any, Sequence

if TYPE_CHECKING:
    from .graph import Graph

_SHIFTED_KEYS = {"edges", "labels", "edge_labels", "flips", "privileged", "witness"}


def _one_based(obj: Any, shift: bool = False) -> Any:
    if isinstance(obj, dict):
        return {k: _one_based(v, shift or k in _SHIFTED_KEYS) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_one_based(x, shift) for x in obj]
    if isinstance(obj, int) and shift:
        return obj + 1
    return obj


def _emit(obj: Any, one_based: bool) -> None:
    if one_based:
        obj = _one_based(obj)
    print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _load_json(path: str) -> Any:
    with open(path) as fh:
        return json.load(fh)


def _load_graph(path: str) -> Graph:
    from .jsonio import graph_from_json
    return graph_from_json(_load_json(path))


def _load_vertex_labels(path: str) -> tuple[int, ...]:
    from .jsonio import labeling_from_json
    kind, labels = labeling_from_json(_load_json(path))
    if kind != "vertex":
        raise ValueError(f"{path}: expected a vertex labeling")
    return labels


def _load_board(source: str) -> tuple[int, ...]:
    from .jsonio import board_from_json
    try:
        obj = _load_json(source)
    except OSError:
        obj = json.loads(source)
    return board_from_json(obj)


def _capacity(args: argparse.Namespace) -> int | None:
    # the override, announced on stderr; None keeps oracle.CAPACITY_LIMIT
    if args.capacity_override is not None:
        print(f"warning: capacity override {args.capacity_override}", file=sys.stderr)
    return args.capacity_override


def _cmd_gen(args: argparse.Namespace) -> tuple[Any, int]:
    from .graph import make_family
    from .jsonio import graph_to_json
    g = make_family(args.family, args.n, seed=args.seed)
    return graph_to_json(g), 0


def _cmd_distance(args: argparse.Namespace) -> tuple[Any, int]:
    g = _load_graph(args.graph)
    frm = _load_vertex_labels(args.source)
    to = _load_vertex_labels(args.target)
    from .transform import distance
    return distance(g, frm, to, args.method, _capacity(args))._asdict(), 0


def _cmd_transform(args: argparse.Namespace) -> tuple[Any, int]:
    from .jsonio import flip_sequence_to_json
    from .labeling import apply_vertex_sequence
    g = _load_graph(args.graph)
    frm = _load_vertex_labels(args.source)
    to = _load_vertex_labels(args.target)
    if args.method == "bfs":
        from .oracle import ConfigurationSpace, shortest_flip_sequence
        space = ConfigurationSpace(g, capacity=_capacity(args))
        flips = shortest_flip_sequence(space, frm, to)
        if flips is None:
            raise ValueError("labelings lie in different components")
    else:
        from .transform import spanning_tree_transform
        flips = spanning_tree_transform(g, frm, to)
    if apply_vertex_sequence(g, frm, flips) != to:
        raise RuntimeError("self-check failed: sequence does not reach the target")
    return flip_sequence_to_json(flips), 0


def _cmd_reduce(args: argparse.Namespace) -> tuple[Any, int]:
    from .jsonio import instance_from_json, instance_to_json
    from .reductions import EdgeInstance, VertexInstance, edge_to_vertex, vertex_to_edge
    inst = instance_from_json(_load_json(args.instance))
    if not isinstance(inst, (VertexInstance, EdgeInstance)):
        raise ValueError("reduce expects a plain vertex or edge instance")
    if args.direction == "v2e":
        if not isinstance(inst, VertexInstance):
            raise ValueError("v2e expects a vertex instance")
        return instance_to_json(vertex_to_edge(inst)), 0
    if not isinstance(inst, EdgeInstance):
        raise ValueError("e2v expects an edge instance")
    return instance_to_json(edge_to_vertex(inst)), 0


def _cmd_solvable(args: argparse.Namespace) -> tuple[Any, int]:
    from .jsonio import instance_from_json
    from .privileged import PrivilegedInstance, resolve_solvable
    inst = instance_from_json(_load_json(args.instance))
    if not isinstance(inst, PrivilegedInstance):
        raise ValueError('solvable expects an instance with a "privileged" set')
    answer, method, witness = resolve_solvable(inst, want_witness=True,
                                               capacity=_capacity(args))
    out = {
        "answer": answer,
        "method": method,
        "witness": witness,
    }
    return out, 0 if answer == "yes" else 1


def _cmd_puzzle(args: argparse.Namespace) -> tuple[Any, int]:
    from .jsonio import instance_to_json
    from .privileged import puzzle_instance
    inst = puzzle_instance(args.side, _load_board(args.b1), _load_board(args.b2),
                           args.k)
    return instance_to_json(inst), 0


def _cmd_oracle(args: argparse.Namespace) -> tuple[Any, int]:
    # one question per request: a whole-space query answers none of the others
    whole = [opt for opt, on in (("--diameter", args.diameter),
                                 ("--distribution", args.distribution)) if on]
    point = [opt for opt, value in (("--from", args.source), ("--to", args.target),
                                    ("--t", args.t)) if value is not None]
    if len(whole) > 1 or (whole and point):
        raise ValueError(f"{', '.join(whole + point)} cannot be combined: ask for "
                         "--diameter, --distribution, or --from and --to with optional --t")
    from .jsonio import labeling_from_json
    from .oracle import (ConfigurationSpace, bfs_distance, diameter, distance_distribution,
                         reachable_in_exactly)
    g = _load_graph(args.graph)
    privileged = None
    if args.privileged is not None:  # "" is the empty set, which the library refuses
        privileged = [int(x) for x in args.privileged.split(",")] if args.privileged else []
    space = ConfigurationSpace(g, mode=args.mode, privileged=privileged,
                               capacity=_capacity(args))
    if args.diameter:
        return {"diameter": diameter(space)}, 0
    if args.distribution:
        hist = distance_distribution(space)
        return {"distribution": {str(k): v for k, v in hist.items()}}, 0
    if not (args.source and args.target):
        raise ValueError("oracle needs --from and --to, or --diameter/--distribution")
    from_kind, frm = labeling_from_json(_load_json(args.source))
    to_kind, to = labeling_from_json(_load_json(args.target))
    if from_kind != args.mode or to_kind != args.mode:
        raise ValueError(f"--from and --to must both be {args.mode} labelings "
                         f"in --mode {args.mode}; got {from_kind} and {to_kind}")
    d = bfs_distance(space, frm, to)
    out: dict[str, Any] = {"distance": d}
    if args.t is not None:
        out["reachable_in_exactly"] = reachable_in_exactly(space, frm, to, args.t)
    return out, 0


def _capacity_error() -> type[Exception]:
    from .oracle import CapacityError
    return CapacityError


def _one_based_option(p: argparse.ArgumentParser) -> None:
    # only on the subcommands whose output has a key _one_based shifts
    p.add_argument("--one-based", action="store_true",
                   help="render labels, vertices, and flips 1-based")


def _capacity_option(p: argparse.ArgumentParser) -> None:
    # only on the subcommands that can run an oracle search
    p.add_argument("--capacity-override", type=int, default=None,
                   help="raise the oracle capacity guard (states)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relabel",
        description="Minimum-flip distances and flip sequences for graph relabeling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a canonical family graph")
    p.add_argument("--family", required=True,
                   choices=["path", "star", "cycle", "grid", "complete",
                            "random_connected"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    _one_based_option(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("distance", help="minimum flips between vertex labelings")
    p.add_argument("--graph", required=True)
    p.add_argument("--from", dest="source", required=True)
    p.add_argument("--to", dest="target", required=True)
    # distance() rejects an unknown method, so the parser need not import it
    p.add_argument("--method", default="auto",
                   help="auto (default), path, star, bfs or tree-bound")
    _capacity_option(p)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("transform", help="flip sequence between vertex labelings")
    p.add_argument("--graph", required=True)
    p.add_argument("--from", dest="source", required=True)
    p.add_argument("--to", dest="target", required=True)
    p.add_argument("--method", default="tree-bound", choices=["tree-bound", "bfs"])
    _one_based_option(p)
    _capacity_option(p)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("reduce", help="map instances between vertex and edge problems")
    p.add_argument("--direction", required=True, choices=["v2e", "e2v"])
    p.add_argument("--instance", required=True)
    _one_based_option(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("solvable", help="decide a privileged-labels instance")
    p.add_argument("--instance", required=True)
    _one_based_option(p)
    _capacity_option(p)
    p.set_defaults(func=_cmd_solvable)

    p = sub.add_parser("puzzle", help="build a privileged instance from puzzle boards")
    p.add_argument("--side", type=int, required=True)
    p.add_argument("--b1", required=True, help="board file or inline JSON")
    p.add_argument("--b2", required=True, help="board file or inline JSON")
    p.add_argument("--k", type=int, required=True)
    _one_based_option(p)
    p.set_defaults(func=_cmd_puzzle)

    p = sub.add_parser("oracle", help="exhaustive BFS over the configuration space")
    p.add_argument("--graph", required=True)
    p.add_argument("--mode", default="vertex", choices=["vertex", "edge"])
    p.add_argument("--privileged", default=None,
                   help="comma-separated privileged labels")
    p.add_argument("--from", dest="source", default=None)
    p.add_argument("--to", dest="target", default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--diameter", action="store_true")
    p.add_argument("--distribution", action="store_true")
    _capacity_option(p)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        out, code = args.func(args)
    except (ValueError, RuntimeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _capacity_error() as exc:  # evaluated only once something was raised
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _emit(out, getattr(args, "one_based", False))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
