"""JSON wire formats for graphs, labelings, flip sequences, and instances.

Graph:          {"n": int, "edges": [[u, v], ...]}        (0-based, u < v)
Vertex labels:  {"labels": [...]}
Edge labels:    {"edge_labels": [...]}
Puzzle board:   [...] or [[...], ...]                      (row-major)
Flip sequence:  {"flips": [[u, v], ...]}                   (vertex flips)
                {"flips": [[e1, e2], ...], "kind": "edge"} (edge flips)
Instance:       {"kind": "vertex"|"edge", "graph": ..., "from": ..., "to": ..., "t": int}
                plus "privileged": [...] for privileged instances (t may be null).

The decoders accept only JSON integers (not booleans) for vertex counts,
edge endpoints, labels, board cells, flips, privileged labels and bounds,
and only the keys above in graph, labeling and instance objects (a
labeling has exactly one of its two keys); they raise ValueError for
anything else, and for a graph of more than graph.FAMILY_SIZE_LIMIT
vertices or edges, the size make_family refuses too.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Sequence

from .graph import FAMILY_SIZE_LIMIT, Graph

if TYPE_CHECKING:  # the instance codecs import the one instance module they need
    from .privileged import PrivilegedInstance
    from .reductions import EdgeInstance, VertexInstance


def _int(x: Any, what: str) -> int:
    if type(x) is not int:
        raise ValueError(f"{what}: expected an integer, got {x!r}")
    return x


def _ints(xs: Any, what: str, length: int | None = None) -> tuple[int, ...]:
    if not isinstance(xs, (list, tuple)) or length not in (None, len(xs)):
        shape = "a list of integers" if length is None else f"a list of {length} integers"
        raise ValueError(f"{what}: expected {shape}, got {xs!r}")
    return tuple(_int(x, what) for x in xs)


def _pairs(xs: Any, what: str) -> list[tuple[int, ...]]:
    if not isinstance(xs, (list, tuple)):
        raise ValueError(f"{what}: expected a list of pairs, got {xs!r}")
    return [_ints(x, what, 2) for x in xs]


def _known_keys(obj: dict, allowed: tuple[str, ...], what: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ValueError(f"{what} JSON: unknown keys {unknown}, expected only {list(allowed)}")


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges]}


def graph_from_json(obj: Any) -> Graph:
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValueError('graph JSON needs "n" and "edges"')
    _known_keys(obj, ("n", "edges"), "graph")
    n, edges = _int(obj["n"], "vertex count"), _pairs(obj["edges"], "edges")
    if max(n, len(edges)) > FAMILY_SIZE_LIMIT:  # before Graph allocates n rows
        raise ValueError(f"graph of {n} vertices and {len(edges)} edges; "
                         f"the limit is {FAMILY_SIZE_LIMIT} of each")
    return Graph(n, edges)


def labeling_from_json(obj: Any) -> tuple[str, tuple[int, ...]]:
    """Return ("vertex"|"edge", labels) according to the one key present."""
    if isinstance(obj, dict) and list(obj) == ["labels"]:
        return "vertex", _ints(obj["labels"], "labels")
    if isinstance(obj, dict) and list(obj) == ["edge_labels"]:
        return "edge", _ints(obj["edge_labels"], "edge labels")
    raise ValueError('labeling JSON needs exactly one key, "labels" or "edge_labels"')


def board_from_json(obj: Any) -> tuple[int, ...]:
    """A puzzle board, row-major: a list of integers or a list of rows of them."""
    if isinstance(obj, list) and obj and isinstance(obj[0], list):
        return tuple(x for row in obj for x in _ints(row, "board row"))
    return _ints(obj, "board")


def flip_sequence_to_json(flips: Sequence[Sequence[int]], kind: str = "vertex") -> dict:
    """The sequence as JSON; "flips" holds the flips given, not a copy, and
    json writes each flip tuple as an array."""
    out: dict = {"flips": flips}
    if kind == "edge":
        out["kind"] = "edge"
    return out


def instance_to_json(inst: VertexInstance | EdgeInstance | PrivilegedInstance) -> dict:
    """The instance as JSON; "privileged" appears only on privileged instances."""
    key = "labels" if inst.kind == "vertex" else "edge_labels"
    out = {
        "kind": inst.kind,
        "graph": graph_to_json(inst.graph),
        "from": {key: list(inst.from_labels)},
        "to": {key: list(inst.to_labels)},
        "t": inst.t,
    }
    privileged = getattr(inst, "privileged", None)
    if privileged is not None:
        out["privileged"] = sorted(privileged)
    return out


def instance_from_json(obj: Any) -> VertexInstance | EdgeInstance | PrivilegedInstance:
    if not isinstance(obj, dict):
        raise ValueError("instance JSON must be an object")
    for key in ("kind", "graph", "from", "to"):
        if key not in obj:
            raise ValueError(f'instance JSON needs "{key}"')
    _known_keys(obj, ("kind", "graph", "from", "to", "t", "privileged"), "instance")
    kind = obj["kind"]
    if kind not in ("vertex", "edge"):
        raise ValueError(f'instance kind must be "vertex" or "edge", got {kind!r}')
    g = graph_from_json(obj["graph"])
    from_kind, frm = labeling_from_json(obj["from"])
    to_kind, to = labeling_from_json(obj["to"])
    if from_kind != kind or to_kind != kind:
        raise ValueError(f"labeling keys do not match instance kind {kind!r}")
    t = obj.get("t")
    if t is not None:
        t = _int(t, "bound t")
    if "privileged" in obj:
        from .privileged import PrivilegedInstance
        return PrivilegedInstance(g, kind, frm, to,
                                  frozenset(_ints(obj["privileged"], "privileged labels")), t)
    if t is None:
        raise ValueError('plain instances need an integer "t"')
    from .reductions import EdgeInstance, VertexInstance
    cls = VertexInstance if kind == "vertex" else EdgeInstance
    return cls(g, frm, to, t)
