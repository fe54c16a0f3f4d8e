"""Instance maps between the vertex and edge relabeling problems.

Vertex to edge: hang a pendant vertex off every original vertex and move
the vertex labels onto the pendant edges; original edges keep fixed high
labels (n..n+m-1) in both source and target, and the flip bound triples.
This map keeps every yes-instance yes but is not an equivalence: some
no-instances become yes-instances (see ``vertex_to_edge``).
Edge to vertex: relabel the line graph, bound unchanged.  This map is an
equivalence, flip for flip.
Both maps build their result from the instance's checked graph and
labelings, so neither re-checks them: the public constructors check
every instance a caller builds, once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

from .graph import Graph, _assemble, line_graph
from .labeling import _unchecked, validate_edge_labeling, validate_vertex_labeling


@dataclass(frozen=True)
class _Instance:
    # a relabeling instance without privileged labels; kind picks the validator
    kind: ClassVar[str]
    graph: Graph
    from_labels: tuple[int, ...]
    to_labels: tuple[int, ...]
    t: int

    def __post_init__(self):
        validate = validate_vertex_labeling if self.kind == "vertex" else validate_edge_labeling
        object.__setattr__(self, "from_labels", validate(self.graph, self.from_labels))
        object.__setattr__(self, "to_labels", validate(self.graph, self.to_labels))
        if self.t < 0:
            raise ValueError("bound t must be nonnegative")


@dataclass(frozen=True)
class VertexInstance(_Instance):
    kind = "vertex"


@dataclass(frozen=True)
class EdgeInstance(_Instance):
    kind = "edge"


def pendant_graph(g: Graph) -> Graph:
    """g plus a pendant neighbor n+i for each vertex i.

    Edge i < n is the pendant edge of vertex i; edge n+k is g.edges[k].
    O(n + m): the result is built from g's own checked edges and
    neighbor rows, with no re-check, and indexes its edges only when
    one is first looked up.
    """
    n = g.n
    edges = tuple(zip(range(n), range(n, 2 * n))) + g.edges
    # n + i exceeds every vertex of g, so each row stays sorted
    adjacency = tuple(map(tuple.__add__, g.adjacency, zip(range(n, 2 * n))))
    return _assemble(2 * n, edges, adjacency + tuple(zip(range(n))))


def vertex_to_edge(inst: VertexInstance) -> EdgeInstance:
    """Edge instance on ``pendant_graph(g)`` with flip bound 3t.

    O(n + m): the pendant graph is built from the instance's checked
    graph, the fixed labels are appended to its checked labelings as one
    tuple, and neither graph nor labelings are checked again.

    With d_V the vertex flip distance of ``inst`` and d_E the edge flip
    distance of the result, the map guarantees:

    (i) completeness: d_V <= t implies d_E <= 3t, because each vertex
        flip compiles to three edge flips
        (``compile_vertex_flips_to_edge_flips``);
    (ii) parity: d_E = d_V (mod 2), because the fixed labels end where
        they start, so both relative permutations have the same sign;
    (iii) tightness: d_V = 1 implies d_E = 3, because two pendant edges
        never share an endpoint, so no bound c*t with c < 3 is complete.

    It is not sound, and no bound map t -> f(t) makes it so.  On P_3,
    d_V = 2 gives d_E = 6 but the reversal has d_V = 3 and d_E = 5: at
    t = 2 that no-instance becomes an edge yes-instance (5 <= 6).
    """
    g = inst.graph
    fixed = tuple(range(g.n, g.n + g.m))
    return _unchecked(EdgeInstance, graph=pendant_graph(g),
                      from_labels=inst.from_labels + fixed,
                      to_labels=inst.to_labels + fixed, t=3 * inst.t)


def edge_to_vertex(inst: EdgeInstance) -> VertexInstance:
    """Equivalent vertex instance on the line graph, same bound.

    The labelings are not checked again: an edge labeling of g is a
    vertex labeling of line_graph(g), whose vertex i is g's edge i.
    """
    return _unchecked(VertexInstance, graph=line_graph(inst.graph),
                      from_labels=inst.from_labels, to_labels=inst.to_labels, t=inst.t)


def compile_vertex_flips_to_edge_flips(g: Graph, flips: Sequence[Sequence[int]]
                                       ) -> list[tuple[int, int]]:
    """Simulate vertex flips of g as edge flips of pendant_graph(g).

    Each vertex flip {k, l} becomes three edge flips: pendant k with the
    edge {k, l}, that edge with pendant l, then that edge with pendant k
    again, which swaps the pendant labels and restores the edge label.
    """
    n, index = g.n, g._edge_index or g._index()
    out: list[tuple[int, int]] = []
    for k, l in flips:
        try:
            e = n + index[(k, l) if k < l else (l, k)]
        except KeyError:
            raise ValueError(f"({k},{l}) is not an edge") from None
        out += (k, e), (e, l), (e, k)
    return out
