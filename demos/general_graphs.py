"""General connected graphs: the spanning-tree transformation and exact
small-graph parameters from the BFS oracle."""

import random

from relabel import (
    ConfigurationSpace,
    apply_vertex_sequence,
    diameter,
    distance,
    distance_upper_bound,
    make_family,
    spanning_tree_transform,
)

rng = random.Random(0)
g = make_family("random_connected", 25, seed=1)
a = tuple(rng.sample(range(25), 25))
b = tuple(rng.sample(range(25), 25))

flips = spanning_tree_transform(g, a, b)
print(f"random connected graph: n={g.n}, m={g.m}")
print(f"  constructive sequence: {len(flips)} flips"
      f" (guarantee: at most {distance_upper_bound(g)})")
print(f"  reaches the target: {apply_vertex_sequence(g, a, flips) == b}")

print("exact diameters of small configuration spaces:")
for name, graph in [("path P_5", make_family("path", 5)),
                    ("star K_{1,4}", make_family("star", 5)),
                    ("cycle C_5", make_family("cycle", 5)),
                    ("complete K_4", make_family("complete", 4))]:
    print(f"  {name:14s} -> {diameter(ConfigurationSpace(graph))}")

p5 = make_family("path", 5)
a5 = tuple(rng.sample(range(5), 5))
b5 = tuple(rng.sample(range(5), 5))
print(f"exact distance between {a5} and {b5} on P_5: "
      f"{distance(p5, a5, b5, 'bfs').distance}")
