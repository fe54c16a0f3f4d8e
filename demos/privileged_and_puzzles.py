"""Privileged labels: restricted flips, invariants, and sliding puzzles.

When only flips touching a privileged label are legal, paths preserve the
left-to-right order of the other labels and cycles preserve their cyclic
orientation; those invariants certify unsolvable instances.  With all but
two labels privileged, every connected non-path is solvable
constructively.  A singleton privileged set is exactly a sliding puzzle.
"""

from relabel import (
    ConfigurationSpace,
    PrivilegedInstance,
    apply_vertex_sequence,
    component,
    make_family,
    path_order_invariant,
    privileged_transform,
    puzzle_instance,
    resolve_solvable,
    solvable,
)

# a path instance whose non-privileged labels are out of order
p4 = make_family("path", 4)
bad = PrivilegedInstance(p4, "vertex", (3, 2, 0, 1), (3, 2, 1, 0),
                         frozenset({2, 3}))
print("path instance with swapped non-privileged labels:")
print(f"  order invariant holds: {path_order_invariant(bad)}")
print(f"  solvable: {solvable(bad)}")

# the same pair of labels on a star is fine
star = make_family("star", 4)
ok = PrivilegedInstance(star, "vertex", (3, 2, 0, 1), (3, 2, 1, 0),
                        frozenset({2, 3}))
print("same labels on a star:", solvable(ok))
flips = privileged_transform(ok)
print(f"  witness with {len(flips)} restricted flips reaches the target:",
      apply_vertex_sequence(star, ok.from_labels, flips) == ok.to_labels)

# a cycle rotates its two non-privileged labels home
c5 = make_family("cycle", 5)
cyc = PrivilegedInstance(c5, "vertex", (4, 3, 2, 1, 0), (0, 1, 2, 3, 4),
                         frozenset({2, 3, 4}))
flips = privileged_transform(cyc)
print(f"cycle instance solved with {len(flips)} restricted flips")

# the 2x2 sliding puzzle: half the configurations are unreachable
inst = puzzle_instance(2, [0, 1, 2, 3], [1, 0, 2, 3], 10)
space = ConfigurationSpace(inst.graph, privileged=inst.privileged)
size = component(space, inst.from_labels)
print(f"2x2 puzzle: {size} of 24 board states reachable")
answer, method, witness = resolve_solvable(inst, want_witness=True)
print(f"  swapping two tiles only: {answer} (method: {method})")
