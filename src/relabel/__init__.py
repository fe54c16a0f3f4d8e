"""Exact minimum-flip distances and flip sequences for graph relabeling."""

from .exact_path import (
    path_distance,
    path_exact_t_feasible,
    path_flip_sequence,
    transposition_cost_on_path,
)
from .exact_star import (
    star_distance,
    star_exact_t_feasible,
    star_flip_sequence,
    star_max_distance,
    star_q,
)
from .graph import (
    Graph,
    cycle_vertex_order,
    is_connected,
    is_cycle,
    is_path,
    is_tree,
    line_graph,
    make_family,
    path_vertex_order,
    prufer_elimination_order,
    spanning_tree,
    spanning_tree_not_path,
    tree_distance,
    tree_path,
)
from .labeling import (
    apply_edge_flip,
    apply_edge_sequence,
    apply_vertex_flip,
    apply_vertex_sequence,
    identity_labeling,
    relative_permutation,
    validate_edge_labeling,
    validate_vertex_labeling,
)
from .oracle import (
    CAPACITY_LIMIT,
    CapacityError,
    ConfigurationSpace,
    bfs_distance,
    component,
    diameter,
    distance_distribution,
    distance_map,
    reachable_in_exactly,
    shortest_flip_sequence,
)
from .perm import (
    compose,
    cycle_count,
    cycle_decomposition,
    from_cycles,
    identity,
    inverse,
    inversions,
    parity,
    pi_zero,
    support,
    transposition,
)
from .privileged import (
    PrivilegedInstance,
    Solvability,
    UnsolvableError,
    cycle_orientation_invariant,
    is_valid_restricted_flip,
    path_order_invariant,
    privileged_transform,
    puzzle_instance,
    resolve_solvable,
    solvable,
    sw_swap,
    tree_swap_sequence,
)
from .reductions import (
    EdgeInstance,
    VertexInstance,
    compile_vertex_flips_to_edge_flips,
    edge_to_vertex,
    pendant_graph,
    vertex_to_edge,
)
from .transform import (
    Distance,
    distance,
    distance_upper_bound,
    exact_t_feasible,
    spanning_tree_transform,
)

__version__ = "0.1.0"
