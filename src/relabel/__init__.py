"""Exact minimum-flip distances and flip sequences for graph relabeling.

``import relabel`` registers each library module (``relabel.graph``,
``relabel.oracle``, ...) in ``sys.modules`` and as an attribute of the
package, as a lazy module: its code compiles and runs on first attribute
access, so a caller pays only for the modules it uses.  The public names
below resolve from their module on first use, so ``from relabel import
distance`` loads ``relabel.transform`` and what it imports, and nothing
else.  The command-line front end, ``relabel.cli``, is a plain module that
imports per subcommand.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

# every library module, with the names the package re-exports from it
_EXPORTS = {
    "perm": ("compose", "cycle_count", "cycle_decomposition", "from_cycles", "inverse",
             "inversions", "parity", "pi_zero"),
    "graph": ("Graph", "cycle_vertex_order", "is_connected", "is_cycle", "is_path",
              "is_tree", "line_graph", "make_family", "path_vertex_order",
              "prufer_elimination_order", "spanning_tree", "spanning_tree_not_path",
              "tree_path"),
    "labeling": ("apply_edge_flip", "apply_edge_sequence", "apply_vertex_flip",
                 "apply_vertex_sequence", "identity_labeling", "relative_permutation",
                 "validate_edge_labeling", "validate_vertex_labeling"),
    "exact_path": ("path_distance", "path_exact_t_feasible", "path_flip_sequence",
                   "transposition_cost_on_path"),
    "exact_star": ("star_distance", "star_flip_sequence", "star_max_distance", "star_q"),
    "oracle": ("CAPACITY_LIMIT", "CapacityError", "ConfigurationSpace", "bfs_distance",
               "component", "diameter", "distance_distribution", "distance_map",
               "reachable_in_exactly", "shortest_flip_sequence"),
    "transform": ("Distance", "distance", "distance_upper_bound", "spanning_tree_transform"),
    "privileged": ("PrivilegedInstance", "Solvability", "UnsolvableError",
                   "cycle_orientation_invariant", "is_valid_restricted_flip",
                   "path_order_invariant", "privileged_transform", "puzzle_instance",
                   "resolve_solvable", "solvable", "sw_swap", "tree_swap_sequence"),
    "reductions": ("EdgeInstance", "VertexInstance", "compile_vertex_flips_to_edge_flips",
                   "edge_to_vertex", "pendant_graph", "vertex_to_edge"),
    "jsonio": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def _lazy(module: str):
    """sys.modules' entry for relabel.<module>, registered lazily if not there yet."""
    name = f"{__name__}.{module}"
    if name not in sys.modules:  # only a reload of this package finds it there
        spec = find_spec(name)
        spec.loader = LazyLoader(spec.loader)
        sys.modules[name] = module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


for _module in _EXPORTS:
    globals()[_module] = _lazy(_module)
del _module


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_MODULE_OF[name]], name)


def __dir__() -> list[str]:
    return sorted([*globals(), *_MODULE_OF])
