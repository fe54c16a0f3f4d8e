"""Per-layer spans taken from outside the program.

Each layer is one ``relabel`` module.  ``Tracer.install`` replaces every
public function of those modules, in every ``relabel`` namespace that holds
it, with a wrapper that records a span; ``Tracer.remove`` puts the
originals back.  A call is attributed to the module that defines the
function, also when another module imported the name.  A layer's self time
is its spans minus the spans of the calls they make.

Per-state helpers are left unwrapped: ``rank_labeling`` and
``unrank_labeling`` run once per state and would swamp the run, and the
``ConfigurationSpace`` methods are methods, not functions.  Their time falls
into the calling ``oracle`` span.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
from time import perf_counter

LAYERS = ("perm", "labeling", "graph", "exact_path", "exact_star", "transform",
          "oracle", "privileged", "reductions", "jsonio", "cli")
UNWRAPPED = {"rank_labeling", "unrank_labeling"}
POINT_QUERIES = {"bfs_distance", "shortest_flip_sequence", "reachable_in_exactly"}
# functions whose first argument is a labeling, for labels_per_s
LABEL_INPUTS = {
    "exact_path": {"path_distance", "path_flip_sequence", "path_exact_t_feasible"},
    "exact_star": {"star_distance", "star_q", "star_flip_sequence",
                   "star_exact_t_feasible"},
}
# functions that return a flip list, for flips_per_s
FLIP_OUTPUTS = {
    "exact_path": {"path_flip_sequence"},
    "exact_star": {"star_flip_sequence"},
    "transform": {"spanning_tree_transform"},
    "privileged": {"privileged_transform"},
}


class Tracer:
    """Spans and counts per layer, summed over the rounds run while installed."""

    def __init__(self):
        self.stack = []             # [layer, child seconds] per open span
        self.patched = []           # (namespace, attribute, original)
        self.wrappers = {}          # id(original) -> (original, wrapper)
        for mod in (importlib.import_module(f"relabel.{m}") for m in LAYERS):
            layer = mod.__name__.rsplit(".", 1)[1]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_") and name not in UNWRAPPED):
                    self.wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        self.reset()

    def reset(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.entries = dict.fromkeys(LAYERS, 0)   # calls from outside the layer
        self.states = 0
        self.states_s = 0.0
        self.point_query_s = []
        self.labels = dict.fromkeys(LABEL_INPUTS, 0)
        self.labels_s = dict.fromkeys(LABEL_INPUTS, 0.0)
        self.flips = dict.fromkeys(FLIP_OUTPUTS, 0)
        self.flips_s = dict.fromkeys(FLIP_OUTPUTS, 0.0)
        self.oracle_answers = 0

    def _wrap(self, layer: str, name: str, fn):
        stack = self.stack
        counts_labels = name in LABEL_INPUTS.get(layer, ())
        counts_flips = name in FLIP_OUTPUTS.get(layer, ())

        def wrapper(*args, **kwargs):
            outer = not stack or stack[-1][0] != layer
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if outer:
                    self.entries[layer] += 1
            if layer == "oracle":
                if name == "distance_map":
                    self.states += len(result)
                    self.states_s += dt
                elif name in POINT_QUERIES:
                    self.point_query_s.append(dt)
            elif name == "resolve_solvable" and result[1] == "oracle":
                self.oracle_answers += 1
            if outer and counts_labels:
                self.labels[layer] += len(args[0])
                self.labels_s[layer] += dt
            if outer and counts_flips:
                self.flips[layer] += len(result)
                self.flips_s[layer] += dt
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "relabel" or modname.startswith("relabel.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = self.wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self.patched.append((mod, attr, value))

    def remove(self) -> None:
        for mod, attr, value in self.patched:
            setattr(mod, attr, value)
        self.patched.clear()

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, times and counts per traced round."""

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        out = {f"{layer}.self_s": (self.self_s[layer] / rounds, "s")
               for layer in ("oracle", "exact_path", "exact_star", "perm", "labeling",
                             "graph", "transform", "privileged", "reductions", "jsonio")}
        out["oracle.calls"] = (self.entries["oracle"] / rounds, "count")
        out["oracle.states_per_s"] = (rate(self.states, self.states_s), "states/s")
        out["oracle.point_query_ms"] = (
            statistics.median(self.point_query_s) * 1e3 if self.point_query_s else 0.0, "ms")
        for layer in LABEL_INPUTS:
            out[f"{layer}.labels_per_s"] = (rate(self.labels[layer], self.labels_s[layer]), "1/s")
        for layer in FLIP_OUTPUTS:
            out[f"{layer}.flips_per_s"] = (rate(self.flips[layer], self.flips_s[layer]), "1/s")
        out["privileged.oracle_answers"] = (self.oracle_answers / rounds, "count")
        return out
