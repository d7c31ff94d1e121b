"""Span recorder for the traced run of the benchmark.

Spans are recorded from the benchmark's side: while a ``Tracer`` is
active, every public function of the package modules ``cli``, ``core``,
``graphs``, ``codes``, ``classdegree``, ``fiber`` and ``measures`` is
replaced by a wrapper that times the call. Modules import each other's
functions by name (``from .codes import sofic_image``), so the wrapper
replaces every ``factorcode.*`` attribute bound to the same function
object, not only the one in the defining module; leaving the context
restores the originals, so untraced ops run the package unchanged.

A span's self time is its duration minus the time of the traced spans it
directly caused. Counts are read from the returned objects and from the
JSON each op prints. All figures are reported per pass.
"""

import contextlib
import functools
import statistics
import sys
import time
import types
from collections import defaultdict

LAYERS = ("cli", "core", "graphs", "codes", "classdegree", "fiber",
          "measures")

# Per-layer metrics reported by every traced run, in the order printed.
# Names are <module>.<function>.<ms|self_ms|calls> or a named counter.
METRICS = (
    "cli.main.self_ms", "core.parse_triple.ms", "core.parse_triple.calls",
    "cli.import_numpy_ms", "cli.import_self_ms",
    "codes.sofic_image.ms", "codes.sofic_image.calls",
    "codes.sofic_image.states", "codes.sofic_image.edges",
    "codes.is_finite_to_one.ms", "codes.pair_graph.vertices",
    "codes.d_star.ms",
    "codes.image_blocks.ms", "codes.image_blocks.words",
    "classdegree.minimal_depth_at.ms", "classdegree.minimal_depth_at.calls",
    "classdegree.find_minimal_transition_block.self_ms",
    "classdegree.class_count_for_measure.self_ms",
    "classdegree.certified_share",
    "fiber.build_fiber_graph.ms", "fiber.build_fiber_graph.calls",
    "fiber.transition_classes.self_ms",
    "fiber.synchronizing_extension.self_ms", "fiber.window_blocks.calls",
    "fiber.extract_transition_block.self_ms", "fiber.unrolled_period_max",
    "fiber.phase_vertices",
    "graphs.strongly_connected_components.ms", "graphs.reachable_from.ms",
    "graphs.reachable_from.calls", "graphs.bi_essential_nodes.ms",
    "measures.relative_entropy_upper_bound.self_ms",
    "measures.bound_iterations", "measures.support_blocks",
    "measures.uniform_conditional_diagnostic.ms",
    "measures.parse_measure.ms", "measures.pqs_bound.ms",
    "measures.bound_residual_max",
) + tuple("%s.self_ms" % layer for layer in LAYERS) + (
    "trace.wall_s", "trace.self_total_s", "trace.overhead_s",
)


def _unit(name):
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name in ("classdegree.certified_share", "measures.bound_residual_max"):
        return "1"
    return "count"


def _count(name, result, counters):
    """Work counters read off the objects the traced functions return."""
    if name == "codes.sofic_image":
        counters["codes.sofic_image.states"] += len(result.triple.x.symbols)
        counters["codes.sofic_image.edges"] += len(
            result.triple.x.transitions)
    elif name == "codes.pair_graph":
        counters["codes.pair_graph.vertices"] += len(result.vertices)
    elif name == "codes.image_blocks":
        counters["codes.image_blocks.words"] += len(result)
    elif name == "fiber.build_fiber_graph":
        counters["fiber.phase_vertices"] += len(result.vertices)
    elif name == "fiber.transition_classes":
        counters["fiber.unrolled_period_max"] = max(
            counters["fiber.unrolled_period_max"], result.unrolled_period)
    elif name == "measures.relative_entropy_upper_bound":
        counters["measures.support_blocks"] += len(result.optimizer)


class Tracer:
    def __init__(self):
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.classdegree_ops = 0
        self.certified = 0
        self._stack = []
        self._depth = defaultdict(int)
        self._patches = self._plan()

    def _plan(self):
        """(module, attribute, original, wrapper) for every binding of a
        traced function anywhere in the package."""
        names = {}
        for layer in LAYERS:
            module = sys.modules["factorcode." + layer]
            for attr, obj in vars(module).items():
                if isinstance(obj, types.FunctionType) and \
                        not attr.startswith("_") and \
                        obj.__module__ == module.__name__:
                    names[id(obj)] = (layer + "." + attr, obj)
        wrappers = {key: self._wrap(name, func)
                    for key, (name, func) in names.items()}
        patches = []
        for modname, module in sorted(sys.modules.items()):
            if modname != "factorcode" and \
                    not modname.startswith("factorcode."):
                continue
            for attr, obj in vars(module).items():
                if id(obj) in names and names[id(obj)][1] is obj:
                    patches.append((module, attr, obj, wrappers[id(obj)]))
        return patches

    def _wrap(self, name, func):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            outer = tracer._depth[name] == 0
            tracer._depth[name] += 1
            tracer._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = tracer._stack.pop()
                tracer._depth[name] -= 1
                tracer.self_time[name] += elapsed - child
                if outer:
                    tracer.inclusive[name] += elapsed
                tracer.calls[name] += 1
                if tracer._stack:
                    tracer._stack[-1] += elapsed
            _count(name, result, tracer.counters)
            return result

        return traced

    @contextlib.contextmanager
    def active(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)
            self._stack.clear()
            self._depth.clear()

    def read_envelope(self, envelope):
        """Counts that only the printed report carries."""
        result = envelope["result"]
        if envelope["command"] == "classdegree":
            self.classdegree_ops += 1
            self.certified += bool(result["certified"])
        elif envelope["command"] == "bound":
            self.counters["measures.bound_iterations"] += result["iterations"]
            self.counters["measures.bound_residual_max"] = max(
                self.counters["measures.bound_residual_max"],
                result["residuals"]["image"], result["residuals"]["marginal"])

    def metrics(self, importtime_logs, passes, traced_wall, untraced_wall):
        """Every name in METRICS as (value, unit), per pass."""
        out = {}
        per = 1.0 / max(passes, 1)
        for name in METRICS:
            head, _, kind = name.rpartition(".")
            if kind == "ms":
                value = self.inclusive[head] * 1000.0 * per
            elif kind == "self_ms" and head in LAYERS:
                value = sum(v for k, v in self.self_time.items()
                            if k.startswith(head + ".")) * 1000.0 * per
            elif kind == "self_ms":
                value = self.self_time[head] * 1000.0 * per
            elif kind == "calls":
                value = self.calls[head] * per
            elif name in ("fiber.unrolled_period_max",
                          "measures.bound_residual_max"):
                value = self.counters[name]
            else:
                value = self.counters[name] * per
            out[name] = (value, _unit(name))
        out["classdegree.certified_share"] = (
            self.certified / self.classdegree_ops if self.classdegree_ops
            else 0.0, "1")
        numpy_ms, self_ms = import_breakdown(importtime_logs)
        out["cli.import_numpy_ms"] = (numpy_ms, "ms")
        out["cli.import_self_ms"] = (self_ms, "ms")
        out["trace.wall_s"] = (traced_wall, "s")
        out["trace.self_total_s"] = (sum(self.self_time.values()) * per, "s")
        out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        return out


def import_breakdown(logs):
    """Medians over ``-X importtime`` logs of (numpy cumulative ms, summed
    self ms of the factorcode modules)."""
    numpy_ms, self_ms = [], []
    for log in logs:
        np_us, own_us = 0, 0
        for line in log.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            fields = line[len("import time:"):].split("|")
            try:
                own, cumulative = int(fields[0]), int(fields[1])
            except ValueError:
                continue
            module = fields[2].strip()
            if module == "numpy":
                np_us = cumulative
            elif module == "factorcode" or module.startswith("factorcode."):
                own_us += own
        numpy_ms.append(np_us / 1000.0)
        self_ms.append(own_us / 1000.0)
    return statistics.median(numpy_ms), statistics.median(self_ms)
