"""Per-layer tracing by wrappers installed from outside the library.

Each target is a public function or method of dyadiclab.  `Tracer.install`
replaces it with a wrapper that counts calls and records a span (name,
start, end, parent span, item id) per call.  Spans stay in memory; a
pass's self time per layer is its spans' duration minus the part covered
by their child spans.

Three traps are handled here:

- Names imported by value (`experiments.apply_shift`,
  `representation.is_good`, the package `__init__`) are rebound in every
  dyadiclab module that binds the original, and `install` fails if any
  binding of an original is left.
- `DyadicSystem.cubes_at_level` is a generator: its wrapper times every
  resumption, not just the creation of the generator object.
- After a traced pass, a target with zero calls on its home workload is
  reported as an error by the caller (`zero_call_errors`).
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    metric: str          # metric prefix, "<layer>.<function>"
    module: str          # dyadiclab module defining it
    attr: str            # "name" or "Class.method"
    home: tuple          # workloads on which it must be called
    generator: bool = False


STOP, SHIFT, HAAR, T2D = ("stopping-sparse", "shift-sweep", "haar-representation",
                          "translated-2d")
CATALOG_WORKLOADS = (SHIFT, STOP, HAAR)

TARGETS = (
    Target("grid.shift_cells", "grid", "DyadicSystem.shift_cells", (STOP, T2D)),
    Target("grid.start_cells", "grid", "DyadicCube.start_cells", (STOP, T2D)),
    Target("grid.cubes_at_level", "grid", "DyadicSystem.cubes_at_level",
           (SHIFT, T2D), generator=True),
    Target("grid.cube_init", "grid", "DyadicCube.__post_init__", (STOP, T2D)),
    Target("grid.children", "grid", "DyadicCube.children", (STOP, T2D)),
    Target("grid.parent", "grid", "DyadicCube.parent", (HAAR,)),
    Target("grid.contains_cube", "grid", "DyadicCube.contains_cube", (STOP, T2D)),
    Target("grid.is_good", "grid", "is_good", (HAAR, T2D)),
    Target("grid.goodness_probability", "grid", "goodness_probability", (HAAR,)),
    Target("grid.goodness_position_joint", "grid", "goodness_position_joint", (T2D,)),
    Target("rng.substream", "rng", "substream", (SHIFT, STOP, HAAR, T2D)),
    Target("shifts.apply_shift", "shifts", "apply_shift", (SHIFT, T2D)),
    Target("shifts.apply_paraproduct", "shifts", "apply_paraproduct", (SHIFT, HAAR)),
    Target("shifts.kernel_table", "shifts", "RandomKernel.table", (SHIFT, T2D)),
    Target("sparse.build_stopping_family", "sparse", "build_stopping_family",
           (STOP, T2D)),
    Target("sparse.stopping_control", "sparse", "stopping_control", (STOP, T2D)),
    Target("sparse.weighted_average", "sparse", "SparseFamily.weighted_average",
           (STOP, T2D)),
    Target("sparse.locate", "sparse", "SparseFamily.locate", (STOP, T2D)),
    Target("sparse.density", "sparse", "SparseFamily.density", (STOP, T2D)),
    Target("sparse.carleson_sum", "sparse", "carleson_sum", (STOP,)),
    Target("sparse.pythagoras_check", "sparse", "pythagoras_check", (STOP,)),
    Target("gridfn.analyze", "gridfn", "analyze", (HAAR,)),
    Target("gridfn.synthesize", "gridfn", "synthesize", (HAAR,)),
    Target("gridfn.haar_vector", "gridfn", "haar_vector", (HAAR,)),
    Target("gridfn.haar_coefficient", "gridfn", "haar_coefficient", (HAAR,)),
    Target("gridfn.conditional_expectation", "gridfn", "conditional_expectation",
           (SHIFT, HAAR)),
    Target("gridfn.lp_norm", "gridfn", "lp_norm", (SHIFT, T2D)),
    Target("gridfn.bmo_norm", "gridfn", "bmo_norm", (SHIFT,)),
    Target("gridfn.random_grid_function", "gridfn", "random_grid_function",
           (SHIFT, STOP, HAAR, T2D)),
    Target("representation.assemble", "representation", "assemble", (HAAR,)),
    Target("representation.matrix_element", "representation", "matrix_element",
           (HAAR,)),
    Target("representation.pairing_decomposition", "representation",
           "pairing_decomposition", (HAAR,)),
    Target("representation.full_pairing_sum", "representation", "full_pairing_sum",
           (HAAR,)),
    Target("representation.extract_paraproducts", "representation",
           "extract_paraproducts", (HAAR,)),
    Target("representation.decay_check", "representation", "decay_check", (HAAR,)),
    Target("representation.wbp_constants", "representation", "wbp_constants", (HAAR,)),
    Target("representation.averaging_identity_residual", "representation",
           "averaging_identity_residual", (HAAR,)),
    # reported by self time only
    Target("experiments.runner", "experiments", "run_experiment", CATALOG_WORKLOADS),
    Target("cli.report", "cli", "main", CATALOG_WORKLOADS),
)
SELF_ONLY = {"experiments.runner": "experiments.runner.self_s",
             "cli.report": "cli.report_s"}
RATIOS = ("grid.is_good.good_ratio", "shifts.kernel_table.distinct_ratio",
          "sparse.build_stopping_family.member_ratio")


def per_layer_metrics() -> list:
    """Name, unit and direction of every per-layer metric, in report order."""
    out = []
    for t in TARGETS:
        if t.metric in SELF_ONLY:
            out.append((SELF_ONLY[t.metric], "s", "lower"))
            continue
        out.append((f"{t.metric}.calls", "count", "lower"))
        out.append((f"{t.metric}.self_s", "s", "lower"))
        if t.metric == "grid.is_good":
            out.append(("grid.is_good.good_ratio", "ratio", "higher"))
        elif t.metric == "shifts.kernel_table":
            out.append(("shifts.kernel_table.distinct_ratio", "ratio", "higher"))
        elif t.metric == "sparse.build_stopping_family":
            out.append(("sparse.build_stopping_family.member_ratio", "ratio", "higher"))
        elif t.metric == "representation.assemble":
            out.append(("representation.assemble.bytes", "B", "lower"))
    out.append(("trace.overhead_ratio", "ratio", "lower"))
    return out


def _resolve(owner, attr: str):
    """(holder, name) for 'name' or 'Class.method' inside a module."""
    if "." in attr:
        cls_name, name = attr.split(".")
        return getattr(owner, cls_name), name
    return owner, attr


class Tracer:
    """Spans and counters of the current pass, plus the wrappers that make them."""

    def __init__(self):
        self.spans = []            # [metric, start_ns, end_ns, parent index, item]
        self.stack = []            # indices of open spans
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.kernel_keys = set()
        self.item = None

    def reset(self):
        self.spans.clear()
        self.calls.clear()
        self.counts.clear()
        self.kernel_keys.clear()

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, target: Target, fn: Callable, observe: Optional[Callable]):
        spans, stack, calls = self.spans, self.stack, self.calls
        clock = time.perf_counter_ns
        metric = target.metric
        tracer = self

        if target.generator:
            def resume_all(inner):
                try:
                    while True:
                        span = [metric, clock(), 0, stack[-1] if stack else -1,
                                tracer.item]
                        stack.append(len(spans))
                        spans.append(span)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            stack.pop()
                            span[2] = clock()
                        yield item
                finally:
                    inner.close()

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[metric] += 1
                return resume_all(fn(*args, **kwargs))
            return gen_wrapper

        names_item = metric == "experiments.runner"   # an experiment is an item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[metric] += 1
            outer_item = tracer.item
            if names_item:
                tracer.item = args[0]
            span = [metric, clock(), 0, stack[-1] if stack else -1, tracer.item]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
                tracer.item = outer_item
            if observe is not None:
                observe(args, result)
            return result
        return wrapper

    def _observers(self) -> dict:
        counts, keys = self.counts, self.kernel_keys

        def is_good(args, result):
            counts["grid.is_good.good"] += bool(result)

        def kernel_table(args, result):
            kernel, cube, blocks = args[0], args[1], args[2]
            keys.add((kernel, cube.key(), blocks))

        def stopping_family(args, result):
            counts["sparse.build_stopping_family.members_added"] += len(result) - 1

        def assemble(args, result):
            counts["representation.assemble.bytes"] += int(result.matrix.nbytes)

        return {"grid.is_good": is_good, "shifts.kernel_table": kernel_table,
                "sparse.build_stopping_family": stopping_family,
                "representation.assemble": assemble}

    def install(self, package: str = "dyadiclab"):
        """Wrap every target and rebind each name that holds an original."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        observers = self._observers()
        originals = {}
        for target in TARGETS:
            holder, name = _resolve(sys.modules[f"{package}.{target.module}"], target.attr)
            fn = holder.__dict__[name]
            wrapper = self._wrap(target, fn, observers.get(target.metric))
            setattr(holder, name, wrapper)
            originals[id(fn)] = (fn, wrapper, target.metric)
        for module in modules:
            for key, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    setattr(module, key, originals[id(value)][1])
        left = [f"{module.__name__}.{key} ({originals[id(value)][2]})"
                for module in modules for key, value in vars(module).items()
                if id(value) in originals and originals[id(value)][0] is value]
        left += [f"{module.__name__}.{cls}.{key}"
                 for module in modules for cls, obj in vars(module).items()
                 if isinstance(obj, type)
                 for key, value in vars(obj).items()
                 if id(value) in originals and originals[id(value)][0] is value]
        if left:
            raise RuntimeError(f"unwrapped bindings left: {sorted(left)}")

    # -- aggregation ------------------------------------------------------------

    def pass_summary(self, to_reference: float = 1.0) -> dict:
        """Calls, self time and work ratios of the pass just traced, with
        self times in reference seconds like the pass's wall time."""
        spans = self.spans
        durations = [s[2] - s[1] for s in spans]
        covered = [0] * len(spans)
        for idx, span in enumerate(spans):
            if span[3] >= 0:
                covered[span[3]] += durations[idx]
        self_ns = defaultdict(int)
        for idx, span in enumerate(spans):
            self_ns[span[0]] += durations[idx] - covered[idx]
        # candidates a stopping build tested: its direct weighted averages,
        # less the one base average per member
        tested = sum(1 for span in spans if span[0] == "sparse.weighted_average"
                     and span[3] >= 0
                     and spans[span[3]][0] == "sparse.build_stopping_family")
        added = self.counts["sparse.build_stopping_family.members_added"]
        families = self.calls["sparse.build_stopping_family"]
        candidates = tested - (added + families)
        table_calls = self.calls["shifts.kernel_table"]
        good_calls = self.calls["grid.is_good"]
        return {
            "calls": {t.metric: self.calls[t.metric] for t in TARGETS},
            "self_s": {t.metric: self_ns[t.metric] * to_reference / 1e9 for t in TARGETS},
            "grid.is_good.good_ratio":
                self.counts["grid.is_good.good"] / good_calls if good_calls else 0.0,
            "shifts.kernel_table.distinct_ratio":
                len(self.kernel_keys) / table_calls if table_calls else 0.0,
            "sparse.build_stopping_family.member_ratio":
                added / candidates if candidates > 0 else 0.0,
            "representation.assemble.bytes": self.counts["representation.assemble.bytes"],
        }

    def write_spans(self, path: str, spans: list):
        with gzip.open(path, "wt", compresslevel=1) as stream:
            stream.write("span,name,start_ns,end_ns,parent,item\n")
            for idx, (name, start, end, parent, item) in enumerate(spans):
                stream.write(f"{idx},{name},{start},{end},{parent},{item or ''}\n")


def zero_call_errors(summary: dict, workload: str) -> list:
    return [t.metric for t in TARGETS
            if workload in t.home and summary["calls"][t.metric] == 0]


def layer_metrics(first: dict, self_s_runs: list, overhead_ratio: float) -> dict:
    """Per-layer metric values: counts and ratios from the first traced pass,
    self times as the median over traced passes."""
    from statistics import median

    units = {name: unit for name, unit, _ in per_layer_metrics()}
    values = {}
    for t in TARGETS:
        self_s = median(run[t.metric] for run in self_s_runs)
        if t.metric in SELF_ONLY:
            values[SELF_ONLY[t.metric]] = self_s
            continue
        values[f"{t.metric}.calls"] = first["calls"][t.metric]
        values[f"{t.metric}.self_s"] = self_s
    for name in RATIOS + ("representation.assemble.bytes",):
        values[name] = first[name]
    values["trace.overhead_ratio"] = overhead_ratio
    return {name: {"value": values[name], "unit": units[name]}
            for name, _, _ in per_layer_metrics()}
