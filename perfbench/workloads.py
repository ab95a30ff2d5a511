"""The four benchmark workloads and the checks that gate every item.

A workload runs in passes.  One pass is a fixed amount of work whose
inputs come from a pass seed; pass 0 uses the workload seed itself, so
at the default seed its outputs can be compared with a recorded
reference.  Every pass is split into items, run one after the other
(a closed loop with one client); an item fails when a gate of the paper
fails, when an output is off its reference, or when a call raises.

Three workloads are catalog experiments, each run through
`dyadiclab.cli.main` from its own config document; `translated-2d` calls
the library directly on randomly translated systems, including d=2,
which the catalog never does.  All library calls go through module
attributes at call time, so the tracer's wrappers see them.  Callers pass
a calibration probe (`calibrate.Probe`) that runs after every timed
segment.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import resource
import time
from dataclasses import dataclass, field

DEFAULT_SEED = 0
SEED_STEP = 7919
WORKLOAD_NAMES = ("shift-sweep", "stopping-sparse", "haar-representation",
                  "translated-2d")
SCALES = ("full", "tiny")

# Experiment parameters per workload and scale.  At full scale depths,
# dimensions, (i, j) ranges and p lists keep their catalog values and only
# trial counts shrink, so that a pass takes one to five seconds
# (matrix-decay: see README.md for why it runs at depth 9).
CATALOG = {
    "shift-sweep": {
        "full": {
            "shift-bound": {"kernels_per_ij": 2, "inputs_per_kernel": 2},
            "paraproduct": {"n_pairs": 20},
        },
        "tiny": {
            "shift-bound": {"depth": 5, "ij_cap": 1, "kernels_per_ij": 1,
                            "inputs_per_kernel": 1},
            "paraproduct": {"depth": 5, "n_pairs": 2},
        },
    },
    "stopping-sparse": {
        "full": {
            "stopping": {"n_funcs": 8},
            "carleson": {"n_funcs": 20},
            "pythagoras": {"n_families": 20},
        },
        "tiny": {
            "stopping": {"depth": 5, "n_funcs": 2},
            "carleson": {"depth": 5, "n_funcs": 5},
            "pythagoras": {"depth": 4, "n_families": 2},
        },
    },
    "haar-representation": {
        "full": {
            "matrix-decay": {"depth": 9},
            "paraproduct-extraction": {"n_pairs": 5},
            "averaging-identity": {},
            "haar-completeness": {"n_funcs": 20},
        },
        "tiny": {
            "matrix-decay": {"depth": 8},
            "paraproduct-extraction": {"depth": 4, "n_pairs": 1},
            "averaging-identity": {"depth": 3, "m_top": 3},
            "haar-completeness": {"n_funcs": 2, "depth_1d": 6, "depth_2d": 3},
        },
    },
}

# translated-2d: (kind, d, m_top, depth) of the random systems, the (i, j)
# pairs of the shifts, and the goodness enumeration per kind as (cube
# level, ancestor generations).  The enumeration uses gamma = 1/2 and
# r = 3, the smallest threshold at which some cubes are good and some bad.
TRANSLATED = {
    "full": {
        "systems": (("d2", 2, 0, 4), ("d2-top1", 2, 1, 3), ("d1-top2", 1, 2, 6)),
        "pairs": ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2)),
        "joint": {"d2": (2, 3), "d2-top1": (1, 3), "d1-top2": (2, 3)},
    },
    "tiny": {
        "systems": (("d2", 2, 0, 3), ("d1-top1", 1, 1, 4)),
        "pairs": ((0, 0), (1, 0)),
        "joint": {"d2": (1, 3), "d1-top1": (2, 3)},
    },
}
JOINT_GAMMA, JOINT_R = 0.5, 3
P_LIST = (1.5, 2.0, 3.0)
GATE_SLACK = 1e-12

# The last-bit rule: values equal up to rounding in the last bits.
REL_TOL = 1e-12
ABS_TOL = 1e-12


def pass_seed(seed: int, k: int) -> int:
    return (seed + SEED_STEP * k) % 2**31


def same_up_to_last_bits(a: float, b: float, scale: float = 1.0) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL * scale)


@dataclass
class PassResult:
    """Program time of one pass, summed over its timed segments; checks run
    outside them.  `*_ref_s` are in reference seconds (calibrate.py)."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    wall_ref_s: float = 0.0
    cpu_ref_s: float = 0.0
    items: int = 0
    failures: dict = field(default_factory=dict)   # item -> first failure

    def add(self, wall: float, cpu: float, to_reference: float):
        self.wall_s += wall
        self.cpu_s += cpu
        self.wall_ref_s += wall * to_reference
        self.cpu_ref_s += cpu * to_reference


def no_probe() -> float:
    return 1.0


def _cpu() -> float:
    """CPU seconds of this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def reference_path(ref_dir: str, workload: str, scale: str) -> str:
    return os.path.join(ref_dir, f"{workload}-{scale}.json")


def load_reference(ref_dir: str, workload: str, scale: str):
    path = reference_path(ref_dir, workload, scale)
    if not os.path.exists(path):
        return None
    with open(path) as stream:
        return json.load(stream)


# -- catalog workloads ------------------------------------------------------------


class CatalogWorkload:
    """Experiments run through `dyadiclab run`, one config document each, so
    that a calibration probe can run between them."""

    def __init__(self, dl, name: str, scale: str, work_dir: str, reference):
        self.dl = dl
        self.params = CATALOG[name][scale]
        self.reference = reference
        self.out_csv = os.path.join(work_dir, "report.csv")
        self.configs = {}
        for experiment, params in self.params.items():
            path = os.path.join(work_dir, f"{experiment}.json")
            with open(path, "w") as stream:
                json.dump({"experiments": [experiment], "params": {experiment: params},
                           "out_csv": self.out_csv}, stream)
            self.configs[experiment] = path

    def _report(self, experiment: str, seed: int) -> tuple:
        """(report rows or None, failure) of one experiment."""
        if os.path.exists(self.out_csv):
            os.remove(self.out_csv)
        argv = ["run", "--config", self.configs[experiment], "--seed", str(seed)]
        try:
            status = self.dl.cli.main(argv)
        except Exception as exc:  # a crash fails the item
            return None, f"raised {type(exc).__name__}: {exc}"
        if status not in (0, 1):
            return None, f"exit status {status}"
        if not os.path.exists(self.out_csv):
            return None, "no report written"
        return read_report(self.out_csv), ""

    def run_pass(self, seed: int, check_reference: bool, tracer=None,
                 probe=no_probe) -> PassResult:
        result = PassResult()
        rows = []
        for experiment in self.params:
            start, cpu0 = time.perf_counter(), _cpu()
            got, failure = self._report(experiment, seed)
            result.add(time.perf_counter() - start, _cpu() - cpu0, probe())
            result.items += 1
            if failure:
                result.failures[experiment] = failure
            else:
                rows += got
        checked = check_rows(rows, list(self.params),
                             self.reference["rows"] if check_reference else None)
        for experiment, failure in checked.items():
            result.failures.setdefault(experiment, failure)
        return result

    def record(self, seed: int) -> dict:
        rows = []
        for experiment in self.params:
            got, failure = self._report(experiment, seed)
            if failure:
                raise RuntimeError(f"{experiment}: {failure}")
            rows += got
        return {"seed": seed, "params": self.params, "rows": rows}


def read_report(path: str) -> list:
    """Report rows without the runtime_ms column."""
    with open(path, newline="") as stream:
        reader = csv.reader(stream)
        header = next(reader)
        keep = [i for i, col in enumerate(header) if col != "runtime_ms"]
        return [[row[i] for i in keep] for row in reader]


def check_rows(rows: list, experiments: list, reference) -> dict:
    """First failure per experiment: a failed check or a reference mismatch."""
    failures = {}

    def fail(check_id: str, why: str):
        failures.setdefault(check_id.split("/")[0], f"{check_id}: {why}")

    for check_id, _anchor, measured, bound, passed, _seed in rows:
        if passed != "true":
            fail(check_id, f"check failed (measured {measured}, bound {bound})")
    seen = {row[0].split("/")[0] for row in rows}
    for name in experiments:
        if name not in seen:
            failures.setdefault(name, "no report rows")
    if reference is not None:
        ref = {row[0]: row for row in reference}
        got = {row[0]: row for row in rows}
        for check_id in sorted(set(ref) | set(got)):
            if check_id not in got or check_id not in ref:
                fail(check_id, "row missing from the report or the reference")
                continue
            a, b = got[check_id], ref[check_id]
            if (a[1], a[4], a[5]) != (b[1], b[4], b[5]):
                fail(check_id, "anchor, pass or seed differs from the reference")
            elif not all(same_up_to_last_bits(float(x), float(y))
                         for x, y in ((a[2], b[2]), (a[3], b[3]))):
                fail(check_id, f"measured/bound {a[2]}/{a[3]} off the reference "
                               f"{b[2]}/{b[3]}")
    return failures


# -- translated-2d ----------------------------------------------------------------


def sketch(values) -> list:
    """Digest of a float array that survives last-bit rounding: its l1 norm,
    squared l2 norm, max modulus and a fixed positive-weighted sum."""
    import numpy as np

    flat = np.asarray(values, dtype=float).reshape(-1)
    weights = np.random.default_rng(flat.size).uniform(0.5, 1.5, size=flat.size)
    return [float(np.abs(flat).sum()), float((flat * flat).sum()),
            float(np.abs(flat).max()), float(weights @ flat)]


def digest_matches(got: dict, ref: dict) -> bool:
    if got.get("sha") != ref.get("sha"):
        return False
    a, b = got.get("sketch", []), ref.get("sketch", [])
    if len(a) != len(b):
        return False
    scale = max(1.0, a[0]) if a else 1.0
    return all(same_up_to_last_bits(x, y, scale) for x, y in zip(a, b))


class TranslatedWorkload:
    """Shifts, stopping families and goodness enumeration on random systems."""

    def __init__(self, dl, scale: str, reference):
        self.dl = dl
        self.spec = TRANSLATED[scale]
        self.reference = reference

    def items(self, seed: int) -> list:
        """(label, thunk) per item; each thunk returns (gate failure, digest)."""
        rng = random.Random(f"translated-2d/{seed}")
        out = []
        for kind, d, m_top, depth in self.spec["systems"]:
            sys_seed = rng.randrange(2**31)
            for i, j in self.spec["pairs"]:
                args = (sys_seed, d, m_top, depth, i, j, rng.randrange(2**31),
                        rng.randrange(2**31))
                out.append((f"{kind}/shift/{i}-{j}", self._shift, args))
            for root_pick in ("top", "child"):
                args = (sys_seed, d, m_top, depth, root_pick, rng.randrange(2**31))
                out.append((f"{kind}/stopping/{root_pick}", self._stopping, args))
            level, gens = self.spec["joint"][kind]
            args = (d, level, depth, max(m_top, gens - level), gens)
            out.append((f"{kind}/goodness-joint", self._joint, args))
        return out

    def _system(self, sys_seed, d, m_top, depth):
        return self.dl.grid.DyadicSystem.random(sys_seed, d=d, m_top=m_top, depth=depth)

    def _shift(self, sys_seed, d, m_top, depth, i, j, kernel_seed, input_seed):
        dl = self.dl
        sysm = self._system(sys_seed, d, m_top, depth)
        spec = dl.shifts.ShiftSpec(i, j, sysm, dl.shifts.RandomKernel(kernel_seed, 1.0))
        f = dl.gridfn.random_grid_function(sysm, input_seed, label="bench-shift-in")
        out = dl.shifts.apply_shift(spec, f)
        worst = 0.0
        for p in P_LIST:
            bound = 4.0 * (max(i, j) + 1) * dl.space.umd_beta_scalar(p) ** 2
            worst = max(worst, dl.gridfn.lp_norm(out, p) / dl.gridfn.lp_norm(f, p) / bound)
        gate = "" if worst <= 1.0 + GATE_SLACK else f"shift bound exceeded: {worst!r}"
        return gate, lambda: {"sketch": sketch(out.values)}

    def _stopping(self, sys_seed, d, m_top, depth, root_pick, input_seed):
        dl = self.dl
        sysm = self._system(sys_seed, d, m_top, depth)
        root = sysm.top_cubes()[0]
        if root_pick == "child":
            root = root.children()[-1]
        f = dl.gridfn.random_grid_function(sysm, input_seed, support=root,
                                           label="bench-stopping-f")
        family = dl.sparse.build_stopping_family(f, root)
        ctrl = dl.sparse.stopping_control(family, f)
        exact = family.is_sparse()
        q, child = ctrl["max_q_over_member"], ctrl["max_child_over_parent"]
        gate = ""
        if not exact:
            gate = "family not sparse"
        elif not q <= 2.0 + GATE_SLACK:
            gate = f"stopping control {q!r} > 2"
        elif not child <= 2.0 * 2**d + GATE_SLACK:
            gate = f"child control {child!r} > 2*2^d"
        records = family.export_records()
        return gate, lambda: {"sha": _sha(records.encode()), "sketch": [q, child]}

    def _joint(self, d, level, depth, m_top, gens):
        dl = self.dl
        params = dl.grid.GoodnessParams(gamma=JOINT_GAMMA, r=JOINT_R,
                                        max_generations=gens)
        joint = dl.grid.goodness_position_joint(d, level, depth, m_top, params)
        total = joint.sum()
        gap = abs(joint * total - joint.sum(axis=1, keepdims=True)
                  * joint.sum(axis=0, keepdims=True)).max()
        gate = "" if gap == 0 else f"factorization gap {gap}"
        if not joint[:, 0].any() or not joint[:, 1].any():
            gate = gate or "enumeration found only good or only bad cubes"
        return gate, lambda: {"sha": _sha(joint.astype("<i8").tobytes())}

    def run_pass(self, seed: int, check_reference: bool, tracer=None,
                 probe=no_probe) -> PassResult:
        """Items one after another; a calibration probe after each system's
        group of items."""
        ref = self.reference["items"] if check_reference else None
        result = PassResult()
        items = self.items(seed)
        for kind, *_ in self.spec["systems"]:
            wall = cpu = 0.0
            for label, fn, args in items:
                if not label.startswith(kind + "/"):
                    continue
                if tracer is not None:
                    tracer.item = label
                start, cpu0 = time.perf_counter(), _cpu()
                try:
                    gate, digest = fn(*args)
                except Exception as exc:
                    gate, digest = f"raised {type(exc).__name__}: {exc}", None
                wall += time.perf_counter() - start
                cpu += _cpu() - cpu0
                result.items += 1
                if not gate and ref is not None:
                    if label not in ref or not digest_matches(digest(), ref[label]):
                        gate = "output digest off its reference"
                if gate:
                    result.failures[label] = gate
            if tracer is not None:
                tracer.item = None
            result.add(wall, cpu, probe())
        return result

    def record(self, seed: int) -> dict:
        items = {}
        for label, fn, args in self.items(seed):
            gate, digest = fn(*args)
            if gate:
                raise RuntimeError(f"{label}: {gate}")
            items[label] = digest()
        return {"seed": seed, "spec": self.spec, "items": items}


def _sha(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def make_workload(dl, name: str, scale: str, work_dir: str, reference):
    if name == "translated-2d":
        return TranslatedWorkload(dl, scale, reference)
    return CatalogWorkload(dl, name, scale, work_dir, reference)
