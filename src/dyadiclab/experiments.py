"""Seeded experiment runners behind the command-line interface.

Each experiment checks one quantitative statement at desk scale and
returns rows of (check id, measured, bound, pass); the report adds the
experiment's anchor, which quotes the inequality under test so reports
stay audit-traceable, and the run seed.  All randomness flows through
substreams of the run seed, so reports are reproducible bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import decoupling as dec
from . import representation as rep
from . import sparse
from .errors import InsufficientDataError
from .grid import (DyadicSystem, GoodnessParams, goodness_position_joint,
                   goodness_probability)
from .gridfn import (GridFunction, analyze, bmo_norm, indicator, lp_norm,
                     random_grid_function, random_grid_functions, stack_chunks, synthesize)
from .rademacher import OperatorFamily, averaging_check, stein_check, triangle_check
from .rng import substream, substreams
from .shifts import (ParaproductSpec, RandomKernel, ShiftSpec, apply_paraproduct,
                     apply_shift, fill_tables)
from .space import SCALAR, NormedSpace, conjugate_exponent, umd_beta_scalar


@dataclass(frozen=True)
class Check:
    """What a runner measured: the report adds the experiment's anchor and the run seed."""
    check_id: str
    measured: float
    bound: float
    passed: bool
    worst_at: object = None  # the label of the input that set a running maximum; not in the CSV


def _check(check_id, measured, bound, *, at_most=True, slack=1e-9, worst_at=None):
    """A pass/fail row; `at_most` picks the comparison direction."""
    measured = float(measured)
    bound = float(bound)
    ok = measured <= bound + slack if at_most else measured >= bound - slack
    return Check(check_id, measured, bound, ok, worst_at)


class _Worst(dict):
    """Per row key, the running maximum from 0.0 and the label of the input that first set
    it: `x > best`, as in `max(best, x)`, keeps the earlier of a tie and skips NaN."""

    def add(self, key, x, label):
        if x > self.get(key, (0.0,))[0]:
            self[key] = x, label

    def check(self, check_id, key, bound, **kw):
        x, label = self.get(key, (0.0, None))
        return _check(check_id, x, bound, worst_at=label, **kw)


# -- individual experiments ---------------------------------------------------------


ANCHOR_HAAR = "f = sum_I D_I f + coarse averages, exactly on the mesh"


def run_haar_completeness(params: dict, seed: int) -> list:
    rows = []
    for d, depth, label in ((1, params["depth_1d"], "1d"), (2, params["depth_2d"], "2d")):
        sysm = DyadicSystem(d=d, m_top=0, depth=depth)
        worst = _Worst()
        for space in (SCALAR, NormedSpace(3, 2.0)):
            labels = [f"haar-{label}-{k}-{space.dim}" for k in range(params["n_funcs"] // 2)]
            names = iter(labels)
            for fs in stack_chunks(random_grid_functions(sysm, seed, labels, space), sysm):
                for f, back, name in zip(fs, synthesize(analyze(fs, sysm.min_level)), names):
                    worst.add(label, float(np.abs(back.values - f.values).max()), name)
        rows.append(worst.check(f"haar-completeness/{label}", label, params["tol"]))
    return rows


ANCHOR_SHIFT = ("||S^{ji} f||_p <= 4 (max{i,j}+1) R_p({a}) beta_p(E)^2 ||f||_p "
                "for unit-capped kernels")


def run_shift_bound(params: dict, seed: int) -> list:
    sysm = DyadicSystem(d=1, m_top=0, depth=params["depth"])
    cap, ps, n_in = params["ij_cap"], params["p_list"], params["inputs_per_kernel"]
    worst = _Worst()
    keys = [(i, j, k) for i, j in itertools.product(range(cap + 1), repeat=2)
            for k in range(params["kernels_per_ij"])]
    gens = substreams(seed, [("shift-kernel-seed", *key) for key in keys])
    # each spec and input is drawn when taken and not kept: one spec's are live at a time
    specs = fill_tables(ShiftSpec(i, j, sysm, RandomKernel(int(gen.integers(0, 2**31)), 1.0))
                        for (i, j, _), gen in zip(keys, gens))
    inputs = random_grid_functions(sysm, seed, [f"shift-in-{i}-{j}-{k}-{m}"
                                                for i, j, k in keys for m in range(n_in)])
    for (i, j, k), spec in zip(keys, specs):
        fs = list(itertools.islice(inputs, n_in))
        bounds = [4.0 * (max(i, j) + 1) * umd_beta_scalar(p) ** 2 for p in ps]
        for m, (f, out) in enumerate(zip(fs, apply_shift(spec, fs))):
            name = f"shift-in-{i}-{j}-{k}-{m}"
            for p, den, num, bound in zip(ps, lp_norm(f, ps), lp_norm(out, ps), bounds):
                if den == 0.0:
                    continue
                worst.add(("raw", p), num / den, name)
                worst.add(p, num / den / bound, name)
    return [row for p in ps for row in (
        worst.check(f"shift-bound/p={p}/normalized", p, 1.0),
        worst.check(f"shift-bound/p={p}/max-ratio", ("raw", p),  # a reading, never a failure
                    4.0 * (cap + 1) * umd_beta_scalar(p) ** 2, slack=np.inf))]


ANCHOR_PARA = ("||Pi_b f||_p <= 12 p p' (max{p,p'}-1) ||b||_BMO_p ||f||_p "
               "for scalar symbols")


def run_paraproduct(params: dict, seed: int) -> list:
    sysm, ps = DyadicSystem(d=1, m_top=0, depth=params["depth"]), params["p_list"]
    worst = _Worst()
    for ks in stack_chunks(range(params["n_pairs"]), sysm):
        bs = [random_grid_function(sysm, seed, label=f"para-b-{k}") for k in ks]
        fs = [random_grid_function(sysm, seed, label=f"para-f-{k}") for k in ks]
        outs = apply_paraproduct([ParaproductSpec(b) for b in bs], fs)
        for k, bmos, f, out in zip(ks, bmo_norm(bs, ps), fs, outs):
            for p, bmo, den, num in zip(ps, bmos, lp_norm(f, ps), lp_norm(out, ps)):
                if den == 0.0 or bmo == 0.0:
                    continue
                bound = 12.0 * p * conjugate_exponent(p) * umd_beta_scalar(p) * bmo
                worst.add(p, num / den / bound, k)
    return [worst.check(f"paraproduct/p={p}/normalized", p, 1.0) for p in ps]


ANCHOR_CARLESON = "(sum_S <|f|>_S^p mu(S))^{1/p} <= 2 p' ||f||_Lp(mu) for sparse S"


def run_carleson(params: dict, seed: int) -> list:
    sysm = DyadicSystem(d=1, m_top=0, depth=params["depth"])
    root = sysm.cube(0, (0,))
    p_list = params["p_list"]
    worst = _Worst()
    n_weighted = int(params["n_funcs"] * params["weighted_share"])
    fs = [random_grid_function(sysm, seed, support=root, label=f"carleson-f-{k}")
          for k in range(params["n_funcs"])]
    weights = [None] * len(fs)
    for k in range(n_weighted):
        gen = substream(seed, "carleson-weights", k)
        weights[k] = np.exp(gen.uniform(-1.0, 1.0, size=(sysm.cells_per_axis,)))
    families = sparse.build_stopping_family(fs, root, weights=weights)
    for k, results in enumerate(sparse.carleson_sum(families, fs, p_list)):
        for p, res in zip(p_list, results):
            if res.fnorm == 0.0:
                continue
            worst.add(p, res.ratio / res.stated_bound, k)
            worst.add(("proof", p), res.ratio / res.proof_bound, k)
    return [row for p in p_list for row in (
        worst.check(f"carleson/p={p}/vs-stated", p, 1.0),
        worst.check(f"carleson/p={p}/vs-proof-constant", ("proof", p), 1.0))]


ANCHOR_PYTH = ("||sum f_S||_p <= 3p (sum ||f_S||_p^p)^{1/p}; reverse <= 6p' given "
               "zero means or scalar nonnegativity, and fails without them")


def _random_adapted_functions(family, gens, mode: str) -> list:
    """One random function adapted to each member, drawn in full from the next
    generator of the iterator `gens` before the next is taken."""
    sysm = family.root.system
    owner = family.owner()
    out = []
    for idx, gen in zip(range(len(family)), gens):
        vals = np.zeros((sysm.cells_per_axis,) * sysm.d + (1,))
        mask = owner == idx  # the member's cells outside its stopping children
        vals[mask] = gen.standard_normal((int(mask.sum()), 1))
        for child in family.children[idx]:
            vals[family.cubes[child].cell_slices()] = gen.standard_normal()
        if mode == "reverse_nonneg":
            vals = np.abs(vals)
        if mode == "reverse_cancellative":
            cube = family.cubes[idx]
            vals[cube.cell_slices()] -= family.weighted_average(vals, cube)
        out.append(GridFunction(sysm, vals, SCALAR))
    return out


def run_pythagoras(params: dict, seed: int) -> list:
    sysm = DyadicSystem(d=1, m_top=0, depth=params["depth"])
    root = sysm.cube(0, (0,))
    modes = ("direct", "reverse_cancellative", "reverse_nonneg")
    p_list = params["p_list"]
    worst = _Worst()
    families = sparse.build_stopping_family(
        [random_grid_function(sysm, seed, support=root, label=f"pyth-driver-{k}")
         for k in range(params["n_families"])], root)
    gens = substreams(seed, [("pyth-member", f"{k}-{mode}", idx)
                             for k, family in enumerate(families) for mode in modes
                             for idx in range(len(family))])
    for k, family in enumerate(families):
        for mode in modes:
            fs = _random_adapted_functions(family, gens, mode)
            for p, res in zip(p_list, sparse.pythagoras_check(family, fs, p_list, mode)):
                if mode == "direct" and res.power_sum_root > 0:
                    worst.add((mode, p), res.direct_ratio / res.direct_bound, k)
                elif mode != "direct" and res.sum_norm > 0:
                    worst.add((mode, p), res.reverse_ratio / res.reverse_bound, k)
    rows = [worst.check(f"pythagoras/{mode}/p={p}", (mode, p), 1.0)
            for mode, p in sorted(set(itertools.product(modes, p_list)))]

    # the sharp counterexample: equal and opposite halves kill the sum
    half = sysm.cube(1, (0,))
    family = sparse.SparseFamily(root)
    family.add(half, 0)
    f_root = indicator(half)
    f_half = GridFunction(sysm, -indicator(half).values, SCALAR)
    res, = sparse.pythagoras_check(family, [f_root, f_half], [2.0], "direct")
    rows.append(_check("pythagoras/counterexample/sum-norm", res.sum_norm, 0.0, slack=0.0))
    rows.append(_check("pythagoras/counterexample/power-sum",
                       abs(res.power_sum_root**2 - 1.0), 0.0, slack=1e-12))
    return rows


ANCHOR_STOP = ("mu(E(S)) >= mu(S)/2; <|f|>_Q <= 2 <|f|>_{pi(Q)}; "
               "<|f|>_{S'} <= 2 * 2^d <|f|>_S for stopping children")


def run_stopping(params: dict, seed: int) -> list:
    sysm = DyadicSystem(d=1, m_top=0, depth=params["depth"])
    root = sysm.cube(0, (0,))
    worst = _Worst()
    fs = [random_grid_function(sysm, seed, support=root, label=f"stopping-f-{k}")
          for k in range(params["n_funcs"])]
    for k, (f, fam) in enumerate(zip(fs, sparse.build_stopping_family(fs, root))):
        worst.add("sparse", 0.0 if fam.is_sparse() else 1.0, k)
        ctrl = sparse.stopping_control(fam, f)
        worst.add("q", ctrl["max_q_over_member"], k)
        worst.add("child", ctrl["max_child_over_parent"], k)
    return [worst.check("stopping/sparse-exact", "sparse", 0.0, slack=0.0),
            worst.check("stopping/average-control", "q", 2.0, slack=1e-12),
            worst.check("stopping/child-control", "child", 2.0 * 2**sysm.d, slack=1e-12)]


ANCHOR_DECOUPLE = ("beta^{-1} (E||sum eps 1_K f_K(y_K)||_p^p)^{1/p} <= ||sum f_K||_p "
                   "<= beta (E||...||_p^p)^{1/p}")


def run_decoupling(params: dict, seed: int) -> list:
    worst = _Worst()
    for k in range(params["n_families"]):
        fam_seed = int(substream(seed, "decouple-family", k).integers(0, 2**31))
        hierarchy = dec.random_hierarchy(fam_seed, depth=params["depth"],
                                         max_children=params["max_children"])
        family = dec.random_adapted_family(hierarchy, fam_seed)
        for p in params["p_list"]:  # before the martingale checks, so its caps fire first
            decoupled = dec.decoupled_pnorm(family, p)
            plain = dec.plain_pnorm(family, p)
            if decoupled == 0.0 and plain == 0.0:
                continue
            beta = umd_beta_scalar(p)
            ratio = max(plain / (beta * decoupled), decoupled / (beta * plain))
            worst.add(p, ratio, k)
        uv = dec.construct_uv(family)
        worst.add("mds", dec.check_mds(uv, params["mds_tests"], fam_seed), k)
    rows = [worst.check(f"decoupling/two-sided/p={p}", p, 1.0) for p in params["p_list"]]
    rows.append(worst.check("decoupling/martingale-differences", "mds", 1e-12, slack=0.0))
    return rows


ANCHOR_CONDEXP = "||sum_n E[f_n | G_n]||_p <= ||sum_n f_n||_p on product spaces"


def run_condexp_sum(params: dict, seed: int) -> list:
    worst = _Worst()
    for k in range(params["n_configs"]):
        gen = substream(seed, "condexp-config", k)
        n = int(gen.integers(2, 4))
        factors, fs, parts = [], [], []
        for _ in range(n):
            size = int(gen.integers(2, 5))
            factors.append(dec.FiniteProbSpace(gen.uniform(0.2, 1.0, size=size)))
            fs.append(gen.standard_normal((size, 1)))
            blocks, pool = [], list(range(size))
            while pool:
                take = int(gen.integers(1, len(pool) + 1))
                blocks.append(pool[:take])
                pool = pool[take:]
            parts.append(blocks)
        for p in params["p_list"]:
            worst.add(p, dec.condexp_sum_check(factors, fs, parts, p), k)
    return [worst.check(f"condexp-sum/p={p}", p, 1.0) for p in params["p_list"]]


ANCHOR_STEIN = "R-bound of conditional expectations onto dyadic levels <= beta_p"


def run_stein(params: dict, seed: int) -> list:
    sysm = DyadicSystem(d=1, m_top=0, depth=params["depth"])
    worst = _Worst()
    for k in range(params["n_configs"]):
        gen = substream(seed, "stein-config", k)
        n = int(gen.integers(1, params["max_levels"] + 1))
        levels = sorted(int(x) for x in gen.integers(sysm.min_level, sysm.depth + 1, size=n))
        fs = [random_grid_function(sysm, seed, label=f"stein-{k}-{m}") for m in range(n)]
        for p in params["p_list"]:
            res = stein_check(fs, levels, p)
            worst.add(p, res.ratio / res.bound, k)
    return [worst.check(f"stein/p={p}/normalized", p, 1.0) for p in params["p_list"]]


ANCHOR_RCALC = ("R(averaged family) <= sup ||lambda||_1 R(pointwise family); "
                "R({M+L}) <= R({M}) + R({L})")


def run_rbound_calculus(params: dict, seed: int) -> list:
    p = params["p"]
    worst = _Worst()
    for k in range(params["n_configs"]):
        gen = substream(seed, "rcalc-config", k)
        dim = int(gen.integers(2, 4))
        space = NormedSpace(dim, float(gen.choice([1.0, 2.0, np.inf])))
        npts = int(gen.integers(2, 6))
        n_ops = int(gen.integers(1, 4))
        measure = gen.uniform(0.1, 1.0, size=npts)
        pointwise = [gen.standard_normal((npts, dim, dim)) for _ in range(n_ops)]
        weights = []
        common = gen.standard_normal(npts)
        for s in range(n_ops):
            lam = common if k % 2 == 0 else gen.standard_normal(npts)
            mass = float(np.abs(lam * measure).sum())
            weights.append(lam / mass * gen.uniform(0.5, 1.0))
        n_assign = int(gen.integers(1, 4))
        assignment = [(int(gen.integers(0, n_ops)), gen.standard_normal(dim))
                      for _ in range(n_assign)]
        res = averaging_check(pointwise, weights, measure, assignment, p, space,
                              probe_budget=params["probe_budget"], seed=seed + k)
        if res.probe > 0:
            worst.add("avg", res.witness / res.probe, k)

        left = OperatorFamily(tuple(gen.standard_normal((dim, dim)) for _ in range(n_ops)), space)
        right = OperatorFamily(tuple(gen.standard_normal((dim, dim)) for _ in range(n_ops)), space)
        tri_assign = [((int(gen.integers(0, n_ops)), int(gen.integers(0, n_ops))),
                       gen.standard_normal(dim)) for _ in range(n_assign)]
        tri = triangle_check(left, right, tri_assign, p,
                             probe_budget=params["probe_budget"], seed=seed + k)
        if tri.probe > 0:
            worst.add("tri", tri.witness / tri.probe, k)
    return [worst.check("rbound-calculus/averaging", "avg", 1.0),
            worst.check("rbound-calculus/triangle", "tri", 1.0)]


ANCHOR_GOOD = ("pi_good >= 1 - (8d/gamma) 2^{-r gamma} when positive; position and "
               "goodness of a translated cube are independent")


def run_goodness(params: dict, seed: int) -> list:
    rows = []
    for gamma, r in params["cases"]:
        gp = GoodnessParams(gamma=gamma, r=r)
        max_gap = r + params["extra_gaps"]
        res = goodness_probability(max_gap, gp, 1)
        bound = res.analytic_bound
        case = f"gamma={gamma}/r={r}"
        if bound > 0:
            rows.append(_check(f"goodness/{case}/probability", res.value, bound,
                               at_most=False, slack=0.0))
        else:
            ok = 0.0 <= res.value <= 1.0
            rows.append(Check(f"goodness/{case}/vacuous-bound", res.value, 1.0, ok))
        worst = _Worst()
        for corner in (3, -5, 17):
            alt = goodness_probability(max_gap, gp, 1, base_corner=(corner,))
            worst.add(case, abs(alt.value - res.value), corner)
        rows.append(worst.check(f"goodness/{case}/base-independence", case, 0.0, slack=0.0))
        gens, level = min(max_gap, r + 1), params["factor_level"]
        joint = goodness_position_joint(
            1, level, params["factor_depth"], m_top=gens - level,
            params=GoodnessParams(gamma=gamma, r=r, max_generations=gens))
        gap = np.abs(joint * joint.sum() - joint.sum(axis=1, keepdims=True)
                     * joint.sum(axis=0, keepdims=True)).max()
        rows.append(_check(f"goodness/{case}/factorization", float(gap), 0.0, slack=0.0))
    return rows


ANCHOR_DECAY = ("|a^{ij}_K| decays like 2^{-i(alpha(1-gamma)-gamma d)} for separated "
                "pairs and 2^{-i alpha(1-gamma)} for nested pairs; bounded otherwise")


def run_matrix_decay(params: dict, seed: int) -> list:
    sysm = DyadicSystem(d=1, m_top=0, depth=params["depth"])
    kernel = rep.hilbert_kernel()
    T = rep.assemble(kernel, sysm)
    gp = GoodnessParams(gamma=params["gamma"], r=params["r"])
    alpha = kernel.alpha
    rows = []
    for case in ("far_disjoint", "deeply_nested"):
        report = rep.decay_check(T, case, range(params["i_lo"], params["i_hi"] + 1), gp, alpha)
        rows.append(_check(f"matrix-decay/{case}/slope", report.slope, report.slope_target))
    for case in ("near_disjoint", "shallowly_nested"):
        report = rep.decay_check(T, case, range(1, params["r"] + 1), gp, alpha)
        spread = max(report.magnitudes) / min(report.magnitudes)
        rows.append(_check(f"matrix-decay/{case}/bounded-spread", spread, params["bounded_spread"]))
    eq = rep.decay_check(T, "equal", [0], gp, alpha)
    wbp = rep.wbp_constants(T)["max"]
    rows.append(_check("matrix-decay/equal/vs-wbp-and-decay", max(eq.magnitudes),
                       4.0 * (wbp + 1.0)))
    # the steep-exponent configuration admits no good cube at threshold 3:
    # the implementation must report it as unusable rather than fit zeros
    empty = GoodnessParams(gamma=0.125, r=3)
    try:
        rep.decay_check(T, "far_disjoint", range(4, 9), empty, alpha)
        guard = 1.0
    except InsufficientDataError:
        guard = 0.0
    rows.append(_check("matrix-decay/empty-good-set-guard", guard, 0.0, slack=0.0))
    return rows


ANCHOR_EXTRACT = ("raw double Haar sum = extracted sum + paraproduct terms from "
                  "<1, T h> and <1, T* h> coefficients")


def run_paraproduct_extraction(params: dict, seed: int) -> list:
    sysm = DyadicSystem(d=1, m_top=0, depth=params["depth"])
    kernel = rep.smooth_odd_kernel(0.25, 1.0)
    T = rep.assemble(kernel, sysm)
    sup = sysm.cube(0, (0,))
    pairs = []
    for k in range(params["n_pairs"]):
        f = random_grid_function(sysm, seed, support=sup, mean_zero="per_top",
                                 label=f"extract-f-{k}")
        g = random_grid_function(sysm, seed, support=sup, mean_zero="per_top",
                                 label=f"extract-g-{k}")
        pairs.append((g, f))
    worst = _Worst()
    for k, res in enumerate(rep.pairing_decomposition(T, pairs, sysm.min_level, sysm.depth - 1)):
        worst.add("identity", res.identity_residual, k)
        worst.add("raw", abs(res.raw_sum - res.lhs), k)
    return [
        worst.check("paraproduct-extraction/identity", "identity", params["tol"], slack=0.0),
        worst.check("paraproduct-extraction/raw-equals-pairing", "raw", params["tol"], slack=0.0),
    ]


ANCHOR_AVG = ("<g, Tf> = pi_good^{-1} E_omega sum over pairs with good smaller cube "
              "of <g,h_J><h_J,T h_I><h_I,f>")


def run_averaging_identity(params: dict, seed: int) -> list:
    sysm = DyadicSystem(d=1, m_top=params["m_top"], depth=params["depth"])
    kernel = rep.smooth_odd_kernel(0.25, 1.0)
    T = rep.assemble(kernel, sysm)
    sup = sysm.cube(0, (0,))
    f = random_grid_function(sysm, seed, support=sup, mean_zero="global", label="avg-f")
    g = random_grid_function(sysm, seed, support=sup, mean_zero="global", label="avg-g")
    gp = GoodnessParams(gamma=params["gamma"], r=params["r"],
                        max_generations=params["r"])
    report = rep.averaging_identity_residual(T, g, f, gp)
    sanity = abs(rep.full_pairing_sum(T, g, f, sysm.min_level, sysm.depth - 1)
                 - report.lhs)
    remainder = abs(report.top_scale_defect) + abs(report.coarse_share)
    return [
        _check("averaging-identity/relative-residual", report.relative_residual,
               params["tol"], slack=0.0),
        _check("averaging-identity/full-sum-sanity", sanity, 1e-10, slack=0.0),
        Check("averaging-identity/truncation-remainder", remainder,
              params["tol"] * max(abs(report.lhs), 1e-300), True),
        Check("averaging-identity/pi-good", report.pi_good, 0.0, report.pi_good > 0),
    ]


# -- parameter table ----------------------------------------------------------------


def is_kind(value, spec) -> bool:
    """Whether `value` has type `spec`: int (not bool), float (int or float), str,
    dict, [spec] (a list of such) or a tuple of specs (a record, as a list)."""
    if isinstance(spec, list):
        return isinstance(value, list) and all(is_kind(item, spec[0]) for item in value)
    if isinstance(spec, tuple):
        return (isinstance(value, list) and len(value) == len(spec)
                and all(map(is_kind, value, spec)))
    types = (int, float) if spec is float else spec
    return isinstance(value, types) and not isinstance(value, bool)


_OUTSIDE = "{key} = {x!r} is outside {range}"
# kind -> (type spec, message for a value or list item outside the range)
KINDS = {"int": (int, _OUTSIDE), "count": (int, "{key} = {x!r} measures nothing"),
         "float": (float, _OUTSIDE), "exponent": (float, "exponent " + _OUTSIDE),
         "exponent list": ([float], "exponent " + _OUTSIDE),
         "[gamma, r] list": ([(float, int)], "{key} has {x!r}, outside {range}")}


def _inside(x, interval: str) -> bool:
    """Whether `x` lies in `interval`, such as "(0, 1]"; a record lies in a
    product such as "(0, 1) x [1, inf)" field by field."""
    if " x " in interval:
        return all(map(_inside, x, interval.split(" x ")))
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return (lo <= x if interval[0] == "[" else lo < x) and \
        (x <= hi if interval[-1] == "]" else x < hi)


@dataclass(frozen=True)
class Param:
    """A parameter's default, kind (see KINDS), allowed range of the value or of
    each list item, and the run flag that sets it.  A count's range starts at
    the least value that still measures something."""
    default: object
    kind: str = "int"
    range: str = "(-inf, inf)"
    flag: Optional[str] = None


def _count(default: int, least: int = 1) -> Param:
    return Param(default, "count", f"[{least}, inf)")


def _depth(default: int, least: int = 0) -> Param:
    return Param(default, "int", f"[{least}, inf)", "depth")


P_LIST = Param([1.5, 2.0, 3.0], "exponent list", "(1, inf)", "p")


@dataclass(frozen=True)
class Experiment:
    """A runner with its parameter table and cross-parameter rules: (text, test)
    pairs, each test taking the parameters its argument names name."""
    name: str
    anchor: str
    params: dict
    runner: Callable
    rules: tuple = ()


EXPERIMENTS = {
    exp.name: exp
    for exp in (
        Experiment("haar-completeness", ANCHOR_HAAR,
                   {"n_funcs": _count(100, least=2), "depth_1d": Param(10, range="[1, inf)"),
                    "depth_2d": Param(5, range="[1, inf)"),
                    "tol": Param(1e-12, "float", "[0, inf)")},
                   run_haar_completeness),
        Experiment("shift-bound", ANCHOR_SHIFT,
                   {"depth": _depth(7, least=1), "ij_cap": _count(3, least=0), "p_list": P_LIST,
                    "kernels_per_ij": _count(13), "inputs_per_kernel": _count(20)},
                   run_shift_bound, (("ij_cap < depth", lambda ij_cap, depth: ij_cap < depth),)),
        Experiment("paraproduct", ANCHOR_PARA,
                   {"depth": _depth(8, least=1), "n_pairs": _count(100), "p_list": P_LIST},
                   run_paraproduct),
        Experiment("carleson", ANCHOR_CARLESON,
                   {"depth": _depth(7), "n_funcs": _count(100), "p_list": P_LIST,
                    "weighted_share": Param(0.2, "float", "[0, 1]")},
                   run_carleson),
        Experiment("pythagoras", ANCHOR_PYTH,
                   {"depth": _depth(6, least=1), "n_families": _count(100), "p_list": P_LIST},
                   run_pythagoras),
        Experiment("stopping", ANCHOR_STOP, {"depth": _depth(7), "n_funcs": _count(100)},
                   run_stopping),
        # one child per atom, or no atom below the root, leaves every table zero. A chain
        # of `depth` atoms, each with <= max_children choices and a sign, stays within the
        # work cap, so no cap fires in a run (a huge depth is cut to 13, as 2^13 > cap)
        Experiment("decoupling", ANCHOR_DECOUPLE,
                   {"n_families": _count(50), "depth": _depth(3, least=1),
                    "max_children": _count(4, least=2), "mds_tests": _count(20),
                    "p_list": Param([2.0, 3.0], "exponent list", "(1, inf)", "p")},
                   run_decoupling,
                   ((f"(2 * max_children) ** depth <= {dec._CELL_WORK_CAP}",
                     lambda depth, max_children:
                         (2 * max_children) ** min(depth, 13) <= dec._CELL_WORK_CAP),)),
        Experiment("condexp-sum", ANCHOR_CONDEXP, {"n_configs": _count(100), "p_list": P_LIST},
                   run_condexp_sum),
        Experiment("stein", ANCHOR_STEIN,
                   {"depth": _depth(6), "n_configs": _count(100), "p_list": P_LIST,
                    "max_levels": _count(5)},
                   run_stein),
        Experiment("rbound-calculus", ANCHOR_RCALC,
                   {"n_configs": _count(100), "p": Param(2.0, "exponent", "(1, inf)", "p"),
                    "probe_budget": _count(60)},
                   run_rbound_calculus),
        Experiment("goodness", ANCHOR_GOOD,
                   {"cases": Param([[0.125, 3], [0.125, 10], [0.5, 3], [0.5, 10]],
                                   "[gamma, r] list", "(0, 1) x [1, inf)"),
                    "extra_gaps": Param(4, range="[0, inf)"), "factor_level": Param(2),
                    "factor_depth": Param(4, range="[0, inf)")},
                   run_goodness,
                   (("factor_level <= min(factor_depth, r + extra_gaps, r + 1) for each case",
                     lambda factor_level, factor_depth, extra_gaps, cases: all(
                         factor_level <= min(factor_depth, r + extra_gaps, r + 1)
                         for _, r in cases)),)),
        Experiment("matrix-decay", ANCHOR_DECAY,
                   {"depth": _depth(10), "gamma": Param(0.4, "float", "(0, 1)", "gamma"),
                    "r": Param(4, "int", "[1, inf)", "r"), "i_lo": Param(5, range="[0, inf)"),
                    "i_hi": Param(9, range="[0, inf)"),
                    "bounded_spread": Param(4.0, "float", "(1, inf)")},  # 1: peaks all equal
                   run_matrix_decay, (("i_lo <= i_hi", lambda i_lo, i_hi: i_lo <= i_hi),)),
        Experiment("paraproduct-extraction", ANCHOR_EXTRACT,
                   {"depth": _depth(6, least=1), "n_pairs": _count(50),
                    "tol": Param(1e-10, "float", "(0, inf)")},  # 0 fails on rounding noise
                   run_paraproduct_extraction),
        Experiment("averaging-identity", ANCHOR_AVG,
                   # at depth 1, f and g are multiples of one Haar function and <g, T f>
                   # of the odd kernel is rounding noise, so no relative residual exists
                   {"depth": _depth(4, least=2), "m_top": Param(4, range="[0, inf)"),
                    "gamma": Param(0.5, "float", "(0, 1)", "gamma"),
                    "r": Param(3, "int", "[1, inf)", "r"),
                    "tol": Param(1e-2, "float", "(0, inf)")},  # 0 fails on rounding noise
                   # the goodness floor, level r - m_top, must be at most the support's level
                   # 0: pairs whose smaller cube is coarser go unsummed (residual 0.02-5.9)
                   run_averaging_identity, (("m_top >= r", lambda m_top, r: m_top >= r),)),
    )
}


def resolve_params(name: str, overrides: Optional[dict] = None) -> dict:
    """The experiment's defaults with `overrides` merged in; ValueError names an unknown
    parameter, a value of the wrong kind or outside its range, or a broken rule."""
    table = EXPERIMENTS[name].params
    unknown = set(overrides or {}) - set(table)
    if unknown:
        raise ValueError(f"unknown parameters {sorted(unknown)}")
    params = {key: param.default for key, param in table.items()}
    params.update(overrides or {})
    for key, param in table.items():
        spec, outside = KINDS[param.kind]
        value = params[key]
        if not is_kind(value, spec):
            raise ValueError(f"{key} takes {param.kind}, not {value!r}")
        if value == []:
            raise ValueError(f"{key} = [] measures nothing")
        for x in value if isinstance(spec, list) else [value]:
            if not _inside(x, param.range):
                raise ValueError(outside.format(key=key, x=x, range=param.range))
    for text, test in EXPERIMENTS[name].rules:
        names = test.__code__.co_varnames[:test.__code__.co_argcount]
        if not test(*(params[key] for key in names)):
            got = ", ".join(f"{key} = {params[key]!r}" for key in names)
            raise ValueError(f"needs {text}, not {got}")
    return params


def run_experiment(name: str, seed: int, overrides: Optional[dict] = None) -> list:
    return EXPERIMENTS[name].runner(resolve_params(name, overrides), seed)
