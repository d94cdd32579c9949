"""Reproducible experiment drivers: deterministic CSV + JSON reporting.

Each experiment maps a parameter dict and a seed to a list of rows with
the fixed header ``n_or_k,lower,upper,heuristic,reference,ratio``; blank
cells mean "this method does not apply here".  The summary JSON carries
fitted slopes and worst-case margins and is byte-stable across reruns
with the same seed; wall-clock timestamps go only into the manifest.

A run enforces two resource caps (wall clock and peak RSS), polled
between work items, once per row block of the witness-pool build, once
per selected center inside the farthest-point traversals (the
critical-scaling packing and the cover profile) and once per norm-oracle
iteration: when a cap trips, the runner stops and returns
the rows produced so far.  Runners never report a cap; run() polls once
more after the runner returns and reports what that poll finds, so a cap
crossed during a run's last work item is reported too.  The rows are
flushed and the summary reports the partial status instead of failing
silently or dying on a hard limit.
"""

import json
import math
import os
import resource
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .certificate import entropy_certificate
from .entropy import (
    _block_rows,
    _check_pq_wide,
    _farthest_point_run,
    cover_profile,
    kuhn_value,
    sample_lp_sphere,
    schuett,
    volumetric_lower,
)
from .hset import HProfile, generate_hset_tree
from .partition import VertexWeight, balanced_partition, dyadic_family
from .summation import (
    WeightScheme,
    _require_critical,
    apply,
    hardy_bound,
    norm_oracle,
    weights_for_tree,
)
from .trees import full_tree, random_tree

WALL_CAP_S = 600.0
RSS_CAP_BYTES = 8 * 2 ** 30

CSV_HEADER = "n_or_k,lower,upper,heuristic,reference,ratio"


# -- plumbing -----------------------------------------------------------------


def _max_rss_bytes() -> int:
    """Process-lifetime peak RSS (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _current_rss_bytes() -> int | None:
    """Resident set size now, from /proc/self/statm; None without /proc."""
    try:
        with open("/proc/self/statm", "rb", buffering=0) as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return None


class ResourceBudget:
    """Wall-clock and peak-RSS caps, polled between work items, once per
    row block of a witness-pool build, once per selected center of a
    farthest-point traversal (packing or cover profile) and once per
    norm-oracle iteration.

    Polling keeps the enforcement cooperative: a work item never gets
    interrupted halfway, it just becomes the last one.  The peak RSS is the
    run's own: the process-lifetime ru_maxrss once it has grown past its
    value when the budget started, and until then the highest current RSS
    seen at a poll (an earlier, higher peak in the same interpreter is not
    this run's); without /proc it is ru_maxrss.
    exceeded() is monotone, because elapsed time and that peak only grow
    (ru_maxrss past its start value exceeds every RSS seen before): once a
    poll has tripped, every later poll trips too, so the poll run() makes
    after the runner returns reports any cap that stopped it.
    """

    def __init__(self, wall_cap_s: float = WALL_CAP_S,
                 rss_cap_bytes: int = RSS_CAP_BYTES):
        self.wall_cap_s = float(wall_cap_s)
        self.rss_cap_bytes = int(rss_cap_bytes)
        self.t0 = time.monotonic()
        self.max_rss0 = _max_rss_bytes()
        self.seen_rss = 0

    def elapsed_s(self) -> float:
        return time.monotonic() - self.t0

    def peak_rss_bytes(self) -> int:
        max_rss = _max_rss_bytes()
        current = None if max_rss > self.max_rss0 else _current_rss_bytes()
        if current is None:
            return max_rss
        self.seen_rss = max(self.seen_rss, current)
        return self.seen_rss

    def exceeded(self) -> str | None:
        if self.elapsed_s() > self.wall_cap_s:
            return "wall_clock"
        if self.peak_rss_bytes() > self.rss_cap_bytes:
            return "memory"
        return None


@dataclass(frozen=True)
class Row:
    n_or_k: int
    lower: float | None = None
    upper: float | None = None
    heuristic: float | None = None
    reference: float | None = None
    ratio: float | None = None

    def csv_line(self) -> str:
        cells = [str(int(self.n_or_k))]
        for v in (self.lower, self.upper, self.heuristic,
                  self.reference, self.ratio):
            cells.append("" if v is None else repr(float(v)))
        return ",".join(cells)


def rows_to_csv(rows) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_line() for r in rows]) + "\n"


def fit_slope(xs, ys):
    """OLS slope of log y against log x; returns (slope, intercept, r2).

    Needs at least three pairs, all strictly positive.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 3:
        raise ValueError("need at least three paired values")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs strictly positive data")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r2)


# -- experiment runners --------------------------------------------------------
#
# Every runner has the signature (params, seed, budget) -> (rows, extra)
# where extra is a JSON-safe dict that must include a "checks" map of named
# booleans.  A runner polls budget.exceeded() and stops when it trips, but
# does not report the cap: run() polls again afterwards and reports it.


def _critical_pack(kind, params):
    """(HProfile, WeightScheme) of a "power" or "log" critical pack from an
    experiment's params; profile fields absent from them keep defaults."""
    power = kind == "power"
    h = HProfile(theta=float(params["theta"]) if power else 0.0,
                 gamma=float(params.get("gamma", HProfile.gamma)),
                 c3=float(params.get("c3", HProfile.c3)))
    names = (("alpha_u", "alpha_w") if power
             else ("alpha", "lambda_u", "lambda_w"))
    scheme = WeightScheme(f"{kind}-critical", kappa=float(params["kappa"]),
                          m_star=int(params["m_star"]),
                          **{name: float(params[name]) for name in names})
    return h, scheme


def _slope(extra, checks, name, xs, ys, target=None, tol=None):
    """Record the log-log slope of ys against xs as <name>_slope and
    <name>_r2 in extra; with a tol, also check it lies within tol of
    target as checks[<name>_slope_in_band]."""
    slope, _, r2 = fit_slope(xs, ys)
    extra[f"{name}_slope"] = slope
    extra[f"{name}_r2"] = r2
    if tol is not None:
        checks[f"{name}_slope_in_band"] = abs(slope - target) <= tol


def _count(params, name, least):
    """int(params[name]); ValueError naming it if it is below least."""
    value = int(params[name])
    if value < least:
        raise ValueError(f"param {name} must be >= {least}, got {value}")
    return value


def _run_schuett_regimes(params, seed, budget):
    nu = _count(params, "nu", 1)
    p, q = float(params["p"]), float(params["q"])
    _check_pq_wide(p, q)
    samples = _count(params, "samples", 1)
    k_feas_max = min(nu, _count(params, "cover_k_cap", 1),
                     int(math.log2(samples)) + 1)

    heur = {}
    counters = {}
    if budget.exceeded() is None:
        # a cap stops the traversal early; only the k it got through report
        prof = cover_profile(np.eye(nu), p, q, range(1, k_feas_max + 1),
                             samples=samples, seed=seed, poll=budget.exceeded,
                             counts=counters)
        heur = {e.k: e.value for e in prof}

    ks = list(range(1, 2 * nu + 1)) + list(range(3 * nu, 10 * nu + 1, nu))
    rows = []
    for k in ks:
        lo = volumetric_lower(nu, p, q, k).value
        ref = schuett(nu, k, p, q)
        hv = heur.get(k)
        ratio = (hv if hv is not None else lo) / ref
        rows.append(Row(k, lower=lo, heuristic=hv, reference=ref,
                        ratio=float(ratio)))

    extra = {"nu": nu, "p": p, "q": q, "middle_target": -(1.0 / p - 1.0 / q)}
    checks = {}
    k_lo = max(1, math.ceil(math.log2(nu)))
    mid = [(k, heur[k]) for k in range(k_lo, k_feas_max + 1)
           if heur.get(k, 0.0) > 0.0]
    if len(mid) >= 3:
        _slope(extra, checks, "middle", [k for k, _ in mid],
               [v for _, v in mid], extra["middle_target"], 0.20)
    # exponential regime: certified lower halves per step of nu in k
    lows = {r.n_or_k: r.lower for r in rows}
    steps = [math.log2(lows[(m + 1) * nu] / lows[m * nu])
             for m in range(2, 10) if (m + 1) * nu in lows]
    if steps:
        extra["decay_steps_log2"] = steps
        extra["max_decay_deviation"] = max(abs(s + 1.0) for s in steps)
        checks["decay_within_band"] = extra["max_decay_deviation"] <= 0.15
    extra["checks"] = checks
    extra["counters"] = counters
    return rows, extra


def _run_partition_stress(params, seed, budget):
    n_trees = _count(params, "n_trees", 1)
    max_vertices = _count(params, "max_vertices", 2)
    k = _count(params, "max_branching", 1)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x70617274]))

    rows = []
    relaxed = 0
    violations = 0
    worst = {"mass": 0.0, "count": 0.0, "cross": 0.0}
    for i in range(n_trees):
        if budget.exceeded() is not None:
            break
        # tree 0 hits the vertex cap exactly; the rest draw log-uniform sizes
        if i == 0:
            n_v = max_vertices
        else:
            n_v = max(2, int(2.0 ** rng.uniform(1.0, math.log2(max_vertices))))
        tree = random_tree(n_v, k, seed=int(rng.integers(2 ** 62)))
        style = i % 3
        if style == 0:
            wts = VertexWeight.uniform(n_v)
        elif style == 1:
            wts = VertexWeight(rng.exponential(1.0, n_v) + 1e-9)
        else:
            wts = VertexWeight(rng.pareto(1.5, n_v) + 1e-9)
        n_part = int(rng.integers(1, 65))
        n0 = 2 ** int(rng.integers(0, 7))

        part = balanced_partition(tree, wts, n_part, k)
        part.validate(tree)
        big_c = k + 2
        tau_mass = big_c * wts.total() / n_part
        multi = [float(wts.phi[pp].sum()) for pp in part.parts if pp.size > 1]
        mass_ratio = max(multi) / tau_mass if multi else 0.0
        count_ratio = part.n_parts() / (big_c * n_part)

        fam = dyadic_family(tree, wts, n0, k)
        try:
            fam.validate(tree)
            laminar_ok = True
        except AssertionError:
            laminar_ok = False
        cross_ratio = fam.meta["cross"] / big_c
        if fam.meta["relaxed"]:
            relaxed += 1

        bad = (mass_ratio > 1.0 or count_ratio > 1.0 or not laminar_ok
               or (cross_ratio > 1.0 and not fam.meta["relaxed"]))
        violations += bad
        worst["mass"] = max(worst["mass"], mass_ratio)
        worst["count"] = max(worst["count"], count_ratio)
        worst["cross"] = max(worst["cross"], cross_ratio)
        rows.append(Row(i, lower=float(mass_ratio), upper=1.0,
                        heuristic=float(count_ratio),
                        reference=float(cross_ratio),
                        ratio=float(max(mass_ratio, count_ratio))))

    extra = {
        "trees_done": len(rows),
        "worst_mass_ratio": worst["mass"],
        "worst_count_ratio": worst["count"],
        "worst_cross_ratio": worst["cross"],
        "relaxed_top_merges": relaxed,
        "violations": int(violations),
        "checks": {"zero_violations": violations == 0,
                   "all_trees_done": len(rows) == n_trees},
    }
    return rows, extra


def _run_hardy_consistency(params, seed, budget):
    js = [int(j) for j in params["j_values"]]
    height = _count(params, "height", 0)
    restarts = _count(params, "restarts", 0)
    p, q = float(params["p"]), float(params["q"])
    m = int(params["m_star"])
    h, scheme = _critical_pack("power", params)

    # the envelope sup u_s w_s is below the norm by the Hardy constant, so it
    # is the reference column; the oracle's Schur bound is the certified upper
    rows = []
    for idx, j in enumerate(js):
        if budget.exceeded() is not None:
            break
        tree = generate_hset_tree(h, m, height, seed=seed + idx,
                                  start_depth=j)
        u, w = weights_for_tree(scheme, tree, start_depth=j)
        est = norm_oracle(tree, u, w, p, q,
                          {"restarts": restarts,
                           "seed": seed + idx}, poll=budget.exceeded)
        hb = hardy_bound(scheme, h, p, q, j)
        # an oracle stopped by a cap still brackets the norm: keep its row;
        # the next poll trips too, since polls are monotone
        rows.append(Row(j, lower=float(est.lower), upper=float(est.upper),
                        reference=float(hb), ratio=float(est.lower / hb)))

    extra = {"p": p, "q": q, "m_star": m,
             "envelope_target": 1.0 / q - 1.0 / p}
    checks = {}
    if len(rows) >= 3:
        _slope(extra, checks, "envelope", [m * r.n_or_k for r in rows],
               [r.reference for r in rows], extra["envelope_target"], 0.10)
        ratios = [r.ratio for r in rows]
        extra["envelope_constant"] = max(ratios)
        extra["envelope_ratio_drift"] = max(ratios) / min(ratios)
        checks["envelope_constant_bounded"] = extra["envelope_constant"] <= 4.0
        checks["envelope_ratio_stable"] = extra["envelope_ratio_drift"] <= 2.0
    extra["checks"] = checks
    return rows, extra


def _basis_vertices(tree, per_level_cap, seed):
    """Stratified basis vertices, at most per_level_cap per depth level, so
    deep and shallow directions both appear among the witnesses."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x706f6f6c]))
    per_level = []
    for level in tree.levels():
        ids = np.arange(level.ids.start, level.ids.stop)
        if ids.size > per_level_cap:
            ids = np.sort(rng.choice(ids, per_level_cap, replace=False))
        per_level.append(ids)
    return np.concatenate(per_level)


def _witness_pool(tree, u, w, p, samples, seed, poll=None):
    """Images of `samples` random l_p unit-sphere vectors, one per row.

    The critical packings take these rows next to the basis images; at
    their default `samples` of 0 the pool has no row and the packing is
    basis-only.  The sphere points come from sample_lp_sphere and are
    mapped through apply in place, one _block_rows row block at a time,
    so the result is the only sample-sized array.  poll, if given, is
    called between blocks; when it returns a cap name the build stops
    and only the rows mapped so far are returned.
    """
    pool = sample_lp_sphere(tree.n, p, samples, seed)
    rows = _block_rows(tree.n)
    for s in range(0, samples, rows):
        block = pool[s:s + rows]
        block[:] = apply(tree, u, w, block.T).T
        if s + rows < samples and poll is not None and poll() is not None:
            return pool[:s + rows]
    return pool


def _certificate_sweep(tree, scheme, h, ns, p, q, eps, budget):
    """({n: B(n)}, extra, checks) of the certificates for ns in turn;
    extra["certificate_index"] lists each one's index K(n), the index of
    the entropy number that B(n) bounds.

    The budget is polled before each certificate, and the sweep stops at
    the first poll that trips.
    """
    uppers = {}
    budget_constants = []
    index = []
    c_guarantee = None
    for n in ns:
        if budget.exceeded() is not None:
            break
        cert = entropy_certificate(tree, scheme, h, n, p, q, eps=eps)
        uppers[n] = float(cert.bound.value)
        budget_constants.append(cert.c_budget)
        index.append(cert.k_total)
        c_guarantee = cert.c_guarantee
    extra = {"budget_constants": budget_constants, "certificate_index": index}
    checks = {}
    if budget_constants:
        extra["c_guarantee"] = c_guarantee
        extra["max_c_budget"] = max(budget_constants)
        checks["budgets_linear_in_n"] = extra["max_c_budget"] <= c_guarantee
    return uppers, extra, checks


def _run_critical_scaling(kind, params, seed, budget):
    """Packing lower bounds and certificates for e_n, n_min <= n <= n_max,
    of a power or log critical pack.

    The packing's witnesses are the stratified basis images S e_v, kept
    in closed form (entropy._BasisRows), and `samples` sphere-sample
    images (dense rows, which get a distance pass per center).  Any
    finite subset of S(B_p) certifies a packing bound (Carl & Stephani
    1990), so the default of no samples packs the basis images alone:
    every distance then comes from the closed form, rounded down to a
    certified lower bound, and the seed only picks the basis columns of
    the levels wider than per_level_cap.  The counts, (p, q) and the pack
    are validated before the tree is built.
    """
    n_min = _count(params, "n_min", 1)
    n_max = _count(params, "n_max", n_min)
    samples = _count(params, "samples", 0)
    per_level_cap = _count(params, "per_level_cap", 0)
    p, q = float(params["p"]), float(params["q"])
    h, scheme = _critical_pack(kind, params)
    _require_critical(scheme, h, p, q)
    depth = _count(params, "depth", 0)
    if kind == "power":
        tree = full_tree(_count(params, "arity", 1), depth)
    else:
        tree = generate_hset_tree(h, scheme.m_star, depth,
                                  seed=_count(params, "tree_seed", 0))
    u, w = weights_for_tree(scheme, tree)
    expo = 1.0 / q - 1.0 / p

    lows = {}
    counters = {}
    if budget.exceeded() is None:
        vs = _basis_vertices(tree, per_level_cap, seed)
        n_sel = 2 ** (n_max - 1) + 1
        if n_sel > vs.size + samples:
            raise ValueError(
                f"witness pool has {vs.size} basis and {samples} sample "
                f"points, packing at n={n_max} needs {n_sel}; raise "
                f"per_level_cap or samples")
        pool = _witness_pool(tree, u, w, p, samples, seed,
                             poll=budget.exceeded)
        # polls are monotone: a cap that stopped the build trips this one
        if budget.exceeded() is None:
            _, radii = _farthest_point_run(pool, q, n_sel, start=0,
                                           basis=(tree, u, w, vs),
                                           poll=budget.exceeded,
                                           counts=counters)
            # the first 2^(n-1) + 1 centers lie pairwise at least the
            # running minimum of their radii apart; a cap stops the
            # traversal early, so keep the n it got through
            seps = np.minimum.accumulate(radii)
            lows = {n: float(seps[2 ** (n - 1) - 1]) / 2.0
                    for n in range(n_min, n_max + 1)
                    if 2 ** (n - 1) <= len(radii)}

    # once a cap has tripped, packing rows are flushed uncertified
    uppers, extra, checks = _certificate_sweep(
        tree, scheme, h, sorted(lows), p, q, float(params["eps"]), budget)
    rows = []
    for n in sorted(lows):
        ref = float(n ** expo)
        rows.append(Row(n, lower=float(lows[n]), upper=uppers.get(n),
                        reference=ref, ratio=float(lows[n] / ref)))

    extra.update({"p": p, "q": q, "slope_target": expo,
                  "tree_vertices": tree.n})
    if len(rows) >= 3:
        _slope(extra, checks, "packing", [r.n_or_k for r in rows],
               [r.lower for r in rows], expo, 0.20)
    certified = [r for r in rows if r.upper is not None]
    if len(certified) >= 3:
        normalized = [r.upper * r.n_or_k ** (-expo) for r in certified]
        extra["certificate_band"] = max(normalized) / min(normalized)
        checks["certificate_band_within_10"] = extra["certificate_band"] <= 10.0
    extra["checks"] = checks
    extra["counters"] = counters
    return rows, extra


def _run_certificate_growth(params, seed, budget):
    depth = _count(params, "depth", 0)
    arity = _count(params, "arity", 1)
    p, q = float(params["p"]), float(params["q"])
    h, scheme = _critical_pack("power", params)
    tree = full_tree(arity, depth)
    expo = 1.0 / q - 1.0 / p

    uppers, extra, checks = _certificate_sweep(
        tree, scheme, h, [int(n) for n in params["n_values"]], p, q,
        float(params["eps"]), budget)
    rows = []
    for n, upper in uppers.items():
        ref = float(n ** expo)
        rows.append(Row(n, upper=upper, reference=ref,
                        ratio=float(upper / ref)))

    extra.update({"p": p, "q": q, "slope_target": expo})
    if len(rows) >= 3:
        _slope(extra, checks, "growth", [r.n_or_k for r in rows],
               [r.upper for r in rows])
        band = [r.ratio for r in rows]
        extra["normalized_band"] = max(band) / min(band)
        checks["normalized_band_within_10"] = extra["normalized_band"] <= 10.0
    extra["checks"] = checks
    return rows, extra


def _run_kuhn_consistency(params, seed, budget):
    p, q = float(params["p"]), float(params["q"])
    expo = 1.0 / p - 1.0 / q
    phi = lambda t: math.log(2.0 + t) ** expo

    n_min = _count(params, "n_min", 0)
    n_max = _count(params, "n_max", n_min)
    rows = []
    worst = 0.0
    for n in range(n_min, n_max + 1):
        if budget.exceeded() is not None:
            break
        got = kuhn_value(n, p, q, phi)
        ref = math.log(2.0 + 2.0 ** n) ** (-expo)
        worst = max(worst, abs(got / ref - 1.0))
        rows.append(Row(n, heuristic=float(got), reference=float(ref),
                        ratio=float(got / ref)))

    extra = {"p": p, "q": q, "max_rel_err": worst,
             "checks": {"matches_reference": worst <= 1e-12}}
    return rows, extra


# -- registry and the run entry point -----------------------------------------


def _number(name, value):
    """value itself; ValueError naming it unless it is an int or a float
    (a JSON boolean or string is neither)."""
    if (isinstance(value, bool)
            or not isinstance(value, (int, float, np.integer, np.floating))):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


def _whole(name, value) -> int:
    """value as an int; ValueError if it is not a number (_number) or has
    a fraction int() would drop."""
    if not float(_number(name, value)).is_integer():
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(value)


_EXPERIMENTS = {
    "schuett_regimes": (_run_schuett_regimes, {
        "nu": 32, "p": 1.0, "q": 2.0, "samples": 2 ** 14, "cover_k_cap": 14}),
    "partition_stress": (_run_partition_stress, {
        "n_trees": 200, "max_vertices": 10_000, "max_branching": 3}),
    "hardy_consistency": (_run_hardy_consistency, {
        "j_values": [16, 32, 64, 128, 256, 512], "height": 10,
        "p": 2.0, "q": 4.0, "m_star": 1, "theta": 1.0, "kappa": 1.0,
        "alpha_u": 0.125, "alpha_w": 0.125, "restarts": 8}),
    "critical_scaling_power": (partial(_run_critical_scaling, "power"), {
        "depth": 11, "arity": 2, "per_level_cap": 256, "samples": 0,
        "n_min": 3, "n_max": 10, "p": 2.0, "q": 4.0, "eps": 0.1,
        "m_star": 1, "theta": 1.0, "c3": 2.0, "kappa": 1.0,
        "alpha_u": 0.125, "alpha_w": 0.125}),
    "critical_scaling_log": (partial(_run_critical_scaling, "log"), {
        "depth": 127, "tree_seed": 2, "per_level_cap": 256, "samples": 0,
        "n_min": 3, "n_max": 10, "p": 2.0, "q": 4.0, "eps": 0.1,
        "m_star": 1, "gamma": -1.0, "c3": 1.0, "kappa": 1.0,
        "alpha": 0.5, "lambda_u": 0.125, "lambda_w": 0.125}),
    "certificate_growth": (_run_certificate_growth, {
        "depth": 12, "arity": 2, "n_values": [8, 16, 32, 64],
        "p": 2.0, "q": 4.0, "eps": 0.1, "m_star": 1, "theta": 1.0,
        "c3": 2.0, "kappa": 1.0, "alpha_u": 0.125, "alpha_w": 0.125}),
    "kuhn_consistency": (_run_kuhn_consistency, {
        "p": 2.0, "q": 4.0, "n_min": 1, "n_max": 20}),
}

EXPERIMENT_NAMES = tuple(sorted(_EXPERIMENTS))


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    output_dir: str = "."

    def __post_init__(self):
        if self.experiment not in _EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; "
                             f"choose from {list(EXPERIMENT_NAMES)}")
        if not isinstance(self.params, dict):
            raise ValueError(f"params must be an object of named values, "
                             f"got {self.params!r}")
        allowed = _EXPERIMENTS[self.experiment][1]
        unknown = sorted(set(self.params) - set(allowed))
        if unknown:
            raise ValueError(f"unknown params for {self.experiment}: "
                             f"{unknown}; allowed: {sorted(allowed)}")
        if _whole("seed", self.seed) < 0:
            raise ValueError("seed must be a nonnegative integer")
        # a param is a number, or a list of numbers where its default is a
        # list; an int param, or a list of them, is read through int()
        for name, value in self.params.items():
            listed = isinstance(allowed[name], list)
            if listed != isinstance(value, (list, tuple)):
                raise ValueError(
                    f"param {name} must be "
                    f"{'a list of numbers' if listed else 'a number'}, "
                    f"got {value!r}")
            check = (_whole if np.ravel(allowed[name]).dtype.kind == "i"
                     else _number)
            for v in value if listed else [value]:
                check(f"param {name}", v)

    def resolved_params(self) -> dict:
        out = dict(_EXPERIMENTS[self.experiment][1])
        out.update(self.params)
        return out

    @classmethod
    def from_file(cls, path=None, experiment=None, seed=None,
                  output_dir=None) -> "ExperimentConfig":
        """Build a config from an optional JSON file plus CLI overrides.

        The file may carry any of the four fields; explicit arguments win.
        """
        data = {}
        if path is not None:
            data = json.loads(Path(path).read_text())
            if not isinstance(data, dict):
                raise ValueError("config file must hold a JSON object")
            unknown = sorted(set(data) -
                             {"experiment", "params", "seed", "output_dir"})
            if unknown:
                raise ValueError(f"unknown config fields: {unknown}")
        name = experiment if experiment is not None else data.get("experiment")
        if name is None:
            raise ValueError("no experiment named (pass --experiment or put "
                             "\"experiment\" in the config file)")
        return cls(
            experiment=name,
            params=data.get("params", {}),
            seed=_whole("seed", seed if seed is not None
                        else data.get("seed", 0)),
            output_dir=str(output_dir if output_dir is not None
                           else data.get("output_dir", ".")))


@dataclass
class ExperimentResult:
    experiment: str
    rows: list
    summary: dict
    passed: bool
    invariant_violations: list
    cap_hit: str | None
    csv_path: str
    summary_path: str
    manifest_path: str


def run(config: ExperimentConfig, *, wall_cap_s: float = WALL_CAP_S,
        rss_cap_bytes: int = RSS_CAP_BYTES) -> ExperimentResult:
    """Execute one experiment and write its three report files.

    <experiment>.csv            deterministic rows, fixed header
    <experiment>_summary.json   slopes, margins, named checks, pass flag
    <experiment>_manifest.json  timestamps, wall time, peak RSS, caps,
                                counters (the traversals' distance
                                evaluations, see _farthest_point_run)

    The summary is reproducible byte for byte for a fixed seed; anything
    wall-clock dependent is quarantined in the manifest.
    """
    runner, _ = _EXPERIMENTS[config.experiment]
    params = config.resolved_params()
    budget = ResourceBudget(wall_cap_s, rss_cap_bytes)
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

    rows, extra = runner(params, config.seed, budget)
    # the only place a cap is reported: polls are monotone, so this one
    # trips whenever a poll inside the runner did
    cap_hit = budget.exceeded()

    violations = [int(r.n_or_k) for r in rows
                  if r.lower is not None and r.upper is not None
                  and not r.lower <= r.upper]
    checks = {name: bool(v) for name, v in extra.pop("checks", {}).items()}
    # work counts are the program's, not the result's: manifest only
    counters = extra.pop("counters", {})
    passed = (not violations and cap_hit is None
              and all(checks.values()) and bool(checks))
    summary = {
        "experiment": config.experiment,
        "seed": int(config.seed),
        "params": params,
        "rows": len(rows),
        "invariant_violations": violations,
        "cap_hit": cap_hit,
        "checks": checks,
        "pass": passed,
        **extra,
    }

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{config.experiment}.csv"
    summary_path = out / f"{config.experiment}_summary.json"
    manifest_path = out / f"{config.experiment}_manifest.json"
    csv_path.write_text(rows_to_csv(rows))
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True)
                            + "\n")
    manifest = {
        "experiment": config.experiment,
        "started_at": started,
        "finished_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "wall_time_s": round(budget.elapsed_s(), 3),
        "peak_rss_bytes": budget.peak_rss_bytes(),
        "caps": {"wall_cap_s": budget.wall_cap_s,
                 "rss_cap_bytes": budget.rss_cap_bytes},
        "cap_hit": cap_hit,
        "counters": counters,
        "files": [csv_path.name, summary_path.name],
    }
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True)
                             + "\n")
    return ExperimentResult(
        experiment=config.experiment, rows=rows, summary=summary,
        passed=passed, invariant_violations=violations, cap_hit=cap_hit,
        csv_path=str(csv_path), summary_path=str(summary_path),
        manifest_path=str(manifest_path))
