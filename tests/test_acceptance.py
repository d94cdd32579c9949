"""Acceptance gate: nine end-to-end criteria at their stated tolerances.

Each criterion emits one pass/fail line (visible with `pytest -s`).  The
five reporting experiments run once in a module fixture; the determinism
criterion re-runs them with the same seeds and compares bytes, and one
more test pins the critical packings' basis-only default on the same
runs, as does one that bounds the q = 2 traversal's Gram products.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from tree_cases import dense_matrix

from entropy_lab.certificate import entropy_certificate
from entropy_lab.entropy import net_upper, packing_profile
from entropy_lab.experiments import ExperimentConfig, run
from entropy_lab.hset import HProfile, generate_hset_tree
from entropy_lab.summation import WeightScheme, norm_oracle
from entropy_lab.trees import full_tree, random_tree

SEED = 0
EXPERIMENTS = ("schuett_regimes", "partition_stress", "hardy_consistency",
               "critical_scaling_power", "critical_scaling_log")


def _verdict(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def experiment_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    results = {}
    for name in EXPERIMENTS:
        t0 = time.monotonic()
        res = run(ExperimentConfig(name, seed=SEED,
                                   output_dir=str(root / name)))
        results[name] = (res, time.monotonic() - t0)
    return results


def test_criterion_1_schuett_regimes(experiment_runs):
    res, wall = experiment_runs["schuett_regimes"]
    s = res.summary
    slope_ok = abs(s["middle_slope"] - (-0.5)) <= 0.20
    decay_ok = s["max_decay_deviation"] <= 0.15
    ok = slope_ok and decay_ok and wall < 120.0
    _verdict(1, ok,
             f"middle slope {s['middle_slope']:.3f} (target -0.5 +-0.20), "
             f"exponential decay deviation {s['max_decay_deviation']:.2e} "
             f"(cap 0.15), wall {wall:.1f}s < 120s")


def test_criterion_2_bracketing():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260817)
    combos = [(1.0, 2.0), (2.0, 2.0), (2.0, 4.0), (1.0, math.inf),
              (1.5, 3.0), (2.0, math.inf)]
    order_violations = 0
    worst_ratio = 0.0
    zero_packings = 0
    for i in range(50):
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 5))
        a = rng.standard_normal((m, d))
        p, q = combos[i % len(combos)]
        k = int(rng.integers(1, 5))
        eta = 0.05 if d <= 2 else (0.08 if d == 3 else 0.12)
        lo = packing_profile(a, p, q, [k], samples=4096, seed=i)[0].value
        up = net_upper(a, p, q, k, eta=eta).value
        if lo > up:
            order_violations += 1
        if lo <= 0.0:
            zero_packings += 1
        else:
            worst_ratio = max(worst_ratio, up / lo)
    wall = time.monotonic() - t0
    ok = (order_violations == 0 and zero_packings == 0
          and worst_ratio <= 6.0 and wall < 120.0)
    _verdict(2, ok,
             f"packing <= net in 50/50 cases ({order_violations} violations, "
             f"{zero_packings} degenerate), worst net/packing "
             f"{worst_ratio:.2f} <= 6, wall {wall:.1f}s < 120s")


def test_criterion_3_partition_invariants(experiment_runs):
    res, wall = experiment_runs["partition_stress"]
    s = res.summary
    ok = (s["violations"] == 0 and s["trees_done"] == 200
          and s["worst_mass_ratio"] <= 1.0 and s["worst_count_ratio"] <= 1.0
          and wall < 60.0)
    _verdict(3, ok,
             f"200 trees, {s['violations']} violations, worst mass ratio "
             f"{s['worst_mass_ratio']:.2f}, worst count ratio "
             f"{s['worst_count_ratio']:.2f}, worst cross ratio "
             f"{s['worst_cross_ratio']:.2f} (all <= 1), wall {wall:.1f}s < 60s")


def test_criterion_4_hardy_consistency(experiment_runs):
    res, wall = experiment_runs["hardy_consistency"]
    s = res.summary
    slope_ok = abs(s["envelope_slope"] - (-0.25)) <= 0.10
    # "single constant c": the lower/envelope ratio is bounded and stable
    const_ok = s["envelope_constant"] <= 4.0
    drift_ok = s["envelope_ratio_drift"] <= 2.0
    certified_ok = all(r.lower <= r.upper for r in res.rows)
    ok = (slope_ok and const_ok and drift_ok and certified_ok
          and len(res.rows) == 6 and wall < 180.0)
    _verdict(4, ok,
             f"envelope slope {s['envelope_slope']:.4f} (target -0.25 "
             f"+-0.10), lower <= {s['envelope_constant']:.3f} * envelope "
             f"with drift {s['envelope_ratio_drift']:.3f} across depths "
             f"16..512, wall {wall:.1f}s < 180s")


def test_criterion_5_critical_scaling(experiment_runs):
    res_p, wall_p = experiment_runs["critical_scaling_power"]
    res_l, wall_l = experiment_runs["critical_scaling_log"]
    wall = wall_p + wall_l
    details = []
    ok = wall < 600.0
    for label, res in (("power", res_p), ("log", res_l)):
        s = res.summary
        slope_ok = abs(s["packing_slope"] - (-0.25)) <= 0.20
        band_ok = s["certificate_band"] <= 10.0
        rows_ok = (not res.invariant_violations
                   and [r.n_or_k for r in res.rows] == list(range(3, 11)))
        ok = ok and slope_ok and band_ok and rows_ok
        details.append(f"{label}: slope {s['packing_slope']:.3f} "
                       f"(target -0.25 +-0.20), band {s['certificate_band']:.2f}"
                       f" <= 10")
    _verdict(5, ok, "; ".join(details) + f"; wall {wall:.0f}s < 600s")


# the power pack's packing bounds at n = 3..10, seed 0, when its witness
# pool also held 2,048 sphere samples: a basis-only pool reaches them
SAMPLED_POWER_LOWER = (0.40315129484794376, 0.37281987383487075,
                       0.3532828041946102, 0.3386783227798311,
                       0.3260991731641825, 0.31435988650984803,
                       0.30477712310499283, 0.2942803280019029)


def test_default_critical_packings_are_basis_only(experiment_runs):
    for name in ("critical_scaling_power", "critical_scaling_log"):
        res, _ = experiment_runs[name]
        manifest = json.loads(Path(res.manifest_path).read_text())
        assert manifest["counters"]["dense_evals"] == 0, name
    res, _ = experiment_runs["critical_scaling_power"]
    assert [r.n_or_k for r in res.rows] == list(range(3, 11))
    assert all(r.lower >= low
               for r, low in zip(res.rows, SAMPLED_POWER_LOWER))


def test_schuett_regimes_shares_each_gram_block(experiment_runs):
    # the q = 2 cover traversal selects 8,193 centers; a Gram block holds
    # eight rows of its 16,384-row pool, and most centers find theirs in
    # the block of an earlier one
    res, _ = experiment_runs["schuett_regimes"]
    manifest = json.loads(Path(res.manifest_path).read_text())
    assert 0 < manifest["counters"]["gram_products"] <= 1400


def test_criterion_6_budget_identity():
    packs = []
    h_pow = HProfile(theta=1.0, c3=2.0)
    packs.append(("power", full_tree(2, 11),
                  WeightScheme("power-critical", kappa=1.0, m_star=1,
                               alpha_u=0.125, alpha_w=0.125), h_pow))
    h_log = HProfile(theta=0.0, gamma=-1.0, c3=1.0)
    packs.append(("log", generate_hset_tree(h_log, 1, 127, seed=2),
                  WeightScheme("log-critical", kappa=1.0, m_star=1, alpha=0.5,
                               lambda_u=0.125, lambda_w=0.125), h_log))
    ok = True
    details = []
    for label, tree, scheme, h in packs:
        c_shared = None
        worst = 0.0
        for n in range(3, 11):
            cert = entropy_certificate(tree, scheme, h, n, p=2.0, q=4.0)
            spent = sum(k - 1 for (_, _, k) in cert.budgets)
            # bookkeeping identity and the budget inequality, both exact
            ok = ok and spent == cert.k_total - 1
            ok = ok and spent <= cert.c_guarantee * n
            if c_shared is None:
                c_shared = cert.c_guarantee
            ok = ok and cert.c_guarantee == c_shared
            worst = max(worst, spent / n)
        details.append(f"{label}: max (K-1)/n = {worst:.2f} <= C = "
                       f"{c_shared:.2f}")
    _verdict(6, ok, "; ".join(details) + " (exact, all n in 3..10)")


def test_criterion_7_kuhn_evaluator(tmp_path):
    res = run(ExperimentConfig("kuhn_consistency", seed=SEED,
                               output_dir=str(tmp_path)))
    s = res.summary
    ok = (len(res.rows) == 20 and s["max_rel_err"] <= 1e-12 and res.passed)
    _verdict(7, ok,
             f"20 evaluation points, max relative error "
             f"{s['max_rel_err']:.2e} <= 1e-12")


def test_criterion_8_norm_oracle_vs_svd():
    t0 = time.monotonic()
    rng = np.random.default_rng(88)
    worst_rel = 0.0
    upper_violations = 0
    for i in range(100):
        n = int(rng.integers(2, 51))
        tree = random_tree(n, 3, seed=int(rng.integers(2 ** 62)))
        u = np.exp(rng.normal(0.0, 1.0, n))
        w = np.exp(rng.normal(0.0, 1.0, n))
        est = norm_oracle(tree, u, w, 2.0, 2.0, {"seed": i})
        sigma = float(np.linalg.norm(dense_matrix(tree, u, w), 2))
        worst_rel = max(worst_rel, abs(est.lower - sigma) / sigma)
        if est.upper < sigma * (1.0 - 1e-12):
            upper_violations += 1
    wall = time.monotonic() - t0
    ok = worst_rel <= 1e-6 and upper_violations == 0 and wall < 60.0
    _verdict(8, ok,
             f"100 trees, worst |lower - svd|/svd = {worst_rel:.2e} <= 1e-6, "
             f"{upper_violations} upper bounds below svd, "
             f"wall {wall:.1f}s < 60s")


def test_criterion_9_determinism(experiment_runs, tmp_path_factory):
    root = tmp_path_factory.mktemp("rerun")
    mismatches = []
    for name in EXPERIMENTS:
        first, _ = experiment_runs[name]
        again = run(ExperimentConfig(name, seed=SEED,
                                     output_dir=str(root / name)))
        a = Path(first.csv_path).read_bytes()
        b = Path(again.csv_path).read_bytes()
        if a != b:
            mismatches.append(name)
    ok = not mismatches
    _verdict(9, ok,
             "criteria 1-5 re-runs byte-identical"
             + (f" except {mismatches}" if mismatches else
                f" across all {len(EXPERIMENTS)} experiments"))
