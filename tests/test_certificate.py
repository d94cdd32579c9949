import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tree_cases import trees

from entropy_lab.certificate import Certificate, entropy_certificate
from entropy_lab.entropy import schuett
from entropy_lab.experiments import _EXPERIMENTS, _critical_pack
from entropy_lab.hset import HProfile, generate_hset_tree
from entropy_lab.summation import (
    WeightScheme,
    _row_hoelder_upper,
    apply,
    weights_for_tree,
)
from entropy_lab.trees import full_tree

H_POWER = HProfile(theta=1.0)
POWER = WeightScheme("power-critical", kappa=1.0, m_star=1,
                     alpha_u=0.125, alpha_w=0.125)
H_LOG = HProfile(theta=0.0, gamma=-1.0)
LOG = WeightScheme("log-critical", kappa=1.0, m_star=1,
                   alpha=0.5, lambda_u=0.125, lambda_w=0.125)

# supercritical tail bound at start depth 4 is (m_* j)^{1/q-1/p} = 4^{-1/4}
TAIL_AT_4 = 0.7071067811865476


def test_certificate_structure_power_pack():
    tree = full_tree(2, 12)
    cert = entropy_certificate(tree, POWER, H_POWER, 8, p=2, q=4)
    assert cert.bound.kind == "certified_upper"
    assert cert.k_total == cert.bound.k
    spent = sum(k - 1 for _, _, k in cert.budgets)
    assert cert.k_total - 1 == spent
    assert cert.c_budget == spent / 8
    assert cert.c_budget <= cert.c_guarantee
    # layer budgets in the meta agree with the raw triples
    by_layer = {}
    for t, _, k in cert.budgets:
        by_layer[t] = by_layer.get(t, 0) + (k - 1)
    for layer in cert.meta["layers"]:
        assert layer["k_budget"] - 1 == by_layer[layer["t"]]
    assert cert.bound.value > 0 and math.isfinite(cert.bound.value)


def _fold(cert):
    """B(n) folded left: the scaled reference value of each layer in
    order, then the tail (adding a missing tail's 0.0 is exact)."""
    p, q = cert.meta["p"], cert.meta["q"]
    total = 0.0
    for layer in cert.meta["layers"]:
        total += layer["norm"] * schuett(layer["dim"], layer["k_budget"], p, q)
    return total + cert.meta["tail_value"]


def test_certificate_value_composition():
    # the critical_scaling packs, at every n of their sweeps
    for kind in ("power", "log"):
        params = _EXPERIMENTS[f"critical_scaling_{kind}"][1]
        h, scheme = _critical_pack(kind, params)
        if kind == "power":
            tree = full_tree(params["arity"], params["depth"])
        else:
            tree = generate_hset_tree(h, scheme.m_star, params["depth"],
                                      seed=params["tree_seed"])
        for n in range(params["n_min"], params["n_max"] + 1):
            cert = entropy_certificate(tree, scheme, h, n, p=2, q=4)
            assert cert.bound.value == _fold(cert)
            assert cert.bound.k == 1 + sum(layer["k_budget"] - 1
                                           for layer in cert.meta["layers"])
    cert = entropy_certificate(full_tree(2, 12), POWER, H_POWER, 8, p=2, q=4)
    assert cert.meta["tail_value"] == pytest.approx(TAIL_AT_4, rel=1e-12)
    assert cert.meta["j_tail"] == 4


def test_certificate_single_vertex_reduces_to_one_scale_leaf():
    cert = entropy_certificate(full_tree(2, 0), POWER, H_POWER, 8, p=2, q=4)
    [layer] = cert.meta["layers"]
    assert (layer["dim"], layer["k_budget"], layer["norm"]) == (1, 8, 1.0)
    assert cert.meta["tail_value"] == 0.0
    assert cert.bound.k == 8
    # root weights are u = w = 1, so the bound is the bare reference value
    assert cert.bound.value == schuett(1, 8, 2, 4)


def test_certificate_tail_switches_on_tree_height():
    deep = entropy_certificate(full_tree(2, 12), POWER, H_POWER, 8, p=2, q=4)
    assert deep.meta["tail_value"] > 0
    assert deep.meta["j_tail"] <= 12
    shallow = entropy_certificate(full_tree(2, 3), POWER, H_POWER, 8, p=2, q=4)
    assert shallow.meta["tail_value"] == 0.0
    assert shallow.meta["j_tail"] > 3
    # one hardy leaf below the layers of the deep tree, none in the shallow
    assert deep.bound.method.count("hardy-tail") == 1
    assert "hardy-tail" not in shallow.bound.method
    for cert in (deep, shallow):
        assert cert.bound.value == _fold(cert)


def test_certificate_budget_identity_across_n():
    tree = full_tree(2, 12)
    for n in (8, 16, 32):
        cert = entropy_certificate(tree, POWER, H_POWER, n, p=2, q=4)
        assert sum(k - 1 for _, _, k in cert.budgets) == cert.k_total - 1
        assert cert.k_total - 1 <= cert.c_guarantee * n
        # every budget is at least 1 and the head block carries n
        assert all(k >= 1 for _, _, k in cert.budgets)
        assert max(k for _, _, k in cert.budgets) == n


def test_certificate_rejects_bad_inputs():
    tree = full_tree(2, 6)
    broken = WeightScheme("power-critical", kappa=1.0, m_star=1,
                          alpha_u=0.125, alpha_w=0.3)
    with pytest.raises(ValueError, match="critical"):
        entropy_certificate(tree, broken, H_POWER, 8, p=2, q=4)
    with pytest.raises(ValueError, match="n too small"):
        entropy_certificate(tree, POWER, H_POWER, 1, p=2, q=4)
    with pytest.raises(ValueError, match="n too small"):
        entropy_certificate(tree, POWER, H_POWER, 2, p=2, q=4)
    with pytest.raises(ValueError):
        entropy_certificate(tree, POWER, H_POWER, 8, p=4, q=2)
    with pytest.raises(ValueError):
        entropy_certificate(tree, POWER, H_POWER, 8, p=2, q=math.inf)
    with pytest.raises(ValueError):
        entropy_certificate(tree, POWER, H_POWER, 8, p=2, q=4, eps=0.0)


def _reference_block_norm_upper(tree, u, w, q, lo, hi):
    """The certificate's former private copy of the row-wise Hoelder bound
    for the l_q -> l_q norm of the kernel restricted to input depths in
    [lo, hi), kept as the reference for the shared one."""
    qq = q / (q - 1.0)
    mask = (tree.depth >= lo) & (tree.depth < hi)
    uq = np.zeros(tree.n)
    uq[mask] = u[mask] ** qq
    cum = apply(tree, uq, np.ones(tree.n), np.ones(tree.n))
    live = cum > 0
    if not np.any(live):
        return 0.0
    total = np.sum(w[live] ** q * cum[live] ** (q / qq))
    return float(total ** (1.0 / q))


def _window_norm(tree, u, w, q, lo, hi):
    """What entropy_certificate computes for the block [lo, hi)."""
    in_block = (tree.depth >= lo) & (tree.depth < hi)
    ones = np.ones(tree.n)
    cum = apply(tree, np.where(in_block, u ** (q / (q - 1.0)), 0.0), ones,
                ones)
    return _row_hoelder_upper(cum, w, q, q)


@settings(max_examples=60, deadline=None)
@given(tree=trees(), q=st.sampled_from([1.5, 2.0, 3.3, 4.0]),
       pack=st.sampled_from(["power", "log", "random"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_masked_hoelder_matches_block_norm_reference(tree, q, pack, seed):
    if pack == "random":
        rng = np.random.default_rng(seed)
        u, w = rng.uniform(0.01, 3.0, tree.n), rng.uniform(0.01, 3.0, tree.n)
    else:
        u, w = weights_for_tree(POWER if pack == "power" else LOG, tree)
    # every depth window, plus windows reaching past the tree
    for lo in range(tree.height + 2):
        for hi in range(lo, tree.height + 3):
            assert _window_norm(tree, u, w, q, lo, hi) == \
                _reference_block_norm_upper(tree, u, w, q, lo, hi)


@pytest.mark.parametrize("case", ["power", "log"])
def test_certificate_layer_norms_match_block_norm_reference(case):
    if case == "power":
        tree, scheme, h = full_tree(2, 14), POWER, H_POWER
    else:
        tree = generate_hset_tree(H_LOG, m_star=1, depth=127, seed=2)
        scheme, h = LOG, H_LOG
    u, w = weights_for_tree(scheme, tree)
    for n in (8, 10, 16):
        cert = entropy_certificate(tree, scheme, h, n, p=2, q=4)
        assert cert.meta["layers"]
        for layer in cert.meta["layers"]:
            assert layer["norm"] == _reference_block_norm_upper(
                tree, u, w, 4.0, layer["lo"], layer["hi"])


def test_block_norm_dominates_dense_kernel():
    tree = full_tree(3, 3)
    u, w = weights_for_tree(POWER, tree)
    lo, hi, q = 2, 4, 4.0
    bound = _window_norm(tree, u, w, q, lo, hi)
    kernel = np.zeros((tree.n, tree.n))
    for i in range(tree.n):
        k = i
        while True:
            if lo <= tree.depth[k] < hi:
                kernel[i, k] = w[i] * u[k]
            if k == 0:
                break
            k = int(tree.parent[k])
    rng = np.random.default_rng(5)
    x = rng.standard_normal((tree.n, 64))
    x /= np.sum(np.abs(x) ** q, axis=0) ** (1 / q)
    ratios = np.sum(np.abs(kernel @ x) ** q, axis=0) ** (1 / q)
    assert float(ratios.max()) <= bound * (1 + 1e-12)
    assert bound > 0


def test_certificate_log_profile():
    tree = generate_hset_tree(H_LOG, m_star=1, depth=10, seed=3)
    cert = entropy_certificate(tree, LOG, H_LOG, 8, p=2, q=4)
    assert cert.bound.kind == "certified_upper"
    assert cert.meta["tail_value"] > 0
    assert cert.k_total - 1 <= cert.c_guarantee * 8
    assert 0 < cert.bound.value < math.inf
    # log profiles use the doubly-exponential layering
    assert cert.meta["j_tail"] == 4 and cert.meta["t_stop"] == 2


def test_certificate_deterministic():
    tree = full_tree(2, 10)
    a = entropy_certificate(tree, POWER, H_POWER, 16, p=2, q=4)
    b = entropy_certificate(tree, POWER, H_POWER, 16, p=2, q=4)
    assert a.bound.value == b.bound.value and a.k_total == b.k_total
    assert a == b


def test_certificate_normalized_band_is_moderate():
    tree = full_tree(2, 12)
    alpha = 1 / 2 - 1 / 4
    normalized = [
        entropy_certificate(tree, POWER, H_POWER, n, p=2, q=4).bound.value
        * n ** alpha
        for n in (8, 16, 32, 64)
    ]
    assert max(normalized) / min(normalized) < 8.0
