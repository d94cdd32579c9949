import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tree_cases import bfs_order, bfs_tree, path_tree, trees

from entropy_lab.hset import HProfile, TauFn, generate_hset_tree
from entropy_lab.summation import (
    NormEstimate,
    WeightScheme,
    _check_pq,
    _conj,
    _depth_weights,
    _row_hoelder_upper,
    _simplex_grid_upper,
    apply,
    apply_adjoint,
    hardy_bound,
    norm_oracle,
    operator_matrix,
    validate_critical,
    weights_for_tree,
)
from entropy_lab.trees import Tree, full_tree, random_tree

GOLDEN = 1.618033988749895          # largest singular value, 2-step path
PATH3_NORM = 2.246979603717467      # 1 / (2 sin(pi/14)), 3-step path


def random_parent_array(n, rng, max_reach=6):
    """Each vertex i > 0 draws its parent among the max_reach ids before it."""
    parent = np.full(n, -1, dtype=np.int64)
    for i in range(1, n):
        lo = max(0, i - max_reach)
        parent[i] = rng.integers(lo, i)
    return parent


def random_parent(n, rng, max_reach=6):
    return bfs_tree(random_parent_array(n, rng, max_reach))


def weighted_random_tree(n, rng):
    """random_parent's tree and rand_weights' draws, dealt to its vertices
    in order of depth, ties by the order the vertices were drawn."""
    parent = random_parent_array(n, rng)
    u, w = rand_weights(n, rng)
    depth = np.zeros(n, dtype=np.int64)
    for i in range(1, n):
        depth[i] = depth[parent[i]] + 1
    # the draw dealt to each vertex of the BFS tree
    dealt = np.argsort(np.argsort(depth, kind="stable"))[bfs_order(parent)]
    return bfs_tree(parent), u[dealt], w[dealt]


def dense_matrix(tree, u, w):
    """Kernel matrix built by walking parent chains; independent of apply."""
    n = tree.n
    mat = np.zeros((n, n))
    for i in range(n):
        v = i
        while v != -1:
            mat[i, v] = w[i] * u[v]
            v = int(tree.parent[v])
    return mat


def rand_weights(n, rng):
    return rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)


# -- apply -----------------------------------------------------------------


def test_apply_root_indicator_reaches_everywhere():
    t = full_tree(2, 3)
    ones = np.ones(t.n)
    f = np.zeros(t.n)
    f[0] = 1.0
    np.testing.assert_allclose(apply(t, ones, ones, f), np.ones(t.n))


def test_apply_leaf_indicator_stays_at_leaf():
    t = full_tree(2, 3)
    rng = np.random.default_rng(5)
    u, w = rand_weights(t.n, rng)
    leaf = t.n - 1
    f = np.zeros(t.n)
    f[leaf] = 1.0
    g = apply(t, u, w, f)
    expect = np.zeros(t.n)
    expect[leaf] = w[leaf] * u[leaf]
    np.testing.assert_allclose(g, expect)


def test_apply_path_running_sum():
    t = path_tree(3)
    ones = np.ones(3)
    np.testing.assert_allclose(apply(t, ones, ones, np.ones(3)), [1.0, 2.0, 3.0])


def test_apply_matches_dense_kernel():
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 23, 40):
        t = random_parent(n, rng)
        u, w = rand_weights(n, rng)
        f = rng.normal(size=n)
        np.testing.assert_allclose(apply(t, u, w, f), dense_matrix(t, u, w) @ f,
                                   rtol=1e-12, atol=1e-12)


def test_apply_block_equals_columnwise():
    rng = np.random.default_rng(12)
    t = random_parent(30, rng)
    u, w = rand_weights(30, rng)
    block = rng.normal(size=(30, 5))
    g = apply(t, u, w, block)
    for r in range(5):
        np.testing.assert_allclose(g[:, r], apply(t, u, w, block[:, r]))


def test_apply_dimension_mismatch():
    t = path_tree(4)
    with pytest.raises(ValueError, match="leading dimension"):
        apply(t, np.ones(4), np.ones(4), np.ones(5))


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 25), st.integers(0, 10 ** 6),
       st.floats(-5, 5), st.floats(-5, 5))
def test_apply_linear(n, seed, a, b):
    rng = np.random.default_rng(seed)
    t = random_parent(n, rng)
    u, w = rand_weights(n, rng)
    f1 = rng.normal(size=n)
    f2 = rng.normal(size=n)
    lhs = apply(t, u, w, a * f1 + b * f2)
    rhs = a * apply(t, u, w, f1) + b * apply(t, u, w, f2)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-10)


def test_apply_monotone_in_weights_for_nonneg_input():
    rng = np.random.default_rng(13)
    t = random_parent(40, rng)
    u, w = rand_weights(40, rng)
    f = rng.uniform(0, 1, 40)
    g = apply(t, u, w, f)
    bump = rng.uniform(0, 0.5, 40)
    assert np.all(apply(t, u + bump, w, f) >= g - 1e-15)
    assert np.all(apply(t, u, w + bump, f) >= g - 1e-15)


def test_adjoint_is_transpose():
    rng = np.random.default_rng(14)
    for n in (2, 9, 33):
        t = random_parent(n, rng)
        u, w = rand_weights(n, rng)
        g = rng.normal(size=n)
        np.testing.assert_allclose(apply_adjoint(t, u, w, g),
                                   dense_matrix(t, u, w).T @ g,
                                   rtol=1e-12, atol=1e-12)


def test_operator_matrix_agrees_with_dense():
    rng = np.random.default_rng(15)
    t = random_parent(12, rng)
    u, w = rand_weights(12, rng)
    np.testing.assert_allclose(operator_matrix(t, u, w), dense_matrix(t, u, w))


# -- the per-vertex kernels the level sweeps replaced, kept as references ----


def _ref_scale_rows(vec, x):
    vec = np.asarray(vec, dtype=float)
    return vec[:, None] * x if x.ndim == 2 else vec * x


def _ref_apply(tree, u, w, f):
    f = np.asarray(f, dtype=float)
    z = _ref_scale_rows(u, f)
    acc = np.empty_like(z)
    acc[0] = z[0]
    for d in range(1, tree.height + 1):
        sl = tree.levels()[d].ids
        acc[sl] = acc[tree.parent[sl]] + z[sl]
    return _ref_scale_rows(w, acc)


def _ref_scatter_add(acc, idx, vals):
    if idx.size == 0:
        return
    if np.all(idx[1:] >= idx[:-1]):
        starts = np.flatnonzero(np.concatenate(([True], idx[1:] != idx[:-1])))
        acc[idx[starts]] += np.add.reduceat(vals, starts, axis=0)
    else:
        np.add.at(acc, idx, vals)


def _ref_apply_adjoint(tree, u, w, g):
    g = np.asarray(g, dtype=float)
    acc = _ref_scale_rows(w, g).copy()
    for d in range(tree.height, 0, -1):
        sl = tree.levels()[d].ids
        _ref_scatter_add(acc, tree.parent[sl], acc[sl])
    return _ref_scale_rows(u, acc)


def _ref_lp_norm(x, p, axis=0):
    return np.sum(np.abs(x) ** p, axis=axis) ** (1.0 / p)


def _ref_row_hoelder_upper(tree, u, w, p, q):
    pp = _conj(p)
    cum = np.empty(tree.n)
    up = np.asarray(u, dtype=float) ** pp
    cum[0] = up[0]
    for d in range(1, tree.height + 1):
        sl = tree.levels()[d].ids
        cum[sl] = cum[tree.parent[sl]] + up[sl]
    return float(np.sum(np.asarray(w) ** q * cum ** (q / pp)) ** (1.0 / q))


def _ref_norm_oracle(tree, u, w, p, q, cfg):
    cfg = dict(cfg)
    restarts = int(cfg.pop("restarts", 16))
    tol = float(cfg.pop("tol", 1e-10))
    max_iter = int(cfg.pop("max_iter", 10_000))
    seed = int(cfg.pop("seed", 0))
    _check_pq(p, q)
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if tree.n == 1:
        v = float(u[0] * w[0])
        return NormEstimate(v, v, np.ones(1),
                            {"iterations": 0,
                             "restart_iterations": [0] * max(1, restarts)})
    pp = _conj(p)
    vals, iterates, stopped = [], [], []
    for r in range(max(1, restarts)):
        # one restart on its own, as a one-column block (so its norms are
        # array pows, as in the oracle's block), until it converges or runs
        # out of steps
        if r == 0:
            f = np.ones((tree.n, 1))
        else:
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, 0x6f7261, r]))
            f = np.abs(rng.standard_normal((tree.n, 1))) + 1e-12
        f = f / _ref_lp_norm(f, p)
        val = 0.0
        step = 0
        for step in range(1, max_iter + 1):
            g = _ref_apply(tree, u, w, f)
            t = g ** (q - 1.0)
            new_val = (np.sum(t * g, axis=0) ** (1.0 / q))[0]
            done = abs(new_val - val) <= tol * max(new_val, 1e-300)
            val = new_val
            if done:
                break
            z = _ref_apply_adjoint(tree, u, w, t)
            f = z ** (pp - 1.0)
            f = f / np.sum(z * f, axis=0) ** (1.0 / p)
        vals.append(val)
        iterates.append(f[:, 0])
        stopped.append(step)
    best = int(np.argmax(vals))
    witness = iterates[best].copy()
    lower = float(_ref_lp_norm(_ref_apply(tree, u, w, witness), q)
                  / _ref_lp_norm(witness, p))
    upper = _ref_row_hoelder_upper(tree, u, w, p, q)
    if tree.n <= 12:
        upper = min(upper, _simplex_grid_upper(tree, u, w, p, q, upper))
    upper = max(upper, lower)
    return NormEstimate(lower, upper, witness,
                        {"iterations": max(stopped),
                         "restart_iterations": stopped})


def _poll_after(steps):
    """A budget poll that lets the oracle take `steps` ascent steps, then
    stops it, as a step cap would."""
    calls = []

    def poll():
        calls.append(1)
        return "steps" if len(calls) > steps else None
    return poll


def _block(rng, n, cols):
    """A vector (cols == 0) or an (n, cols) block spanning many magnitudes."""
    shape = (n,) if cols == 0 else (n, cols)
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)


@settings(max_examples=150, deadline=None)
@given(tree=trees(), cols=st.integers(0, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_level_sweeps_match_reference_kernels_exactly(tree, cols, seed):
    rng = np.random.default_rng(seed)
    u, w = rand_weights(tree.n, rng)
    f = _block(rng, tree.n, cols)
    assert np.array_equal(apply(tree, u, w, f), _ref_apply(tree, u, w, f))
    assert np.array_equal(apply_adjoint(tree, u, w, f),
                          _ref_apply_adjoint(tree, u, w, f))


def test_level_sweeps_cover_every_segment_shape():
    """Levels with two children per parent, and with uniform, mixed and
    wide fan-out."""
    rng = np.random.default_rng(21)
    shapes = set()
    for tree in (full_tree(2, 5), full_tree(3, 4), random_tree(300, 3, 1),
                 random_tree(300, 14, 2)):
        for seg in tree.segments()[1:]:
            shapes.add("pairs" if seg.pairs else "reduceat")
        u, w = rand_weights(tree.n, rng)
        for cols in (0, 3):
            g = _block(rng, tree.n, cols)
            assert np.array_equal(apply_adjoint(tree, u, w, g),
                                  _ref_apply_adjoint(tree, u, w, g))
    assert shapes == {"pairs", "reduceat"}


def test_level_plan_is_cached_on_the_tree():
    t = random_tree(50, 3, 4)
    assert t.levels() is t.levels() and t.segments() is t.segments()
    for d, lv in enumerate(t.levels()):
        assert np.array_equal(np.arange(t.n)[lv.ids], np.flatnonzero(t.depth == d))
        assert np.array_equal(lv.parent, t.parent[t.depth == d])


# -- weight schemes ----------------------------------------------------------


def test_power_weights_example():
    s = WeightScheme("power-critical", kappa=1.0, m_star=1,
                     alpha_u=0.0, alpha_w=0.0)
    u, w = _depth_weights(s, 0, 4)
    np.testing.assert_allclose(u, [1, 2, 4, 8])
    np.testing.assert_allclose(w, [1, 0.5, 0.25, 0.125])


def test_weight_product_independent_of_kappa():
    a = WeightScheme("power-critical", kappa=0.3, m_star=2,
                     alpha_u=0.2, alpha_w=0.55)
    b = WeightScheme("power-critical", kappa=1.7, m_star=2,
                     alpha_u=0.2, alpha_w=0.55)
    ua, wa = _depth_weights(a, 0, 61)
    ub, wb = _depth_weights(b, 0, 61)
    j = np.arange(61.0)
    np.testing.assert_allclose(ua * wa, (2 * j + 1.0) ** (-0.75), rtol=1e-12)
    np.testing.assert_allclose(ua * wa, ub * wb, rtol=1e-12)


def test_log_weights_identity_and_no_singularity():
    s = WeightScheme("log-critical", kappa=0.8, m_star=1, alpha=0.4,
                     lambda_u=0.1, lambda_w=0.15)
    u, w = _depth_weights(s, 0, 101)
    j = np.arange(101.0)
    big_l = np.log(np.e + j)
    np.testing.assert_allclose(u * w * big_l ** 0.25, 1.0, rtol=1e-12)
    assert np.all(u > 0) and np.all(w > 0)
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(w))


def test_explicit_scheme():
    s = WeightScheme("explicit", u=(1.0, 2.0, 3.0), w=(0.5, 0.5, 0.5))
    u, w = _depth_weights(s, 0, 3)
    np.testing.assert_allclose(u, [1, 2, 3])
    with pytest.raises(ValueError, match="shorter"):
        _depth_weights(s, 0, 4)
    with pytest.raises(ValueError, match="positive"):
        WeightScheme("explicit", u=(1.0, -2.0), w=(0.5, 0.5))
    with pytest.raises(ValueError, match="kind"):
        WeightScheme("mystery")
    for m_star in (0, 1.5):
        with pytest.raises(ValueError, match="positive integer"):
            WeightScheme("power-critical", m_star=m_star)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_explicit_scheme_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError, match="finite"):
        WeightScheme("explicit", u=(1.0, bad), w=(0.5, 0.5))
    with pytest.raises(ValueError, match="finite"):
        WeightScheme("explicit", u=(1.0, 2.0), w=(bad, 0.5))


def _reference_depth_weights(scheme, depth):
    """The former per-depth evaluator of weights at depths 0..depth
    (unanchored)."""
    if scheme.kind == "explicit":
        return (np.asarray(scheme.u[:depth + 1], dtype=float),
                np.asarray(scheme.w[:depth + 1], dtype=float))
    j = np.arange(depth + 1, dtype=float)
    mj = scheme.m_star * j
    expo = np.exp2(scheme.kappa * mj)
    if scheme.kind == "power-critical":
        u = expo * (mj + 1.0) ** (-scheme.alpha_u)
        w = (mj + 1.0) ** (-scheme.alpha_w) / expo
    else:
        big_l = np.log(np.e + mj)
        u = expo * (mj + 1.0) ** scheme.alpha * big_l ** (-scheme.lambda_u)
        w = (mj + 1.0) ** (-scheme.alpha) * big_l ** (-scheme.lambda_w) / expo
    return u, w


def _reference_weights_for_tree(scheme, tree, start_depth=0):
    """The former per-vertex evaluator of weights_for_tree (anchored at the
    start depth), kept as the reference for the shared per-depth one."""
    if scheme.kind == "explicit":
        u_d, w_d = _reference_depth_weights(scheme, start_depth + tree.height)
        return u_d[start_depth + tree.depth], w_d[start_depth + tree.depth]
    d = start_depth + tree.depth.astype(float)
    mj = scheme.m_star * d
    anchor = scheme.m_star * float(start_depth)
    expo = np.exp2(scheme.kappa * (mj - anchor))
    if scheme.kind == "power-critical":
        u = expo * (mj + 1.0) ** (-scheme.alpha_u)
        w = (mj + 1.0) ** (-scheme.alpha_w) / expo
    else:
        big_l = np.log(np.e + mj)
        u = expo * (mj + 1.0) ** scheme.alpha * big_l ** (-scheme.lambda_u)
        w = (mj + 1.0) ** (-scheme.alpha) * big_l ** (-scheme.lambda_w) / expo
    return u, w


@st.composite
def weight_schemes(draw, length):
    kind = draw(st.sampled_from(["power-critical", "log-critical",
                                 "explicit"]))
    if kind == "explicit":
        vals = st.floats(0.01, 100.0)
        return WeightScheme(kind, u=tuple(draw(st.lists(
            vals, min_size=length, max_size=length))), w=tuple(draw(
                st.lists(vals, min_size=length, max_size=length))))
    common = dict(kappa=draw(st.floats(0.0, 2.0)),
                  m_star=draw(st.integers(1, 3)))
    if kind == "power-critical":
        return WeightScheme(kind, alpha_u=draw(st.floats(-1.0, 1.0)),
                            alpha_w=draw(st.floats(-1.0, 1.0)), **common)
    return WeightScheme(kind, alpha=draw(st.floats(-1.0, 1.0)),
                        lambda_u=draw(st.floats(-1.0, 1.0)),
                        lambda_w=draw(st.floats(-1.0, 1.0)), **common)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), tree=trees(),
       start_depth=st.one_of(st.integers(0, 16), st.integers(0, 1024)))
def test_weights_match_per_vertex_reference(data, tree, start_depth):
    scheme = data.draw(weight_schemes(start_depth + tree.height + 1))
    u, w = weights_for_tree(scheme, tree, start_depth)
    ref_u, ref_w = _reference_weights_for_tree(scheme, tree, start_depth)
    assert np.array_equal(u, ref_u) and np.array_equal(w, ref_w)
    # unanchored, deep depths overflow: then _depth_weights must refuse
    depth = start_depth + tree.height
    with np.errstate(over="ignore"):
        ref = _reference_depth_weights(scheme, depth)
    if all(np.all(np.isfinite(a)) and np.all(a > 0) for a in ref):
        got = _depth_weights(scheme, 0, depth + 1)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))
    else:
        with pytest.raises(ValueError, match="infinite"), \
                np.errstate(over="ignore"):
            _depth_weights(scheme, 0, depth + 1)


@pytest.mark.parametrize("scheme,tree", [
    (WeightScheme("power-critical", kappa=1.0, m_star=1, alpha_u=0.125,
                  alpha_w=0.125), full_tree(2, 14)),
    (WeightScheme("log-critical", kappa=1.0, m_star=1, alpha=0.5,
                  lambda_u=0.125, lambda_w=0.125),
     generate_hset_tree(HProfile(theta=0.0, gamma=-1.0), 1, 127, seed=2)),
])
def test_weights_match_reference_on_experiment_trees(scheme, tree):
    for start_depth in (0, 16, 32, 64, 128, 256, 512, 1024):
        got = weights_for_tree(scheme, tree, start_depth)
        ref = _reference_weights_for_tree(scheme, tree, start_depth)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def test_gauged_weights_keep_kernel_and_stay_finite():
    s = WeightScheme("power-critical", kappa=1.0, m_star=1,
                     alpha_u=0.125, alpha_w=0.125)
    t = path_tree(5)
    j0 = 600
    u, w = weights_for_tree(s, t, start_depth=j0)
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(w))
    # kernel entry w(d_i) u(d_k) for absolute depths, computed analytically
    for i in (0, 2, 4):
        for k in (0, 1, 2):
            if k > i:
                continue
            di, dk = j0 + i, j0 + k
            expect = (2.0 ** (dk - di)
                      * (dk + 1.0) ** -0.125 * (di + 1.0) ** -0.125)
            assert w[i] * u[k] == pytest.approx(expect, rel=1e-12)


# -- norm oracle -------------------------------------------------------------


def test_norm_single_vertex():
    t = path_tree(1)
    est = norm_oracle(t, np.array([2.5]), np.array([0.4]), 2, 2)
    assert est.lower == pytest.approx(1.0)
    assert est.upper == pytest.approx(1.0)


def test_norm_path2_golden_ratio():
    t = path_tree(2)
    ones = np.ones(2)
    est = norm_oracle(t, ones, ones, 2, 2)
    assert est.lower == pytest.approx(GOLDEN, rel=1e-9)
    assert est.upper >= est.lower


def test_norm_path3_svd_value():
    t = path_tree(3)
    ones = np.ones(3)
    est = norm_oracle(t, ones, ones, 2, 2)
    assert est.lower == pytest.approx(PATH3_NORM, rel=1e-6)
    assert est.upper >= est.lower


def test_norm_matches_svd_on_random_trees():
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        t = random_parent(50, rng)
        u, w = rand_weights(50, rng)
        sigma = np.linalg.svd(dense_matrix(t, u, w), compute_uv=False)[0]
        est = norm_oracle(t, u, w, 2, 2, {"seed": seed})
        assert est.lower == pytest.approx(sigma, rel=1e-6)
        assert est.upper >= sigma * (1 - 1e-12)


def test_hoelder_bound_drops_zero_rows_and_keeps_nan():
    tree = path_tree(4)
    ones = np.ones(tree.n)
    u = np.array([0.0, 0.0, 2.0, 1.0])
    cum = apply(tree, u ** 2, ones, ones)
    assert _row_hoelder_upper(cum, ones, 2, 2) == pytest.approx(
        math.sqrt(4.0 + 5.0))
    u[1] = np.nan
    cum = apply(tree, u ** 2, ones, ones)
    assert math.isnan(_row_hoelder_upper(cum, ones, 2, 2))


def test_norm_witness_certifies_lower():
    rng = np.random.default_rng(3)
    t = random_parent(25, rng)
    u, w = rand_weights(25, rng)
    est = norm_oracle(t, u, w, 1.5, 3.0)
    assert est.lower <= est.upper
    mat = dense_matrix(t, u, w)
    num = np.sum(np.abs(mat @ est.witness) ** 3.0) ** (1 / 3.0)
    den = np.sum(np.abs(est.witness) ** 1.5) ** (1 / 1.5)
    assert num / den == pytest.approx(est.lower, rel=1e-9)


def test_norm_scaling_in_w_is_exact():
    rng = np.random.default_rng(4)
    t = random_parent(20, rng)
    u, w = rand_weights(20, rng)
    base = norm_oracle(t, u, w, 1.5, 2.5, {"seed": 7})
    scaled = norm_oracle(t, u, 3.7 * w, 1.5, 2.5, {"seed": 7})
    assert scaled.lower == pytest.approx(3.7 * base.lower, rel=1e-12)
    assert scaled.upper == pytest.approx(3.7 * base.upper, rel=1e-12)


def test_norm_ascent_beats_grid_search():
    t = path_tree(2)
    u = np.array([1.3, 0.4])
    w = np.array([0.9, 1.8])
    p, q = 1.5, 2.5
    ts = np.linspace(0, 1, 2001)
    grid = np.stack([ts, (1 - ts ** p) ** (1 / p)])
    vals = np.sum(np.abs(dense_matrix(t, u, w) @ grid) ** q, axis=0) ** (1 / q)
    est = norm_oracle(t, u, w, p, q)
    assert est.lower >= np.max(vals) - 1e-7
    assert est.lower <= est.upper


def test_norm_small_tree_upper_not_above_hoelder():
    rng = np.random.default_rng(6)
    t = random_parent(8, rng)
    u, w = rand_weights(8, rng)
    est = norm_oracle(t, u, w, 1.5, 3.0)
    # row-wise Hoelder on the dense kernel
    pp = 1.5 / 0.5
    hoelder = np.sum(np.sum(dense_matrix(t, u, w) ** pp, axis=1)
                     ** (3.0 / pp)) ** (1 / 3.0)
    assert est.upper <= hoelder + 1e-12


def test_norm_rejects_bad_inputs():
    t = path_tree(3)
    ones = np.ones(3)
    with pytest.raises(ValueError, match="1 < p <= q"):
        norm_oracle(t, ones, ones, 3, 2)
    with pytest.raises(ValueError, match="positive"):
        norm_oracle(t, ones * 0, ones, 2, 2)
    with pytest.raises(ValueError, match="cfg"):
        norm_oracle(t, ones, ones, 2, 2, {"bogus": 1})
    # the step cap is fixed; a caller cuts the ascent through poll
    with pytest.raises(ValueError, match="cfg"):
        norm_oracle(t, ones, ones, 2, 2, {"max_iter": 3})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_norm_rejects_non_finite_weights(bad):
    t = path_tree(3)
    ones = np.ones(3)
    odd = np.array([1.0, bad, 1.0])
    with pytest.raises(ValueError, match="finite"):
        norm_oracle(t, odd, ones, 2, 4)
    with pytest.raises(ValueError, match="finite"):
        norm_oracle(t, ones, odd, 2, 4)


def test_norm_deterministic_given_seed():
    rng = np.random.default_rng(8)
    t = random_parent(30, rng)
    u, w = rand_weights(30, rng)
    a = norm_oracle(t, u, w, 2.0, 4.0, {"seed": 42})
    b = norm_oracle(t, u, w, 2.0, 4.0, {"seed": 42})
    assert a.lower == b.lower and a.upper == b.upper


@settings(max_examples=60, deadline=None)
@given(tree=trees(max_n=40), pq=st.sampled_from([(2.0, 2.0), (2.0, 4.0),
                                                  (1.5, 3.0), (1.25, 1.75)]),
       restarts=st.integers(1, 4), max_iter=st.integers(1, 300),
       seed=st.integers(0, 2 ** 16))
def test_norm_oracle_matches_reference_exactly(tree, pq, restarts, max_iter,
                                               seed):
    rng = np.random.default_rng(seed)
    u, w = rand_weights(tree.n, rng)
    cfg = {"restarts": restarts, "seed": seed}
    got = norm_oracle(tree, u, w, *pq, cfg, poll=_poll_after(max_iter))
    ref = _ref_norm_oracle(tree, u, w, *pq, {**cfg, "max_iter": max_iter})
    assert got.lower == ref.lower and got.upper == ref.upper
    assert np.array_equal(got.witness, ref.witness)
    assert got.meta["iterations"] == ref.meta["iterations"]
    assert got.meta["restart_iterations"] == ref.meta["restart_iterations"]


def test_norm_oracle_poll_stops_with_certified_bounds():
    rng = np.random.default_rng(9)
    t = random_parent(40, rng)
    u, w = rand_weights(40, rng)
    full = norm_oracle(t, u, w, 2.0, 4.0, {"seed": 3})
    assert full.meta["iterations"] > 5
    calls = []

    def poll():
        calls.append(1)
        return "wall_clock" if len(calls) > 4 else None

    cut = norm_oracle(t, u, w, 2.0, 4.0, {"seed": 3}, poll=poll)
    assert len(calls) == 5
    assert cut.meta["iterations"] == 4
    # the same iterates as the uncapped run, stopped early: still a
    # feasible point, so the ratio it reaches is a lower bound
    ref = _ref_norm_oracle(t, u, w, 2.0, 4.0, {"seed": 3, "max_iter": 4})
    assert cut.lower == ref.lower and np.array_equal(cut.witness, ref.witness)
    assert cut.lower <= full.lower <= cut.upper
    assert cut.upper == full.upper
    mat = dense_matrix(t, u, w)
    ratio = (np.sum((mat @ cut.witness) ** 4.0) ** 0.25
             / np.sum(cut.witness ** 2.0) ** 0.5)
    assert ratio == pytest.approx(cut.lower, rel=1e-12)


def test_norm_oracle_poll_before_the_first_iteration():
    t = full_tree(2, 3)
    ones = np.ones(t.n)
    cut = norm_oracle(t, ones, ones, 2.0, 2.0, poll=lambda: "memory")
    assert cut.meta == {"iterations": 0, "seed": 0, "restarts": 16,
                        "restart_iterations": [0] * 16}
    assert 0.0 < cut.lower <= cut.upper


def test_norm_oracle_steps_only_the_live_restarts(monkeypatch):
    """A restart that has converged leaves the block: the ascent passes
    fewer vertex-columns to apply than restarts x iterations x |V|."""
    rng = np.random.default_rng(10)
    t, u, w = weighted_random_tree(60, rng)
    cols = []

    def counting_apply(tree, u, w, f):
        out = apply(tree, u, w, f)
        cols.append(out.size)
        return out

    monkeypatch.setattr("entropy_lab.summation.apply", counting_apply)
    polls = []
    est = norm_oracle(t, u, w, 2.0, 4.0, {"restarts": 6, "seed": 1},
                      poll=lambda: polls.append(1))
    steps = est.meta["iterations"]
    assert len(polls) == steps > 1
    # one apply per step, then the witness and the Hoelder bound
    assert len(cols) == steps + 2
    assert sum(cols[:-2]) < 6 * steps * t.n
    assert sum(cols[:-2]) == t.n * sum(est.meta["restart_iterations"])


def test_norm_oracle_restart_iterations():
    rng = np.random.default_rng(11)
    t, u, w = weighted_random_tree(40, rng)
    est = norm_oracle(t, u, w, 1.5, 3.0, {"restarts": 5, "seed": 2})
    stopped = est.meta["restart_iterations"]
    assert len(stopped) == 5 and all(isinstance(s, int) for s in stopped)
    assert max(stopped) == est.meta["iterations"] < 10_000
    assert min(stopped) < max(stopped)
    capped = norm_oracle(t, u, w, 1.5, 3.0, {"restarts": 5, "seed": 2},
                         poll=_poll_after(3))
    assert capped.meta["restart_iterations"] == [3] * 5


# -- Hardy bounds ------------------------------------------------------------

H_POWER = HProfile(theta=1.0)
SUPER = WeightScheme("power-critical", kappa=1.0, m_star=1,
                     alpha_u=0.125, alpha_w=0.125)
BOUNDARY = WeightScheme("power-critical", kappa=0.25, m_star=1,
                        alpha_u=0.15, alpha_w=0.35)


def test_hardy_supercritical_normalized_to_one():
    assert hardy_bound(SUPER, H_POWER, 2, 4, 1) == pytest.approx(1.0)


def test_hardy_supercritical_doubling_slope():
    b8 = hardy_bound(SUPER, H_POWER, 2, 4, 8)
    b16 = hardy_bound(SUPER, H_POWER, 2, 4, 16)
    assert b16 / b8 == pytest.approx(2.0 ** -0.25, rel=1e-12)
    assert b8 == pytest.approx(8.0 ** -0.25, rel=1e-12)


def test_hardy_boundary_ratio_settles():
    js = [2 ** e for e in range(9)]
    ratios = [hardy_bound(BOUNDARY, H_POWER, 2, 4, j) * j ** 0.25
              for j in js]
    assert all(np.isfinite(r) and r > 0 for r in ratios)
    assert max(ratios) / min(ratios) < 2.0
    tail = ratios[-3:]
    assert max(tail) / min(tail) < 1.05


def test_hardy_boundary_doubling_slope():
    b = hardy_bound(BOUNDARY, H_POWER, 2, 4, 64)
    b2 = hardy_bound(BOUNDARY, H_POWER, 2, 4, 128)
    assert b2 / b == pytest.approx(2.0 ** -0.25, rel=0.1)


def test_hardy_boundary_tail_divergence_rejected():
    bad = WeightScheme("power-critical", kappa=0.25, m_star=1,
                       alpha_u=0.25, alpha_w=0.25)  # alpha_w = (1-gamma)/q
    with pytest.raises(ValueError, match="critical"):
        hardy_bound(bad, H_POWER, 2, 4, 1)


@pytest.mark.parametrize("offset", [-1e-13, 0.0, 1e-13, 1e-11])
@pytest.mark.parametrize("alphas", [(0.15, 0.35), (0.125, 0.125)])
def test_hardy_takes_the_boundary_branch_the_report_names(offset, alphas):
    # kappa = theta/q up to the validator's tolerance is the boundary case;
    # alphas summing to 1/p fit it, alphas summing to 1/p - 1/q fit the
    # supercritical case, whose bound at j = 2 is 2^{-(alpha_u + alpha_w)}
    s = WeightScheme("power-critical", kappa=0.25 + offset, m_star=1,
                     alpha_u=alphas[0], alpha_w=alphas[1])
    rep = validate_critical(s, H_POWER, 2, 4)
    assert rep.boundary == (offset != 1e-11)
    if not rep.valid:
        assert rep.boundary == (sum(alphas) != 0.5)
        with pytest.raises(ValueError, match="critical"):
            hardy_bound(s, H_POWER, 2, 4, 2)
        return
    supercritical = 2.0 ** -sum(alphas)
    took_boundary = hardy_bound(s, H_POWER, 2, 4, 2) != pytest.approx(
        supercritical, rel=1e-9)
    assert took_boundary == rep.boundary


def test_hardy_rejects_bad_packs():
    off = WeightScheme("power-critical", kappa=1.0, m_star=1,
                       alpha_u=0.2, alpha_w=0.2)  # sum != 1/p - 1/q
    with pytest.raises(ValueError, match="critical"):
        hardy_bound(off, H_POWER, 2, 4, 1)
    sub = WeightScheme("power-critical", kappa=0.1, m_star=1,
                       alpha_u=0.125, alpha_w=0.125)  # kappa < theta/q
    with pytest.raises(ValueError, match="critical"):
        hardy_bound(sub, H_POWER, 2, 4, 1)
    with pytest.raises(ValueError, match="j must be >= 1"):
        hardy_bound(SUPER, H_POWER, 2, 4, 0)
    with pytest.raises(ValueError, match="1 < p <= q"):
        hardy_bound(SUPER, H_POWER, 4, 2, 1)


def test_hardy_log_scheme_explicit_form():
    h = HProfile(theta=0.0, gamma=0.0)
    s = WeightScheme("log-critical", kappa=1.0, m_star=1, alpha=0.0,
                     lambda_u=0.125, lambda_w=0.125)
    for j in (1, 4, 32):
        expect = math.log(math.e + j) ** -0.25
        assert hardy_bound(s, h, 2, 4, j) == pytest.approx(expect, rel=1e-12)
    vals = [hardy_bound(s, h, 2, 4, j) for j in (1, 2, 4, 8)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_hardy_dominates_oracle_on_binary_subtree():
    # subtree of the binary tree rooted at depth 4, gauged weights
    t = full_tree(2, 6)
    u, w = weights_for_tree(SUPER, t, start_depth=4)
    est = norm_oracle(t, u, w, 2, 4, {"restarts": 4}, poll=_poll_after(2000))
    bound = hardy_bound(SUPER, H_POWER, 2, 4, 4)
    assert est.lower <= 5.0 * bound
    assert est.lower > 0.05 * bound
