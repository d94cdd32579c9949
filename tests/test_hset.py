import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tree_cases import CsrReference

from entropy_lab.hset import (
    HProfile,
    TauFn,
    generate_hset_tree,
    h_level_target,
)
from entropy_lab.summation import WeightScheme, validate_critical
from entropy_lab import hset as hset_module
from entropy_lab import trees as trees_module


def h_eval(h, t):
    """The profile h(t) = t^theta |log t|^gamma tau(|log t|) at t in (0, 1],
    evaluated directly, with |log t| = log(e + 1/t)."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0) or np.any(t > 1):
        raise ValueError("h is evaluated on (0, 1] only")
    big_l = np.log(np.e + 1.0 / t)
    return t ** h.theta * big_l ** h.gamma * h.tau(big_l)


def check_hset_census(tree, h, m_star, seed, max_samples):
    """Empirical two-sided cardinality census of a generated tree.

    Samples vertices xi at depth j and offsets l, compares card V_l(xi)
    against the profile ratio h(2^{-m_* j}) / h(2^{-m_* (j + l)}), and
    reports c_hat = the worst two-sided constant observed.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x63656e73]))
    ref = CsrReference(tree)
    worst = 1.0
    checked = 0
    for _ in range(max_samples):
        j = int(rng.integers(0, tree.height))
        ls = tree.levels()[j].ids
        v = int(rng.integers(ls.start, ls.stop))
        l = int(rng.integers(1, tree.height - j + 1))
        card = ref.descendants_at_distance(v, l).size
        target = float(h_level_target(h, m_star, l, j))
        ratio = card / target
        worst = max(worst, ratio, 1.0 / ratio)
        checked += 1
    return {"c_hat": worst, "n_checked": checked}


def slowly_varying_check(tau, eps):
    """Grid check of the slow-variation bound
    t^{-eps} <~ tau(ty)/tau(y) <~ t^eps over t, y in [1, 1e6], with the
    constant 1 relaxed to 10; the worst observed constant is reported
    either way."""
    if eps <= 0:
        raise ValueError("eps must be > 0")
    ys = ts = np.geomspace(1.0, 1e6, 40)
    worst = 1.0
    for y in ys:
        ratios = np.asarray(tau(ts * y), dtype=float) / float(np.asarray(tau(y)))
        bound = ts ** eps
        worst = max(worst, float(np.max(ratios / bound)),
                    float(np.max(1.0 / (ratios * bound))))
    return {"pass": worst <= 10.0, "worst_ratio": worst}


def bfs_census(tree, v, l):
    """Independent descendant count: walk parent pointers upward."""
    count = 0
    dv = int(tree.depth[v])
    for w in range(tree.n):
        if int(tree.depth[w]) != dv + l:
            continue
        a = w
        for _ in range(l):
            a = int(tree.parent[a])
        if a == v:
            count += 1
    return count


def ref_generate_hset_tree(h, m_star, depth, seed, start_depth=0):
    """generate_hset_tree with its parent array grown as one Python list."""
    if depth == 0:
        return np.array([-1], dtype=np.int64)
    targets = h_level_target(h, m_star, np.arange(depth + 1), start_depth)
    ratios = targets[1:] / targets[:-1]
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x68736574]))
    parent = [-1]
    shares = np.array([1.0])
    level_first = 0
    for j in range(depth):
        rho = ratios[j]
        carry = float(rng.uniform(-0.5, 0.5))
        m_level = shares.size
        counts = np.empty(m_level, dtype=np.int64)
        for i in range(m_level):
            x = shares[i] * rho
            c = max(1, int(math.floor(x + carry + 0.5)))
            counts[i] = c
            carry += x - c
        new_shares = np.repeat((shares * rho) / counts, counts)
        parent.extend(np.repeat(np.arange(level_first, level_first + m_level),
                                counts).tolist())
        level_first += m_level
        shares = new_shares
    return np.asarray(parent, dtype=np.int64)


class TestHEval:
    def test_lipschitz_manifold(self):
        for k in (1, 2, 3):
            h = HProfile(theta=float(k))
            assert h_eval(h, 0.5) == pytest.approx(0.5 ** k, rel=1e-14)

    def test_koch(self):
        h = HProfile(theta=math.log(4) / math.log(3))
        assert h_eval(h, 1.0 / 3.0) == pytest.approx(0.25, rel=1e-12)

    def test_flat_profile(self):
        h = HProfile(theta=0.0, gamma=0.0)
        ts = np.linspace(1e-9, 1.0, 50)
        assert np.allclose(h_eval(h, ts), 1.0)

    def test_domain(self):
        h = HProfile(theta=1.0)
        with pytest.raises(ValueError):
            h_eval(h, 0.0)
        with pytest.raises(ValueError):
            h_eval(h, 1.5)

    def test_log_factor_no_singularity_at_one(self):
        h = HProfile(theta=0.0, gamma=-1.0)
        assert np.isfinite(h_eval(h, 1.0)) and h_eval(h, 1.0) > 0

    def test_catalog_enforced(self):
        with pytest.raises(ValueError):
            HProfile(theta=1.0, tau=(lambda x: x))
        with pytest.raises(ValueError):
            TauFn("cubic")


@pytest.mark.parametrize("h", [
    HProfile(theta=1.0),
    HProfile(theta=0.5, gamma=0.5, tau=TauFn("log-power", nu=2.0)),
    HProfile(theta=1.5, gamma=-0.5, tau=TauFn("iterated-log")),
    HProfile(theta=0.0, gamma=-1.0),
], ids=["const", "log-power", "iterated-log", "theta0"])
@pytest.mark.parametrize("m_star", [1, 2])
@pytest.mark.parametrize("start_depth", [0, 3, 10])
def test_level_target_is_the_profile_ratio(h, m_star, start_depth):
    # the log-space target against h(2^{-m j0}) / h(2^{-m (j0 + j)})
    js = np.arange(20)
    direct = (h_eval(h, 2.0 ** (-m_star * start_depth))
              / h_eval(h, 2.0 ** (-m_star * (start_depth + js))))
    got = h_level_target(h, m_star, js, start_depth)
    assert np.allclose(got, direct, rtol=1e-12, atol=0)


class TestGenerate:
    def test_binary_exact(self):
        h = HProfile(theta=1.0)
        t = generate_hset_tree(h, m_star=1, depth=6, seed=3)
        assert t.n == 127
        assert np.all(t.n_children()[: 63] == 2)
        for l in range(7):
            assert t.levels()[l].parent.size == 2 ** l
        # per-vertex: card V_l(xi) = 2^l exactly
        ref = CsrReference(t)
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = int(rng.integers(0, 63))
            l = int(rng.integers(1, 6 - t.depth[v] + 1))
            assert ref.descendants_at_distance(v, l).size == 2 ** l

    def test_depth_zero(self):
        t = generate_hset_tree(HProfile(theta=1.0), 1, 0, seed=0)
        assert t.n == 1

    def test_vertex_cap_fires_before_the_tree_is_built(self):
        h = HProfile(theta=1.0)
        with mock.patch.object(trees_module, "MAX_VERTICES", 127):
            assert generate_hset_tree(h, 1, 6, seed=0).n == 127
            # the level targets alone are past the cap
            with pytest.raises(ValueError, match="cap is 127"):
                generate_hset_tree(h, 1, 40, seed=0)
        # targets 1, 2, ..., 128 sum to 255, less 1 per level for rounding:
        # a cap of 250 passes that bound, and the running count catches
        # the last level before the tree is built
        with mock.patch.object(trees_module, "MAX_VERTICES", 250), \
                mock.patch.object(hset_module, "Tree",
                                  side_effect=AssertionError("built")):
            with pytest.raises(ValueError, match="at least 255 vertices, cap"):
                generate_hset_tree(h, 1, 7, seed=0)

    def test_log_profile_layer_sizes(self):
        # theta=0, gamma=-1: level sizes track ln(e+2^j)/ln(e+1) ~ m_* j
        h = HProfile(theta=0.0, gamma=-1.0)
        depth = 48
        t = generate_hset_tree(h, m_star=1, depth=depth, seed=11)
        targets = h_level_target(h, 1, np.arange(depth + 1))
        for j in range(depth + 1):
            assert abs(t.levels()[j].parent.size - targets[j]) <= 2.0
        # grows roughly linearly in depth
        assert 0.3 * depth <= t.levels()[depth].parent.size <= 2.0 * depth

    def test_census_two_sided(self):
        h = HProfile(theta=0.0, gamma=-1.0, c3=4.0)
        t = generate_hset_tree(h, m_star=1, depth=40, seed=5)
        rep = check_hset_census(t, h, 1, seed=7, max_samples=300)
        assert rep["n_checked"] == 300
        assert rep["c_hat"] <= h.c3

    def test_census_binary_is_tight(self):
        h = HProfile(theta=1.0)
        t = generate_hset_tree(h, 1, 8, seed=0)
        rep = check_hset_census(t, h, 1, seed=1, max_samples=100)
        assert rep["c_hat"] == pytest.approx(1.0, abs=1e-9)

    def test_determinism(self):
        h = HProfile(theta=0.0, gamma=-1.0)
        a = generate_hset_tree(h, 1, 30, seed=42)
        b = generate_hset_tree(h, 1, 30, seed=42)
        assert np.array_equal(a.parent, b.parent)

    @pytest.mark.parametrize("h, depth, seed, start_depth", [
        # the two critical packs' profiles at their default depths
        (HProfile(theta=1.0, c3=2.0), 11, 0, 0),
        (HProfile(theta=0.0, gamma=-1.0, c3=1.0), 127, 2, 0),
        # hardy_consistency's start depths, seeds and height
        *[(HProfile(theta=1.0), 10, idx, j)
          for idx, j in enumerate([16, 32, 64, 128, 256, 512])],
        (HProfile(theta=0.0, gamma=-1.0), 0, 0, 0),
    ])
    def test_matches_the_list_building_reference(self, h, depth, seed,
                                                 start_depth):
        got = generate_hset_tree(h, 1, depth, seed, start_depth).parent
        ref = ref_generate_hset_tree(h, 1, depth, seed, start_depth)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)

    def test_infeasible_profile(self):
        # gamma > 0 with theta = 0 makes the target layer shrink
        h = HProfile(theta=0.0, gamma=0.5)
        with pytest.raises(ValueError, match="infeasible"):
            generate_hset_tree(h, 1, 10, seed=0)

    def test_telescoping(self):
        h = HProfile(theta=0.0, gamma=-1.0)
        t = generate_hset_tree(h, 1, 24, seed=9)
        ref = CsrReference(t)
        # exhaustive census constant
        c_hat = 1.0
        for v in range(t.n):
            dv = int(t.depth[v])
            for l in range(1, t.height - dv + 1):
                card = ref.descendants_at_distance(v, l).size
                tgt = float(h_level_target(h, 1, l, dv))
                c_hat = max(c_hat, card / tgt, tgt / card)
        rng = np.random.default_rng(2)
        for _ in range(25):
            v = int(rng.integers(0, t.levels()[8].ids.stop))
            j = int(t.depth[v])
            j1 = int(rng.integers(j + 1, 20))
            j2 = int(rng.integers(j1 + 1, 25))
            mid = ref.descendants_at_distance(v, j1 - j)
            far = ref.descendants_at_distance(v, j2 - j).size
            per_mid = [ref.descendants_at_distance(int(m), j2 - j1).size
                       for m in mid]
            prod = mid.size * max(per_mid)
            assert far == sum(per_mid)  # exact tree identity
            assert prod / c_hat ** 2 <= far <= prod

    def test_sampled_vertex_census_matches_oracle(self):
        # the CSR walk the census helpers count with, against parent pointers
        h = HProfile(theta=0.0, gamma=-1.0)
        t = generate_hset_tree(h, 1, 14, seed=4)
        ref = CsrReference(t)
        rng = np.random.default_rng(1)
        for _ in range(10):
            v = int(rng.integers(0, t.n))
            l = int(rng.integers(0, t.height - t.depth[v] + 1))
            assert ref.descendants_at_distance(v, l).size == bfs_census(t, v, l)


class ScheduleReference:
    """Reference schedule built from separate parts: nu_bar_t =
    c3 2^{gamma_* 2^t} psi_*(2^t), with gamma_* and the function psi_*
    chosen by the profile's type, scanned for its first layers past n and
    2^n."""

    def __init__(self, h):
        self.c3 = h.c3
        if h.theta > 0:
            self.rule = "linear"
            self.gamma_star = h.theta

            def psi_star(lx):
                return -h.gamma * math.log2(lx) \
                    - math.log2(float(h.tau(lx))) if lx >= 1 else 0.0
        else:
            if h.gamma > 1:
                raise ValueError("theta = 0 needs gamma <= 1")
            self.rule = "doubly-exponential"
            self.gamma_star = 1.0 - h.gamma

            def psi_star(lx):
                return -h.tau.log2_at_log2_arg(lx)
        self.psi_star = psi_star

    def nu_bar_log2(self, t):
        return math.log2(self.c3) + self.gamma_star * 2.0 ** t \
            + float(self.psi_star(2.0 ** t))

    def first_t(self, threshold_log2):
        for t in range(65):
            if self.nu_bar_log2(t) >= threshold_log2:
                return t
        return "cap"


def _first_t_or_cap(scan, n):
    try:
        return scan(n)
    except ValueError as exc:
        assert "too slowly" in str(exc)
        return "cap"


class TestSchedule:
    def test_doubling_example(self):
        h = HProfile(theta=1.0, c3=1)
        assert h.t_star(16) == 2
        assert h.t_star_star(16) == 4

    def test_n2(self):
        h = HProfile(theta=1.0, c3=1)
        assert h.t_star(2) == 0
        assert h.t_star_star(2) == 1

    def test_two_t_star_tracks_log(self):
        h = HProfile(theta=1.0, c3=1)
        lo, hi = np.inf, 0.0
        for n in np.unique(np.logspace(math.log10(4), 6, 60).astype(int)):
            r = 2.0 ** h.t_star(int(n)) / math.log2(n)
            lo, hi = min(lo, r), max(hi, r)
        assert 0.5 <= lo and hi <= 2.0

    @given(st.floats(0.25, 4.0), st.integers(2, 10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_minimality(self, gs, n):
        h = HProfile(theta=gs, c3=1)
        t1, t2 = h.t_star(n), h.t_star_star(n)
        assert h.nu_bar_log2(t1) >= math.log2(n)
        if t1 > 0:
            assert h.nu_bar_log2(t1 - 1) < math.log2(n)
        assert h.nu_bar_log2(t2) >= n
        if t2 > 0:
            assert h.nu_bar_log2(t2 - 1) < n

    def test_scan_cap_fires(self):
        # nu_bar_t = c3 = 1 for every t: no layer reaches n
        with pytest.raises(ValueError, match="too slowly"):
            HProfile(theta=0.0, gamma=1.0, c3=1).t_star(4)

    def test_small_n_rejected(self):
        h = HProfile(theta=1.0, c3=1)
        with pytest.raises(ValueError):
            h.t_star(1)
        with pytest.raises(ValueError):
            h.t_star_star(1)

    def test_from_profile_power(self):
        h = HProfile(theta=1.0, c3=1.0)
        assert h.t_star(16) == 2 and h.t_star_star(16) == 4
        # linear windows: ceil(2^(t-1) / 3) <= j < ceil(2^t / 3)
        assert [h.depth_range(t, 3) for t in range(5)] == [
            (0, 1), (1, 1), (1, 2), (2, 3), (3, 6)]

    def test_from_profile_log(self):
        h = HProfile(theta=0.0, gamma=-1.0, c3=1.0)
        # nu_bar_log2(t) = 2 * 2^t
        assert h.t_star_star(10) == 3
        # doubly-exponential: ceil(2^(2^(t-1)) / 2) <= j < ceil(2^(2^t) / 2)
        assert [h.depth_range(t, 2) for t in range(5)] == [
            (0, 1), (1, 2), (2, 8), (8, 128), (128, 32768)]
        with pytest.raises(ValueError, match="gamma <= 1"):
            HProfile(theta=0.0, gamma=1.5).t_star(4)

    @pytest.mark.parametrize("tau", [TauFn("log-power", nu=2.0),
                                     TauFn("iterated-log")])
    def test_from_profile_log_nonconst_tau(self, tau):
        def log2_tau(lx):  # log2 tau(2^lx) through 2^lx itself
            inner = math.log(math.e + 2.0 ** lx)
            if tau.kind == "log-power":
                return tau.nu * math.log2(inner)
            return math.log2(math.log(math.e + inner))

        for lx in (1, 49, 51, 1000):
            got = tau.log2_at_log2_arg(lx)
            assert got == pytest.approx(log2_tau(lx), rel=1e-15, abs=0.0)
        h = HProfile(theta=0.0, gamma=-1.0, c3=1.0, tau=tau)
        for t in range(10):
            assert h.nu_bar_log2(t) == 2.0 * 2.0 ** t \
                - tau.log2_at_log2_arg(2.0 ** t)
        # past 2^1024 only the log-space form stays finite
        assert math.isfinite(tau.log2_at_log2_arg(5000))
        assert math.isfinite(h.nu_bar_log2(13))

    def test_matches_the_reference_schedule(self):
        taus = [TauFn("const"), TauFn("log-power", nu=2.0),
                TauFn("iterated-log")]
        ns = sorted({2, 3, 4, 5, 16, 17, 10 ** 6} | set(
            np.logspace(0.5, 6, 14).astype(int).tolist()))
        for theta in (0.0, 0.5, 1.0, 2.0):
            for gamma in (-1.0, 0.0, 0.5, 1.0):
                for c3 in (1.0, 4.0):
                    for tau in taus:
                        h = HProfile(theta=theta, gamma=gamma, tau=tau, c3=c3)
                        ref = ScheduleReference(h)
                        assert h.depth_range(3, 1) == {
                            "linear": (4, 8),
                            "doubly-exponential": (16, 256)}[ref.rule]
                        for t in range(12):
                            assert h.nu_bar_log2(t) == ref.nu_bar_log2(t)
                        for n in ns:
                            assert _first_t_or_cap(h.t_star, n) \
                                == ref.first_t(math.log2(n))
                            assert _first_t_or_cap(h.t_star_star, n) \
                                == ref.first_t(float(n))


class TestSlowlyVarying:
    def test_const_passes_all_eps(self):
        for eps in (1e-3, 0.1, 1.0):
            rep = slowly_varying_check(TauFn("const"), eps)
            assert rep["pass"] and rep["worst_ratio"] == pytest.approx(1.0)

    def test_log_passes(self):
        rep = slowly_varying_check(TauFn("log-power", nu=1.0), 0.1)
        assert rep["pass"]

    def test_linear_fails(self):
        rep = slowly_varying_check(lambda t: np.asarray(t, dtype=float), 0.1)
        assert not rep["pass"]
        assert rep["worst_ratio"] > 1e3

    def test_eps_positive(self):
        with pytest.raises(ValueError):
            slowly_varying_check(TauFn("const"), 0.0)


def _power(kappa, alpha_u, alpha_w):
    return WeightScheme("power-critical", kappa=kappa, alpha_u=alpha_u,
                        alpha_w=alpha_w)


def _log(kappa, lambda_u, lambda_w):
    return WeightScheme("log-critical", kappa=kappa, lambda_u=lambda_u,
                        lambda_w=lambda_w)


class TestValidateCritical:
    def test_power_supercritical(self):
        rep = validate_critical(_power(1.0, 0.125, 0.125), HProfile(theta=1.0),
                                2, 4)
        assert rep.label == "critical-power" and rep.valid
        assert not rep.boundary

    def test_log_critical(self):
        rep = validate_critical(_log(1.0, 0.125, 0.125),
                                HProfile(theta=0.0, gamma=-1.0), 2, 4)
        assert rep.label == "critical-log" and rep.valid
        assert not rep.boundary

    def test_boundary_kappa_strictness(self):
        # kappa = theta/q with alpha_w = (1-gamma)/q exactly: invalid
        p, q, h = 2.0, 4.0, HProfile(theta=1.0, gamma=0.0)
        aw = (1.0 - h.gamma) / q
        rep = validate_critical(_power(h.theta / q, 1.0 / p - aw, aw), h, p, q)
        assert rep.label == "invalid"

    def test_boundary_kappa_valid(self):
        p, q, h = 2.0, 4.0, HProfile(theta=1.0, gamma=0.0)
        aw = 0.3  # > (1-gamma)/q = 0.25
        rep = validate_critical(_power(h.theta / q, 1.0 / p - aw, aw), h, p, q)
        assert rep.label == "critical-power" and rep.boundary

    def test_non_critical_sum(self):
        rep = validate_critical(_power(1.0, 0.5, 0.125), HProfile(theta=1.0),
                                2, 4)
        assert rep.label == "non-critical"

    def test_kappa_below_theta_over_q(self):
        rep = validate_critical(_power(0.1, 0.125, 0.125), HProfile(theta=1.0),
                                2, 4)
        assert rep.label == "invalid"

    def test_p_above_q_invalid(self):
        rep = validate_critical(_power(1.0, 0.125, 0.125), HProfile(theta=1.0),
                                4, 2)
        assert rep.label == "invalid"

    def test_report_carries_conditions(self):
        rep = validate_critical(_log(1.0, 0.125, 0.125),
                                HProfile(theta=0.0, gamma=1.0), 2, 4)
        assert rep.label == "invalid"
        names = [c["name"] for c in rep.conditions if not c["holds"]]
        assert "gamma <= 0" in names

    @pytest.mark.parametrize("scheme, theta", [
        (_power(1.0, 0.125, 0.125), 0.0),
        (_log(1.0, 0.125, 0.125), 1.0),
        (WeightScheme("explicit", u=(1.0,), w=(1.0,)), 1.0),
        (WeightScheme("explicit", u=(1.0,), w=(1.0,)), 0.0)])
    def test_kind_must_match_theta(self, scheme, theta):
        rep = validate_critical(scheme, HProfile(theta=theta, gamma=-1.0),
                                2, 4)
        assert rep.label == "invalid" and not rep.valid
        names = [c["name"] for c in rep.conditions if not c["holds"]]
        assert names == ["kind matches theta"]
