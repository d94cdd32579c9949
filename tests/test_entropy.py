import math
import threading
import tracemalloc
from fractions import Fraction
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from tree_cases import trees

from entropy_lab import entropy
from entropy_lab.entropy import (
    EntropyEstimate,
    _farthest_point_run,
    _cover_radii,
    combine_scale,
    combine_sum,
    cover_profile,
    kuhn_value,
    matrix_norm_upper,
    net_upper,
    packing_profile,
    sample_lp_ball,
    sample_lp_sphere,
    schuett,
    volumetric_lower,
)
from entropy_lab.trees import full_tree

# Frozen oracle values, derived from the closed-form regime formulas before
# the implementation existed (see test scaffolding notes).
SQRT_LN2_OVER_16 = 0.20813865278942442      # (log(1+16/16)/16)^{1/1-1/2}
MIDDLE_16_4_1_2 = 0.6343181205897598        # (log(1+16/4)/4)^{1/2}
KUHN_N14_P2_Q4 = 0.5665787215741811         # (ln(2+2^14))^{-1/4}
VOL_RATIO_2_1_INF = 0.7071067811865476      # (vol B_1^2 / vol B_inf^2)^{1/2}
BRANCH3_16_20_1_2 = 0.17502304700636453     # middle(16) * 2^{(16-20)/16}


# -- schuett reference curve --------------------------------------------------


def test_schuett_frozen_middle_value():
    assert schuett(16, 16, 1, 2) == pytest.approx(SQRT_LN2_OVER_16, rel=1e-15)


def test_schuett_boundary_k_equals_log_nu():
    v = schuett(16, 4, 1, 2)
    assert v == pytest.approx(MIDDLE_16_4_1_2, rel=1e-15)
    # order-one across exponent choices, exactly 1 when p = q
    for p, q in [(1, 2), (1.5, 3), (1, math.inf), (2, 4)]:
        assert 0.3 <= schuett(16, 4, p, q) <= 1.0
    assert schuett(16, 4, 2, 2) == 1.0


def test_schuett_flat_branch_is_constant():
    ref = schuett(16, 4, 1, 2)
    for k in (1, 2, 3, 4):
        assert schuett(16, k, 1, 2) == ref


def test_schuett_seam_equalities_exact():
    # left seam: flat branch meets the middle branch at k = ceil(log2 nu)
    assert schuett(37, 6, 1.5, 4) == schuett(37, math.ceil(math.log2(37)), 1.5, 4)
    # right seam: exponential branch continues the middle branch at k = nu
    assert schuett(16, 17, 1, 2) / schuett(16, 16, 1, 2) == pytest.approx(
        2.0 ** (-1.0 / 16.0), rel=1e-15)
    assert schuett(16, 20, 1, 2) == pytest.approx(BRANCH3_16_20_1_2, rel=1e-15)


def test_schuett_p_equals_q():
    for k in range(1, 17):
        assert schuett(16, k, 2, 2) == 1.0
    assert schuett(16, 32, 3, 3) == pytest.approx(0.5, rel=1e-15)


def test_schuett_monotone_nonincreasing_in_k():
    vals = [schuett(37, k, 1.5, 3) for k in range(1, 81)]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_schuett_infinite_q_and_tiny_nu():
    assert schuett(8, 4, 2, math.inf) > 0
    assert schuett(4, 2, math.inf, math.inf) == 1.0
    assert schuett(1, 1, 1, 2) == pytest.approx(math.log(2.0) ** 0.5, rel=1e-15)
    assert schuett(1, 3, 1, 2) == pytest.approx(
        math.log(2.0) ** 0.5 * 0.25, rel=1e-15)


def test_schuett_rejects_bad_arguments():
    with pytest.raises(ValueError):
        schuett(16, 4, 3, 2)
    with pytest.raises(ValueError):
        schuett(0, 4, 1, 2)
    with pytest.raises(ValueError):
        schuett(16, 0, 1, 2)


# -- kuhn reference value -----------------------------------------------------


def test_kuhn_frozen_example():
    phi = lambda t: (math.log(2.0 + t)) ** 0.25
    assert kuhn_value(14, 2, 4, phi) == pytest.approx(KUHN_N14_P2_Q4, rel=1e-12)


def test_kuhn_unit_at_n_zero():
    phi = lambda t: (1.0 + math.log(t)) ** 0.25
    assert kuhn_value(0, 2, 4, phi) == 1.0


def test_kuhn_rejects_degenerate_and_bad_phi():
    phi = lambda t: (1.0 + math.log(t)) ** 0.25
    with pytest.raises(ValueError):
        kuhn_value(4, 2, 2, phi)
    with pytest.raises(ValueError):
        kuhn_value(4, 2, 4, lambda t: 1.0 / (1.0 + math.log(t)))
    with pytest.raises(ValueError):
        kuhn_value(4, 2, 4, lambda t: t ** 0.25)
    with pytest.raises(ValueError):
        kuhn_value(4, 2, 4, lambda t: math.log(t))


# -- volumetric lower bound ---------------------------------------------------


def test_volumetric_frozen_cross_norm_example():
    est = volumetric_lower(2, 1, math.inf, 1)
    assert est.value == pytest.approx(VOL_RATIO_2_1_INF, rel=1e-12)
    assert est.kind == "certified_lower" and est.k == 1 and est.seed is None


def test_volumetric_identity_cases():
    assert volumetric_lower(5, 2, 2, 1).value == 1.0
    for k in range(1, 10):
        assert volumetric_lower(4, 3, 3, k).value == pytest.approx(
            2.0 ** (-(k - 1) / 4.0), rel=1e-14)


def test_volumetric_diagonal_and_errors():
    base = volumetric_lower(2, 1.5, 3, 4).value
    est = volumetric_lower(2, 1.5, 3, 4, diag=[2.0, 2.0])
    assert est.value == pytest.approx(2.0 * base, rel=1e-12)
    assert volumetric_lower(3, 2, 2, 2, diag=[1.0, 0.0, 2.0]).value == 0.0
    with pytest.raises(ValueError):
        volumetric_lower(3, 2, 2, 2, diag=[1.0, 2.0])
    with pytest.raises(ValueError):
        volumetric_lower(3, 3, 2, 2)


def test_volumetric_homogeneity_and_monotonicity():
    d = [1.2, 0.4, 0.9]
    lam = 3.7
    a = volumetric_lower(3, 1.5, 4, 5, diag=[lam * x for x in d]).value
    b = volumetric_lower(3, 1.5, 4, 5, diag=d).value
    assert a == pytest.approx(lam * b, rel=1e-12)
    vals = [volumetric_lower(3, 1.5, 4, k, diag=d).value for k in range(1, 20)]
    assert all(y <= x for x, y in zip(vals, vals[1:]))


def _log_ball_volume(n, r):
    """log vol(B_r^n) from exact integers: 2^n / n! at r = 1,
    pi^{n/2} / Gamma(n/2 + 1) at r = 2, with Gamma(n/2 + 1) = (n/2)! for
    even n and n!! sqrt(pi) / 2^{(n+1)/2} for odd n, and 2^n at r = inf."""
    if r == 1:
        return math.log(2 ** n) - math.log(math.factorial(n))
    if math.isinf(r):
        return math.log(2 ** n)
    if n % 2 == 0:
        return n // 2 * math.log(math.pi) - math.log(math.factorial(n // 2))
    double_factorial = math.prod(range(n, 0, -2))
    return ((n - 1) // 2 * math.log(math.pi) + math.log(2 ** ((n + 1) // 2))
            - math.log(double_factorial))


def test_volumetric_matches_exact_ball_volumes():
    # (vol B_p^n / vol B_q^n)^{1/n} 2^{-(k-1)/n}, with no log-gamma routine
    # on the reference side
    for p, q in ((1, 2), (1, math.inf), (2, math.inf)):
        for n in range(1, 301):
            log_ratio = (_log_ball_volume(n, p) - _log_ball_volume(n, q)) / n
            for k in (1, 2, 9, n + 1):
                want = math.exp(log_ratio - (k - 1) / n * math.log(2.0))
                got = volumetric_lower(n, p, q, k).value
                assert got == pytest.approx(want, rel=1e-13), (p, q, n, k)


# -- samplers -----------------------------------------------------------------


def test_sphere_samples_have_unit_norm():
    x = sample_lp_sphere(5, 1.5, 256, seed=3)
    norms = np.sum(np.abs(x) ** 1.5, axis=1) ** (1 / 1.5)
    assert np.allclose(norms, 1.0, rtol=1e-9)
    y = sample_lp_sphere(4, math.inf, 256, seed=3)
    assert np.allclose(np.max(np.abs(y), axis=1), 1.0, rtol=1e-9)
    z = sample_lp_sphere(6, 2, 256, seed=3)
    assert np.allclose(np.linalg.norm(z, axis=1), 1.0, rtol=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_l2_sphere_samples_follow_the_uniform_law(seed):
    # uniform on the circle, x0 = cos(theta): E x0 = 0 with sd 1/sqrt(2),
    # E x0^4 = 3/8 with sd sqrt(35/128 - 9/64) = 0.364
    n = 100_000
    x0 = sample_lp_sphere(2, 2, n, seed=seed)[:, 0]
    z_mean = x0.mean() * math.sqrt(n / 0.5)
    z_fourth = (np.mean(x0 ** 4) - 3 / 8) * math.sqrt(n / (17 / 128))
    assert abs(z_mean) < 4, z_mean
    assert abs(z_fourth) < 4, z_fourth


def test_ball_samples_fill_the_ball():
    x = sample_lp_ball(3, 2, 4096, seed=5)
    norms = np.linalg.norm(x, axis=1)
    assert np.all(norms <= 1.0 + 1e-9)
    assert norms.max() > 0.95 and norms.min() < 0.3


def _reference_sphere(nu, p, n_samples, seed, tag=0x6c7073):
    """One-shot sampler: every step builds a fresh sample-sized array."""
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence([seed, tag])))
    if math.isinf(p):
        x = rng.uniform(-1.0, 1.0, (n_samples, nu))
        norms = np.max(np.abs(x), axis=1)
    else:
        mags = rng.gamma(1.0 / p, 1.0, (n_samples, nu)) ** (1.0 / p)
        signs = rng.integers(0, 2, (n_samples, nu)) * 2 - 1
        x = mags * signs
        norms = np.sum(np.abs(x) ** p, axis=1) ** (1.0 / p)
    norms[norms == 0] = 1.0
    return x / norms[:, None]


@settings(max_examples=60, deadline=None)
@given(nu=st.integers(1, 40), n_samples=st.integers(0, 60),
       p=st.sampled_from([0.7, 1.0, 1.5, 2, 2.0, 4.0, math.inf]),
       seed=st.integers(0, 2 ** 32 - 1),
       block_bytes=st.integers(1, 4096))
def test_sphere_sampler_matches_one_shot_reference(nu, n_samples, p, seed,
                                                   block_bytes):
    ref = _reference_sphere(nu, p, n_samples, seed)
    with mock.patch.object(entropy, "_BLOCK_BYTES", block_bytes):
        got = sample_lp_sphere(nu, p, n_samples, seed)
    assert np.array_equal(got, ref)


@settings(max_examples=40, deadline=None)
@given(nu=st.integers(1, 7), rows=st.integers(1, 30),
       cuts=st.lists(st.integers(1, 29), max_size=6),
       shape=st.sampled_from([0.25, 1 / 1.5, 1.0, 1 / 0.7]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_row_blocks_draw_the_numbers_of_one_call(nu, rows, cuts, shape,
                                                 seed):
    # the sphere sampler draws every magnitude in one call, then the signs
    # one row block per call: a numpy whose numbers depended on that split
    # would move every sample silently
    edges = sorted({0, rows} | {c for c in cuts if c < rows})
    blocks = list(zip(edges, edges[1:]))

    def rng():
        return np.random.Generator(np.random.Philox(
            np.random.SeedSequence([seed, 0x6c7073])))

    gen = rng()
    mags, signs = (gen.standard_gamma(shape, (rows, nu)),
                   gen.integers(0, 2, (rows, nu)))
    gen, got = rng(), np.empty((rows, nu))
    gen.standard_gamma(shape, out=got)
    got_signs = np.concatenate([gen.integers(0, 2, (b - a, nu))
                                for a, b in blocks])
    assert np.array_equal(got, mags) and np.array_equal(got_signs, signs)


def test_a_failed_draw_reaches_the_caller():
    # a draw's error must surface in the caller, not leave it waiting,
    # and no thread may outlive the call (p = -1 asks for a gamma shape
    # of -1)
    threads, errors = threading.active_count(), []

    def call():
        try:
            sample_lp_sphere(3, -1.0, 10, seed=0)
        except ValueError as exc:
            errors.append(exc)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive() and len(errors) == 1
    assert threading.active_count() == threads


@pytest.mark.parametrize("p", [2, 2.0])
@pytest.mark.parametrize("seed", [0, 7, 2 ** 32 - 1])
def test_l2_sphere_is_the_gamma_draw(p, seed):
    # p = 2 takes the generalized-Gaussian draw of every other finite p:
    # gamma(1/2) magnitudes, one sign per coordinate, then the l_2 norm
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence([seed, 0x6c7073])))
    mags = rng.standard_gamma(0.5, (300, 5)) ** 0.5
    x = mags * (rng.integers(0, 2, (300, 5)) * 2 - 1)
    want = x / np.sum(np.abs(x) ** 2, axis=1)[:, None] ** 0.5
    assert np.array_equal(sample_lp_sphere(5, p, 300, seed), want)


def test_sampler_determinism():
    a = sample_lp_sphere(4, 2, 128, seed=9)
    b = sample_lp_sphere(4, 2, 128, seed=9)
    c = sample_lp_sphere(4, 2, 128, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampled_images_hold_one_sample_sized_array():
    # a square operator maps the sample in place: besides the 16 MiB
    # sample, the sampler's and the map's block scratch (a one-shot
    # product would hold a second 16 MiB image)
    tracemalloc.start()
    try:
        _, points = entropy._sampled_images(np.eye(32), 1.0, [1], 65536, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - points.nbytes <= 6 * entropy._BLOCK_BYTES


@pytest.mark.parametrize("samples", [3, 7, 23])
@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_square_images_are_mapped_block_by_block(samples, p):
    # 7 rows a block: fewer samples than a block, one block, and blocks
    # with a partial last one; the identity and a doubled signed
    # permutation map exactly, so every row must be mapped exactly once
    nu = 4
    ball = sample_lp_ball(nu, p, samples, seed=6)
    perm = 2.0 * np.eye(nu)[[2, 0, 3, 1]] * [1.0, -1.0, 1.0, -1.0]
    with mock.patch.object(entropy, "_BLOCK_BYTES", 8 * nu * 7):
        _, same = entropy._sampled_images(np.eye(nu), p, [1], samples, 6)
        _, moved = entropy._sampled_images(perm, p, [1], samples, 6)
    assert np.array_equal(same, ball)
    assert np.array_equal(moved, ball @ perm.T)


def test_a_non_square_operator_gets_the_one_shot_product():
    a = np.random.default_rng(3).standard_normal((5, 3))
    _, images = entropy._sampled_images(a, 1.5, [1, 2], 100, 8)
    assert np.array_equal(images, sample_lp_ball(3, 1.5, 100, seed=8) @ a.T)
    _, images = entropy._sampled_images(a.T, 1.5, [1, 2], 100, 8)
    assert np.array_equal(images, sample_lp_ball(5, 1.5, 100, seed=8) @ a)


def test_non_square_images_are_mapped_block_by_block():
    # rows of the wider side a block, so the product's temporary is at
    # most one block; 3 rows a block with a lone last row, through both a
    # wide and a tall operator; a square operator still maps in place
    rng = np.random.default_rng(12)
    samples = 100
    for a in (rng.standard_normal((40, 300)), rng.standard_normal((300, 40))):
        ball = sample_lp_ball(a.shape[1], 1.5, samples, seed=9)
        with mock.patch.object(entropy, "_BLOCK_BYTES", 8 * 300 * 3):
            _, images = entropy._sampled_images(a, 1.5, [1], samples, 9)
        want = np.concatenate([ball[s:s + 3] @ a.T
                               for s in range(0, samples, 3)])
        assert np.array_equal(images, want)
    drawn = []

    def ball_spy(*args):
        drawn.append(sample_lp_ball(*args))
        return drawn[-1]

    with mock.patch.object(entropy, "sample_lp_ball", ball_spy):
        _, images = entropy._sampled_images(rng.standard_normal((6, 6)),
                                            1.5, [1], samples, 9)
    assert images is drawn[0]


# -- farthest-point engine ----------------------------------------------------


def _reference_lq_dist(points, center, q):
    """One-shot distance pass: pool-sized temporaries, no blocks."""
    diff = np.abs(points - center)
    if math.isinf(q):
        return np.max(diff, axis=1)
    if q == 2.0:
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return np.sum(diff ** q, axis=1) ** (1.0 / q)


@pytest.mark.parametrize("m", [3, 64, 9000])
def test_q4_distances_are_the_general_kernel(m):
    # the general finite-q kernel's arithmetic at q = 4: the fourth power
    # through pow, the row sums through np.sum, then the fourth root
    rng = np.random.default_rng(m)
    points = rng.standard_normal((50, m)) * rng.uniform(0.1, 10.0, m)
    for c in (0, 17, 49):
        lq_pass = entropy._LqPasses(points, 4.0)
        lq_pass(points[c], c)
        want = np.sum(np.abs(points - points[c]) ** 4, axis=1) ** 0.25
        assert np.array_equal(lq_pass.dist, want)


def _reference_farthest_point_run(points, q, n_select, start):
    dist = _reference_lq_dist(points, points[start], q)
    selected = [start]
    radii = []
    for _ in range(1, n_select):
        c = int(np.argmax(dist))
        radii.append(float(dist[c]))
        selected.append(c)
        np.minimum(dist, _reference_lq_dist(points, points[c], q), out=dist)
    return selected, radii, dist


def _assert_matches_reference(points, q, n_select, start):
    """Checks the traversal and a centroid pass; returns the counts."""
    counts = {}
    sel, radii = _farthest_point_run(points, q, n_select, start,
                                     counts=counts)
    ref_sel, ref_radii, _ = _reference_farthest_point_run(
        points, q, n_select, start)
    # NaN rows give NaN distances, which compare equal here
    assert sel == ref_sel
    assert np.array_equal(radii, ref_radii, equal_nan=True)
    centroid = points.mean(axis=0)
    lq_pass = entropy._LqPasses(points, q)
    lq_pass(centroid)
    assert np.array_equal(lq_pass.dist,
                          _reference_lq_dist(points, centroid, q),
                          equal_nan=True)
    return counts


# widths past 8192 columns are where einsum rounds a lone row differently
# from the rows of a taller operand; a warp (scale, offset, one non-finite
# entry) is where the q = 2 Gram filter's error margin must hold: a common
# offset or scale leaves a small separation under large norms, 1e153 puts
# most squared norms past the filter's range, and NaN / inf rows must take
# the exact path


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 40), m=st.sampled_from([1, 3, 32, 9000]),
       distinct=st.integers(1, 40), grid=st.booleans(),
       q=st.sampled_from([1.5, 2.0, 3.0, 4.0, math.inf]),
       block_rows=st.integers(0, 7),
       warp=st.sampled_from([(1.0, 0.0, None), (1e150, 0.0, None),
                             (1e-150, 0.0, None), (1e153, 0.0, None),
                             (1.0, 1e3, None), (1.0, 0.0, math.nan),
                             (1.0, 0.0, math.inf), (1.0, 0.0, -math.inf)]),
       seed=st.integers(0, 2 ** 32 - 1))
# rows that tie in distance, where the lowest index must win
@example(n=5, m=1, distinct=16, grid=True, q=1.5, block_rows=0,
         warp=(1.0, 0.0, None), seed=0)
# q = 2 Gram blocks of B = _BLOCK_BYTES // (8 n) pool rows: B = 1, B = 2
# (the speculated rows miss), and B >= n (one block holds the whole
# Gram); a NaN or inf row ranks first after the start, so it becomes a
# center, which must take the exact path
@example(n=40, m=32, distinct=40, grid=False, q=2.0, block_rows=0,
         warp=(1.0, 0.0, None), seed=1)
@example(n=40, m=32, distinct=40, grid=False, q=2.0, block_rows=3,
         warp=(1.0, 0.0, None), seed=2)
@example(n=40, m=32, distinct=40, grid=False, q=2.0, block_rows=3,
         warp=(1.0, 0.0, math.nan), seed=3)
@example(n=12, m=32, distinct=12, grid=False, q=2.0, block_rows=7,
         warp=(1.0, 0.0, None), seed=4)
@example(n=12, m=32, distinct=12, grid=False, q=2.0, block_rows=7,
         warp=(1.0, 0.0, math.inf), seed=5)
def test_blocked_traversal_matches_one_shot_reference(n, m, distinct, grid,
                                                      q, block_rows,
                                                      warp, seed):
    # block_rows = 0 makes the block narrower than one row; rows drawn
    # from a few distinct points make ties that must break to the lowest
    # index, and points on a small integer grid make distinct pairs of
    # points tie in distance too
    rng = np.random.default_rng(seed)
    if grid:
        distinct_points = rng.integers(-2, 3, (distinct, m)).astype(float)
    else:
        distinct_points = rng.standard_normal((distinct, m))
    points = distinct_points[rng.integers(0, distinct, n)]
    scale, offset, bad = warp
    points = points * scale + offset
    if bad is not None:
        points[rng.integers(0, n), rng.integers(0, m)] = bad
    block_bytes = max(1, 8 * m * block_rows)
    n_select = min(n, 12)
    with mock.patch.object(entropy, "_BLOCK_BYTES", block_bytes), \
            np.errstate(invalid="ignore", over="ignore"):
        counts = _assert_matches_reference(points, q, n_select,
                                           int(seed % n))
        gram_rows = min(entropy._block_rows(n), n)
    # one product per center at most, and one in all if a block is the pool
    assert counts["gram_products"] <= (
        0 if q != 2.0 else 1 if gram_rows == n else n_select)


def _wrong_skips(lq_pass, points, c, dist, exact):
    """Rows the q = 2 filter skips for center c although their exact
    distance is below `dist`, and whether each row was skipped."""
    lq_pass.dist[:] = dist
    lq_pass._rekey(slice(None), dist.copy())
    live = lq_pass._candidates(points[c], c)
    skipped = np.ones(dist.size, dtype=bool)
    skipped[slice(None) if live is None else live] = False
    return np.flatnonzero(skipped & (exact < dist)), skipped


def test_gram_filter_bound_is_below_the_exact_distance():
    # a skipped row must have exact >= dist; the adversarial dist is the
    # exact distance and one ulp either side of it.  Large norms with tiny
    # separations and near-duplicates put the most rounding into the Gram
    # form; on well-separated rows (big = 0) the test must stay tight, and
    # the same filter without its rounding margin must skip wrongly
    rng = np.random.default_rng(6)
    margin_free_wrong = 0
    for m in (1, 3, 32, 9000):
        base = rng.standard_normal(m)
        for big, sep in ((0.0, 1.0), (1e3, 1e-12), (1e8, 1e-8),
                         (1e150, 1e138), (1e-150, 1e-163), (1.0, 0.0)):
            points = big * base + sep * rng.standard_normal((40, m))
            # near-duplicates: one ulp apart in one coordinate
            points[20:30] = points[:10]
            points[20:30, 0] = np.nextafter(points[20:30, 0], np.inf)
            lq_pass = entropy._LqPasses(points, 2.0)
            margin_free = entropy._LqPasses(points, 2.0)
            margin_free.coef = margin_free.pad = 0.0
            margin_free.base = np.einsum("ij,ij->i", points, points)
            for c in (0, 5, 20, 39):
                exact = _reference_lq_dist(points, points[c], 2.0)
                for dist in (np.nextafter(exact, -np.inf), exact,
                             np.nextafter(exact, np.inf)):
                    wrong, _ = _wrong_skips(lq_pass, points, c, dist, exact)
                    assert wrong.size == 0, (m, big, c, wrong)
                    margin_free_wrong += _wrong_skips(
                        margin_free, points, c, dist, exact)[0].size
                if big == 0.0:
                    far = exact > 1e-6  # no near-duplicate of c
                    _, skipped = _wrong_skips(lq_pass, points, c,
                                              exact * (1 - 1e-9), exact)
                    assert np.all(skipped[far])
    assert margin_free_wrong > 0
    # a row whose squared norm is past the filter's range stays live
    points = rng.standard_normal((40, 3))
    points[7] = 2e153
    exact = _reference_lq_dist(points, points[0], 2.0)
    wrong, skipped = _wrong_skips(entropy._LqPasses(points, 2.0), points, 0,
                                  np.nextafter(exact, np.inf), exact)
    assert wrong.size == 0 and not skipped[7]


@pytest.mark.parametrize("q", [2.0, 4.0])
def test_traversal_rows_wider_than_a_block(q):
    rng = np.random.default_rng(3)
    width = entropy._BLOCK_BYTES // 8 + 1000
    points = rng.standard_normal((5, width))
    assert entropy._block_rows(width) == 1
    _assert_matches_reference(points, q, 5, 0)


@pytest.mark.parametrize("q", [2.0, 3.0, 4.0, math.inf])
def test_traversal_threads_follow_the_callers_errstate(q):
    # two blocks of 2048 rows; the start row holds an inf, so its x - c is
    # inf - inf in the second block
    points = np.random.default_rng(5).standard_normal((4000, 64))
    points[3500, 0] = np.inf
    assert entropy._block_rows(64) == 2048
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("error")
        _farthest_point_run(points, q, 3, 3500)
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        _farthest_point_run(points, q, 3, 3500)


def test_traversal_on_many_blocks_and_threads():
    # several default-size blocks per CPU plus a ragged tail block
    rng = np.random.default_rng(4)
    points = rng.standard_normal((1000, 1500))
    assert 1000 % entropy._block_rows(1500) != 0
    for q in (1.5, 2.0, 4.0, math.inf):
        _assert_matches_reference(points, q, 6, 7)


def test_traversal_poll_stops_at_a_cap():
    # q = 2 runs the Gram-filtered pass, q = 4 the plain one
    rng = np.random.default_rng(5)
    points = rng.standard_normal((300, 4))
    for q in (2.0, 4.0):
        calls = []

        def poll():
            calls.append(1)
            return "wall_clock" if len(calls) > 5 else None

        sel, radii = _farthest_point_run(points, q, 40, 0, poll=poll)
        full_sel, full_radii = _farthest_point_run(points, q, 40, 0)
        assert len(calls) == 6
        assert sel == full_sel[:6] and radii == full_radii[:5]


def test_farthest_point_radii_nonincreasing():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((500, 3))
    _, radii = _farthest_point_run(pts, 2.0, 40, start=0)
    assert all(b <= a + 1e-12 for a, b in zip(radii, radii[1:]))


def test_cover_radius_dominates_packing_half_separation():
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((500, 3))
    for n_centers in (4, 16, 64):
        k = n_centers.bit_length()  # 2^{k-1} = n_centers
        cov = _cover_radii(pts, 2.0, [k])[k]
        _, radii = _farthest_point_run(pts, 2.0, n_centers + 1, start=0)
        assert cov >= radii[-1] / 2.0 - 1e-12


def _reference_greedy_cover_radius(points, q, n_centers):
    """The former separate traversal behind net_upper: run n_centers
    selections from the point nearest the centroid, return max(dist)."""
    if n_centers >= points.shape[0]:
        return 0.0
    start = int(np.argmin(_reference_lq_dist(points, points.mean(axis=0), q)))
    _, _, dist = _reference_farthest_point_run(points, q, n_centers, start)
    return float(np.max(dist))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 80), m=st.integers(1, 5), distinct=st.integers(1, 80),
       q=st.sampled_from([1.5, 2.0, 4.0, math.inf]),
       ks=st.lists(st.integers(1, 8), min_size=1, max_size=4, unique=True),
       seed=st.integers(0, 2 ** 32 - 1))
def test_cover_radii_match_separate_traversals(n, m, distinct, q, ks, seed):
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((distinct, m))[rng.integers(0, distinct, n)]
    ks = sorted(ks)
    radii = _cover_radii(points, q, ks)
    assert list(radii) == ks
    for k in ks:
        assert radii[k] == _reference_greedy_cover_radius(points, q,
                                                          2 ** (k - 1))


# -- basis rows in closed form -------------------------------------------------


def _basis_weights(tree, spread, seed):
    """Signed u, w with |u_v| growing and |w_v| shrinking by `spread` per
    level, as in the critical packs: images stay bounded while |u|^q and
    the subtree sums W span many binades, so a margin scaled by the wrong
    term shows."""
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], (2, tree.n))
    scale = spread ** tree.depth.astype(float)
    return (signs[0] * rng.uniform(0.1, 2.0, tree.n) * scale,
            signs[1] * rng.uniform(0.1, 2.0, tree.n) / scale)


def _exact_images(tree, u, w, vs):
    """S e_v exactly, as {vertex: Fraction} over the subtree of v, found by
    walking each vertex's root path."""
    out = []
    for v in vs:
        image = {}
        for x in range(tree.n):
            y = x
            while y > v:
                y = int(tree.parent[y])
            if y == v:
                image[x] = Fraction(float(u[v])) * Fraction(float(w[x]))
        out.append(image)
    return out


def _qth_power_sum(a, b, q):
    """(lo, hi) Fractions around sum |a_x - b_x|^q over dicts a, b; q is
    a whole number or 1.5, whose |v| sqrt(|v|) is bracketed to 2^-100."""
    lo = hi = Fraction(0)
    for x in a.keys() | b.keys():
        v = abs(a.get(x, 0) - b.get(x, 0))
        if q == 1.5:
            n, d = v.numerator, v.denominator
            root = math.isqrt(n * d << 200)
            lo += v * Fraction(root, d << 100)
            hi += v * Fraction(root + 1, d << 100)
        else:
            lo += v ** int(q)
            hi = lo
    return lo, hi


def _assert_brackets(r, lo, hi, q, rtol=1e-12):
    """0 <= r <= d and r >= d (1 - rtol), for d^q in [lo, hi]."""
    a, b = Fraction(q).as_integer_ratio()
    r = Fraction(r)
    assert r >= 0 and r ** a <= lo ** b
    assert r ** a >= (1 - Fraction(rtol)) ** a * hi ** b


@settings(max_examples=40, deadline=None)
@given(tree=trees(max_n=20), q=st.sampled_from([1.5, 2.0, 3.0, 4.0]),
       spread=st.sampled_from([1.0, 10.0, 1e3, "2^300"]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(tree=full_tree(2, 3), q=4.0, spread="2^300", seed=0)
def test_closed_form_distances_bracket_the_exact_ones(tree, q, spread, seed):
    # every vertex, and some twice; each pair's rounded closed form must
    # lie at or below the exact distance of the exact images, and within
    # 1e-12 of it.  "2^300" spreads |u| up to 2^300 and |w| down to 2^-300
    # over the tree's height, as on the deep log packs: |u_v|^q and
    # |w_x|^q leave the float range unless the rows are scaled
    if spread == "2^300":
        spread = 2.0 ** (300 / max(tree.height, 1))
    u, w = _basis_weights(tree, spread, seed)
    vs = np.concatenate([np.arange(tree.n),
                         np.random.default_rng(seed).integers(0, tree.n, 3)])
    rows = entropy._BasisRows(tree, u, w, vs, q)
    images = _exact_images(tree, u, w, vs)
    for c in range(vs.size):
        got = rows.lower(c)
        for r in range(vs.size):
            _assert_brackets(got[r], *_qth_power_sum(images[r], images[c], q),
                             q)


@settings(max_examples=30, deadline=None)
@given(tree=trees(max_n=16), n_dense=st.integers(0, 25),
       q=st.sampled_from([1.5, 2.0, 3.0, 4.0]),
       spread=st.sampled_from([1.0, 10.0, 1e3]),
       block_rows=st.integers(0, 7), dense_exp=st.integers(-3, 3),
       seed=st.integers(0, 2 ** 32 - 1))
@example(tree=full_tree(2, 3), n_dense=6, q=4.0, spread=1.0, block_rows=1,
         dense_exp=3, seed=0)
def test_mixed_pool_traversal_matches_the_exact_reference(
        tree, n_dense, q, spread, block_rows, dense_exp, seed):
    # basis rows in closed form plus dense rows, against a brute-force
    # traversal over the exact pool: every radius at or below the exact
    # distance of its center from the earlier ones and within 1e-12 of
    # it, and the same pick wherever the exact leader is not within
    # 2e-12 of the runner-up (large dense rows make one of them the first
    # pick in the example, which starts from a basis row)
    rng = np.random.default_rng(seed)
    u, w = _basis_weights(tree, spread, seed)
    vs = rng.permutation(tree.n)[:int(rng.integers(1, tree.n + 1))]
    dense = rng.standard_normal((n_dense, tree.n)) * 10.0 ** dense_exp
    pool = _exact_images(tree, u, w, vs) + [
        {x: Fraction(float(v)) for x, v in enumerate(row)} for row in dense]
    n_select, start = min(len(pool), 12), int(seed % len(pool))
    with mock.patch.object(entropy, "_BLOCK_BYTES",
                           max(1, 8 * tree.n * block_rows)):
        sel, radii = _farthest_point_run(dense, q, n_select, start,
                                         basis=(tree, u, w, vs))
    assert sel[0] == start and len(radii) == n_select - 1
    held = [(math.inf, math.inf)] * len(pool)
    same_path = True
    for k in range(1, n_select):
        held = [min(h, _qth_power_sum(row, pool[sel[k - 1]], q))
                for h, row in zip(held, pool)]
        _assert_brackets(radii[k - 1], *held[sel[k]], q)
        order = sorted(range(len(pool)), key=lambda i: -held[i][0])
        lead, next_ = (float(held[i][0]) ** (1 / q) for i in order[:2])
        same_path &= lead * (1 - 2e-12) > next_
        if same_path:
            assert sel[k] == order[0]


def test_a_dense_row_beside_a_basis_image_is_bounded_from_the_exact_image():
    # the kernel sees the rounded image fl(u_v w_x): a dense row one ulp
    # from it, towards the exact image, is nearer the exact image than the
    # kernel's distance says, whichever of the two is the center
    tree = full_tree(2, 0)
    u, w = np.array([0.1]), np.array([0.3])
    exact = Fraction(0.1) * Fraction(0.3)
    image = float(u[0] * w[0])
    assert Fraction(image) != exact
    row = np.array([[math.nextafter(image, math.inf if exact > image
                                    else -math.inf)]])
    for q in (1.5, 2.0, 4.0):
        lo, _ = _qth_power_sum({0: Fraction(row[0, 0])}, {0: exact}, q)
        a, b = Fraction(q).as_integer_ratio()
        for start in (0, 1):
            _, radii = _farthest_point_run(row, q, 2, start,
                                           basis=(tree, u, w, [0]))
            assert Fraction(radii[0]) ** a <= lo ** b


@settings(max_examples=200, deadline=None)
@given(x=st.one_of(st.floats(0.0, 1e300), st.floats(0.0, 1e-300),
                   st.sampled_from([0.0, 5e-324, 2.0 ** -1022, 1.0])),
       k=st.integers(1, 2 ** 20), a=st.sampled_from([0.0, 5e-324, 1e-310, 1.0]))
def test_round_down_is_below_the_widened_value(x, k, a):
    # at most max(x / (1 + gamma_k) - a, 0), exactly, and not far below
    gamma = Fraction(k, 2 ** 53 - k)
    got = Fraction(float(entropy._round_down(x, k, a)))
    bound = max(Fraction(x) / (1 + gamma) - Fraction(a), Fraction(0))
    assert 0 <= got <= bound
    assert got >= bound * (1 - 8 * gamma) - Fraction(4 * 5e-324 + 2e-16 * a)


def test_closed_form_keeps_a_small_difference_of_large_subtree_sums():
    # W_0 - W_1 = |w_0|^4 = 1e-8 beside W_1 = 2: two rounded sums would
    # get the difference only to about u W_1 = 2e-16, 2e-8 relative
    tree = full_tree(1, 2)
    u, w = np.array([1.0, 1.0 + 2.0 ** -20, 1.0]), np.array([1e-2, 1.0, 1.0])
    images = _exact_images(tree, u, w, [0, 1])
    got = entropy._BasisRows(tree, u, w, [0, 1], 4.0).lower(1)[0]
    _assert_brackets(got, *_qth_power_sum(images[0], images[1], 4.0), 4.0)


@pytest.mark.parametrize("u0, w0", [(1e80, 1.0), (1.0, math.nan)])
def test_basis_rows_past_float_range_are_refused(u0, w0):
    # an image entry of 1e80 has a q-th power past the float range at any
    # scaling of u and w, and NaN fails every range check
    tree = full_tree(2, 1)
    u, w = np.ones(tree.n), np.ones(tree.n)
    u[0], w[2] = u0, w0
    with pytest.raises(ValueError, match="too large for float64"):
        entropy._BasisRows(tree, u, w, np.arange(tree.n), 4.0)


def test_basis_rows_need_a_finite_q_of_at_least_1():
    tree = full_tree(2, 2)
    basis = (tree, np.ones(tree.n), np.ones(tree.n), np.arange(tree.n))
    for q in (math.inf, 0.5):
        with pytest.raises(ValueError, match="finite q >= 1"):
            _farthest_point_run(np.zeros((2, tree.n)), q, 2, 0, basis=basis)


# -- packing lower bound ------------------------------------------------------


def test_packing_identity_circle_k1():
    est = packing_profile(np.eye(2), 2, 2, [1], samples=4096, seed=1)[0]
    assert est.kind == "certified_lower" and est.k == 1
    assert 0.9 <= est.value <= 1.0 + 1e-12
    # k=1 value is half the greedy separation, at least a quarter of the
    # sampled diameter (which approaches 2 for the circle)
    pts = sample_lp_sphere(2, 2, 4096, seed=1)
    sub = pts[:512]
    diam = max(np.linalg.norm(sub - sub[i], axis=1).max() for i in range(len(sub)))
    assert diam > 1.9
    assert est.value >= diam / 4.0 - 1e-12


def test_packing_zero_matrix_and_insufficient_samples():
    zero = packing_profile(np.zeros((3, 3)), 2, 2, [2], samples=64, seed=0)
    assert zero[0].value == 0.0
    est = packing_profile(np.eye(3), 2, 2, [10], samples=100, seed=0)[0]
    assert est.value == 0.0 and "insufficient" in est.method
    with pytest.raises(ValueError):
        packing_profile(np.eye(3), 2, 2, [25])[0]


def test_packing_homogeneity_and_determinism():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 3))
    v = packing_profile(a, 1.5, 3, [3], samples=512, seed=2)[0].value
    v_scaled = packing_profile(3.7 * a, 1.5, 3, [3], samples=512, seed=2)[0].value
    assert v_scaled == pytest.approx(3.7 * v, rel=1e-12)
    again = packing_profile(a, 1.5, 3, [3], samples=512, seed=2)[0].value
    assert again == v
    other = packing_profile(a, 1.5, 3, [3], samples=512, seed=3)[0].value
    assert other != v


def test_packing_profile_matches_single_calls_and_is_monotone():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((6, 4))
    ks = range(1, 9)
    profile = packing_profile(a, 1.5, 3, ks, samples=2048, seed=5)
    singles = [packing_profile(a, 1.5, 3, [k], samples=2048, seed=5)[0] for k in ks]
    assert [e.value for e in profile] == [e.value for e in singles]
    vals = [e.value for e in profile]
    assert all(y <= x + 1e-15 for x, y in zip(vals, vals[1:]))


# -- net upper bound ----------------------------------------------------------


def test_net_upper_zero_matrix():
    assert net_upper(np.zeros((2, 2)), 2, 2, 1, eta=0.2).value == 0.0


def test_net_upper_identity_converges_from_above():
    coarse = net_upper(np.eye(2), 2, 2, 1, eta=0.3)
    fine = net_upper(np.eye(2), 2, 2, 1, eta=0.12)
    assert coarse.kind == "certified_upper" and coarse.seed is None
    for est, eta in ((coarse, 0.3), (fine, 0.12)):
        assert 1.0 <= est.value <= 1.0 + 3.0 * eta
    assert fine.value < coarse.value


def test_net_upper_gates():
    with pytest.raises(ValueError):
        net_upper(np.zeros((2, 7)), 2, 2, 1, eta=0.5)
    with pytest.raises(ValueError):
        net_upper(np.eye(6), 2, 2, 1, eta=0.01)
    with pytest.raises(ValueError):
        net_upper(np.eye(2), 2, 2, 1, eta=-0.1)


def test_net_upper_homogeneity():
    a = np.diag([1.0, 0.5])
    v = net_upper(a, 2, 2, 2, eta=0.15).value
    v_scaled = net_upper(3.7 * a, 2, 2, 2, eta=0.15).value
    assert v_scaled == pytest.approx(3.7 * v, rel=1e-12)


def test_bracketing_on_diagonal_operator():
    a = np.diag([1.0, 0.5])
    lower = packing_profile(a, 2, 2, [2], samples=4096, seed=7)[0].value
    vol = volumetric_lower(2, 2, 2, 2, diag=[1.0, 0.5]).value
    upper = net_upper(a, 2, 2, 2, eta=0.08).value
    assert lower <= upper + 1e-12
    assert vol <= upper + 1e-12
    assert lower > 0.2


# -- greedy covering heuristic ------------------------------------------------


def test_greedy_single_sample_gives_zero():
    est = cover_profile(np.eye(3), 2, 2, [4], samples=1, seed=0)[0]
    assert est.value == 0.0 and est.kind == "heuristic"


def test_greedy_decay_slope_matches_dimension():
    v9 = cover_profile(np.eye(2), 2, 2, [9], samples=2 ** 15, seed=3)[0].value
    v11 = cover_profile(np.eye(2), 2, 2, [11], samples=2 ** 15, seed=3)[0].value
    assert v11 > 0
    # doubling k by 2 should halve the radius in dimension 2 (rate 2^{-k/2})
    assert 1.4 <= v9 / v11 <= 3.2


def test_greedy_dominates_packing_on_same_points():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((3, 3))
    # the same samples and seed draw the same ball points for both
    pk = packing_profile(a, 2, 2, [4], samples=2048, seed=11)[0]
    greedy = cover_profile(a, 2, 2, [4], samples=2048, seed=11)[0]
    assert greedy.value >= pk.value - 1e-12


def test_greedy_monotone_homogeneous_deterministic():
    rng = np.random.default_rng(17)
    a = rng.standard_normal((4, 3))
    vals = [cover_profile(a, 1.5, 3, [k], samples=1024, seed=4)[0].value
            for k in range(1, 9)]
    assert all(y <= x + 1e-15 for x, y in zip(vals, vals[1:]))
    v = cover_profile(a, 1.5, 3, [3], samples=1024, seed=4)[0].value
    v_scaled = cover_profile(3.7 * a, 1.5, 3, [3], samples=1024, seed=4)[0].value
    assert v_scaled == pytest.approx(3.7 * v, rel=1e-12)
    assert cover_profile(a, 1.5, 3, [3], samples=1024, seed=4)[0].value == v


def test_cover_profile_matches_single_calls_bitwise():
    rng = np.random.default_rng(23)
    a = rng.standard_normal((5, 4))
    ks = [1, 3, 6, 9, 12]
    prof = cover_profile(a, 2, 4, ks, samples=1024, seed=7)
    assert [e.k for e in prof] == ks
    for est in prof:
        single = cover_profile(a, 2, 4, [est.k], samples=1024, seed=7)[0]
        assert est.value == single.value
        assert est.kind == "heuristic" and est.method == single.method


def test_cover_profile_poll_reports_only_the_k_reached():
    rng = np.random.default_rng(24)
    a = rng.standard_normal((5, 4))
    ks = [1, 2, 3, 5, 13]
    full = cover_profile(a, 2, 4, ks, samples=512, seed=7)
    calls = []

    def poll():
        calls.append(1)
        return "wall_clock" if len(calls) > 6 else None

    cut = cover_profile(a, 2, 4, ks, samples=512, seed=7, poll=poll)
    # 7 centers were selected: the radii of 1, 2 and 4 centers are known,
    # and k = 13 needs more centers than the 512-point pool has
    assert len(calls) == 7
    assert [e.k for e in cut] == [1, 2, 3, 13]
    assert [e.value for e in cut] == [e.value for e in full if e.k != 5]
    assert cut[-1].value == 0.0


def test_cover_profile_exhausted_pool_is_zero():
    prof = cover_profile(np.eye(2), 2, 2, [3, 12], samples=16, seed=0)
    # 2^11 centers exceed the 16-point pool, so that entry collapses to 0
    assert prof[0].value > 0.0 and prof[1].value == 0.0


# -- combination calculus -----------------------------------------------------


def _upper(k, value, kind="certified_upper"):
    return EntropyEstimate(k, value, kind, "test")


def test_combine_sum_index_bookkeeping():
    out = combine_sum(_upper(3, 0.5), _upper(4, 0.25))
    assert (out.k, out.value, out.kind) == (6, 0.75, "certified_upper")
    assert combine_sum(_upper(5, 0.0), _upper(2, 0.3)).value == 0.3
    one = combine_sum(_upper(1, 0.1), _upper(1, 0.2))
    assert one.k == 1 and one.value == pytest.approx(0.3)
    fold = combine_sum(combine_sum(_upper(2, 1.0), _upper(2, 2.0)), _upper(2, 3.0))
    assert fold.k == 4 and fold.value == 6.0


def test_combine_sum_kind_propagation_and_errors():
    mixed = combine_sum(_upper(2, 0.5), _upper(2, 0.5, "heuristic"))
    assert mixed.kind == "heuristic"
    with pytest.raises(ValueError):
        combine_sum(_upper(2, 0.5), _upper(2, 0.5, "certified_lower"))


def test_combine_scale():
    est = _upper(4, 0.8, "heuristic")
    assert combine_scale(0.0, est).value == 0.0
    out = combine_scale(1.0, est)
    assert (out.k, out.value, out.kind) == (4, 0.8, "heuristic")
    with pytest.raises(ValueError):
        combine_scale(-1.0, est)
    with pytest.raises(ValueError):
        combine_scale(2.0, _upper(4, 0.8, "certified_lower"))


def test_combine_scale_then_sum():
    leaf = EntropyEstimate(3, schuett(8, 3, 2, 4), "certified_upper",
                           "schuett(nu=8,stitched)")
    est = combine_sum(combine_scale(2.0, leaf), _upper(2, 0.1))
    assert est.k == 3 + 2 - 1
    assert est.value == 2.0 * schuett(8, 3, 2, 4) + 0.1
    assert est.kind == "certified_upper"


@given(st.integers(1, 50), st.integers(1, 50),
       st.floats(0, 10), st.floats(0, 10))
@settings(max_examples=50, deadline=None)
def test_combine_sum_property(k, l, a, b):
    out = combine_sum(_upper(k, a), _upper(l, b))
    assert out.k == k + l - 1
    assert out.value == pytest.approx(a + b, abs=1e-12)


# -- estimate type ------------------------------------------------------------


def test_estimate_validation():
    with pytest.raises(ValueError):
        EntropyEstimate(0, 1.0, "heuristic", "x")
    with pytest.raises(ValueError):
        EntropyEstimate(1, -1.0, "heuristic", "x")
    with pytest.raises(ValueError):
        EntropyEstimate(1, 1.0, "upper", "x")


def test_matrix_norm_upper_values():
    assert matrix_norm_upper(np.eye(2), 2, 2) == pytest.approx(math.sqrt(2.0))
    assert matrix_norm_upper(np.zeros((2, 2)), 2, 2) == 0.0
    a = np.array([[3.0, -1.0], [2.0, 5.0]])
    assert matrix_norm_upper(a, 1, 1) == pytest.approx(8.0)
