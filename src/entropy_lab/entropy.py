"""Entropy-number estimators and the bound-combination calculus.

Estimators come in three kinds: certified lower bounds from point packings
(M points pairwise more than 2 eps apart defeat any covering by 2^{k-1}
eps-balls), certified upper bounds from explicit net coverings, and
heuristic values from greedy covering of sampled images.  Closed-form
reference curves for identity and diagonal embeddings (the stitched
piecewise curve in k, and the 1/phi(2^n) value for log-type weights)
provide the leaves of composite bounds; the combination rules

    e_{k+l-1}(S+T) <= e_k(S) + e_l(T)
    e_k(ST)       <= ||S|| e_k(T)

are applied with exact index bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .summation import apply

_KINDS = ("certified_lower", "certified_upper", "heuristic")
_SAMPLED_K_CAP = 24
_DEFAULT_SAMPLES = 2 ** 14
_BLOCK_BYTES = 2 ** 20
_BALL_TAG = 0x6c7062
_SPHERE_TAG = 0x6c7073
_NET_CAP = 4_000_000
_GRAM_MAX = 2.0 ** 1018   # squared norms the q = 2 filter takes
_GRAM_PAD = 2.0 ** -1070  # 16 least subnormals, per column
_ETA = 2.0 ** -1074       # the least subnormal


@dataclass(frozen=True)
class EntropyEstimate:
    k: int
    value: float
    kind: str
    method: str
    seed: int | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("index k must be >= 1")
        if not (self.value >= 0):
            raise ValueError("value must be nonnegative")
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")


# -- closed-form reference curves -------------------------------------------


def _check_pq_wide(p: float, q: float):
    if not (1.0 <= p <= q):
        raise ValueError(f"need 1 <= p <= q, got p={p}, q={q}")


def schuett(nu: int, k: int, p: float, q: float) -> float:
    """Stitched reference curve for e_k(id: l_p^nu -> l_q^nu), p <= q.

    Middle branch (log(1 + nu/k) / k)^{1/p - 1/q} taken verbatim with the
    natural logarithm; the flat branch (k below log2 nu) and the
    exponential branch (k above nu) are scaled to meet it, so the curve is
    continuous in k with exact equality at both seams.
    """
    _check_pq_wide(p, q)
    if nu < 1 or k < 1:
        raise ValueError("nu and k must be >= 1")
    alpha = 1.0 / p - 1.0 / q

    def middle(kk: float) -> float:
        return (math.log(1.0 + nu / kk) / kk) ** alpha

    k_left = math.ceil(math.log2(nu)) if nu > 1 else 0
    if k <= k_left:
        return middle(k_left)
    if k <= nu:
        return middle(k)
    return middle(nu) * 2.0 ** ((nu - k) / nu)


def kuhn_value(n: int, p: float, q: float, phi) -> float:
    """1 / phi(2^n) for a nondecreasing log-type weight phi.

    phi must grow at most like ((1 + log t) / (1 + log s))^{1/p - 1/q}
    between any two arguments t >= s >= 1 up to a bounded constant; the
    condition is validated on a logarithmic grid (reported constant capped
    at 10) and requires p < q, since the exponent degenerates at p = q.
    """
    _check_pq_wide(p, q)
    if p == q:
        raise ValueError("p = q degenerates the growth exponent")
    if n < 0:
        raise ValueError("index n must be >= 0")
    alpha = 1.0 / p - 1.0 / q
    hi = max(6.0, (n + 1) * math.log10(2.0))
    ts = np.logspace(0.0, hi, 30)
    vals = np.array([float(phi(t)) for t in ts])
    if np.any(vals <= 0) or not np.all(np.isfinite(vals)):
        raise ValueError("phi must be positive and finite on [1, 2^n]")
    if np.any(vals[1:] < vals[:-1] * (1 - 1e-12)):
        raise ValueError("phi must be nondecreasing")
    logs = 1.0 + np.log(ts)
    ratio = (vals[None, :] / vals[:, None]) / (logs[None, :] /
                                               logs[:, None]) ** alpha
    c_hat = float(np.max(np.triu(ratio)))
    if c_hat > 10.0:
        raise ValueError(
            f"phi grows too fast: grid constant {c_hat:.3g} exceeds 10")
    return 1.0 / float(phi(2.0 ** n))


def volumetric_lower(nu: int, p: float, q: float, k: int,
                     diag=None) -> EntropyEstimate:
    """Volume-comparison lower bound for a diagonal operator on l_p^nu.

    Any covering of D(B_p) by 2^{k-1} l_q-balls of radius eps satisfies
    2^{k-1} eps^nu vol(B_q) >= |det D| vol(B_p), which rearranges to the
    returned value.  Square case only.
    """
    _check_pq_wide(p, q)
    if nu < 1 or k < 1:
        raise ValueError("nu and k must be >= 1")
    if diag is not None:
        diag = np.asarray(diag, dtype=float)
        if diag.shape != (nu,):
            raise ValueError("non-square request: diag must have length nu")
        if np.any(diag == 0):
            return EntropyEstimate(k, 0.0, "certified_lower", "volumetric")
        log_det = float(np.sum(np.log(np.abs(diag))))
    else:
        log_det = 0.0

    def log_vol(r: float) -> float:
        inv = 1.0 / r
        return (nu * (math.log(2.0) + math.lgamma(1.0 + inv))
                - math.lgamma(1.0 + nu * inv))

    log_val = (log_det + log_vol(p) - log_vol(q)) / nu \
        - (k - 1) / nu * math.log(2.0)
    return EntropyEstimate(k, math.exp(log_val), "certified_lower",
                           "volumetric")


# -- sampling and the farthest-point engine ----------------------------------


def sample_lp_sphere(nu: int, p: float, n_samples: int, seed: int,
                     tag: int = _SPHERE_TAG) -> np.ndarray:
    """Uniform (cone measure) samples on the l_p unit sphere.

    Coordinates are drawn from the generalized Gaussian density
    proportional to exp(-|x|^p) (gamma trick) and normalized; for p = inf
    the coordinates are uniform on [-1, 1].  Counter-based generator keyed
    by (seed, tag) for reproducibility.  Every coordinate is drawn
    straight into the result in one call; then, one _block_rows row block
    at a time, the signs are drawn (at finite p) and the rows normalized
    through reused block-sized scratch, so the only sample-sized array is
    the result.  A Philox stream is a function of its key and a counter,
    consumed in sequence, so the per-block sign draws give the numbers of
    one call over the whole array (Salmon et al., SC 2011; test_entropy
    pins this for each call used here).
    """
    out = np.empty((n_samples, nu))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, tag])))
    if math.isinf(p):
        rng.random(out=out)
    else:
        rng.standard_gamma(1.0 / p, out=out)
    rows = _block_rows(nu)
    buf = np.empty((min(rows, n_samples), nu))
    norms = np.empty(min(rows, n_samples))
    for s in range(0, n_samples, rows):
        x = out[s:s + rows]
        block, norm = buf[:x.shape[0]], norms[:x.shape[0]]
        if math.isinf(p):
            x *= 2.0
            x -= 1.0
            np.max(np.abs(x, out=block), axis=1, out=norm)
        else:
            x **= 1.0 / p
            signs = rng.integers(0, 2, x.shape)
            signs *= 2
            signs -= 1
            x *= signs
            np.abs(x, out=block)
            block **= p
            np.sum(block, axis=1, out=norm)
            norm **= 1.0 / p
        norm[norm == 0] = 1.0
        x /= norm[:, None]
    return out


def sample_lp_ball(nu: int, p: float, n_samples: int, seed: int) -> np.ndarray:
    """Uniform samples in the l_p unit ball: cone-measure sphere points
    scaled in place by U^{1/nu} radial factors."""
    sphere = sample_lp_sphere(nu, p, n_samples, seed, tag=_BALL_TAG)
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence([seed, _BALL_TAG, 1])))
    radial = rng.uniform(0.0, 1.0, n_samples) ** (1.0 / nu)
    sphere *= radial[:, None]
    return sphere


def _block_rows(width: int) -> int:
    """Rows of float64 `width`-vectors that fit in one _BLOCK_BYTES block."""
    return max(1, _BLOCK_BYTES // (8 * max(width, 1)))


def _round_down(x, k: int, a):
    """A float at most max(x / (1 + gamma_k) - a, 0), elementwise, for
    x >= 0 and a >= 0 (NaN stays NaN); gamma_k = k u / (1 - k u) with
    u = 2^-53 (Higham 2002, section 3).

    f = fl((1 - 2ku) / (1 - ku)), its numerator and denominator exact,
    stepped once toward 0 is at most 1 - gamma_k <= 1 / (1 + gamma_k).
    For z >= 0, fl(z) <= z (1 + u), or z + eta / 2 in the subnormal range
    (eta = 2^-1074), and one np.nextafter step toward 0 takes off at least
    u fl(z), or eta, so the step lands at or below z: once after x f and
    once after subtracting a.
    """
    f = math.nextafter((1.0 - k * 2.0 ** -52) / (1.0 - k * 2.0 ** -53), 0.0)
    y = np.nextafter(np.multiply(x, f), 0.0)
    return np.maximum(np.nextafter(y - a, 0.0), 0.0)


class _LqPasses:
    """l_q distance passes from centers to the rows of a fixed pool.

    A pass min-folds each row's distance to one center into `self.dist`
    (+inf before the first pass and after restart()).  Rows go through the
    per-row arithmetic in blocks of about _BLOCK_BYTES: each block's
    x - c goes into one reused scratch buffer (a filtered pass gathers its
    rows into it), is reduced per row, and is folded, so no pass allocates
    anything pool-sized.  Passes run serially in the calling thread.  Per
    row the arithmetic is the one-shot expression's (same subtraction,
    same reduction over a 2-D block of at least min_rows rows, same final
    power; the |x - c| is skipped where q = 2 squares it, since IEEE
    squaring is sign-blind), so every distance is bit-identical to it, bar
    the sign bit of a NaN, whichever block or pass it is computed in.

    At q = 2 a pass whose center is pool row `row` first runs the Gram
    filter of _candidates and sends only the rows it cannot rule out
    through that arithmetic, gathered into the same blocks; every other
    row provably keeps its `dist` bits.  The filter reads x . c from a
    Gram block, points[block] @ points.T for the center and the B - 1 rows
    of largest `dist`, the likeliest next centers of a farthest-point
    traversal, and keeps the block for every later center found in it; B
    rows of the pool fill one _BLOCK_BYTES block, so a block is one BLAS-3
    product (Goto & van de Geijn, ACM TOMS 34, 2008), counted in
    `products`.  Passes from other centers compute every row.
    """

    def __init__(self, points: np.ndarray, q: float):
        n, m = points.shape
        self.points, self.q = points, q
        # capped at n: a pass never needs more
        self.rows = max(1, min(_block_rows(m), n))
        # einsum sums a lone row in one loop but the rows of a taller
        # operand in buffer-sized pieces, which rounds differently for wide
        # rows; reducing over >= 2 rows whenever the pool has them keeps a
        # one-row block rounding like that row inside the whole pool
        self.min_rows = min(n, 2)
        buf_rows = max(self.rows, self.min_rows)
        self.buf, self.red = np.zeros((buf_rows, m)), np.empty(buf_rows)
        self.dist = np.full(n, np.inf)
        self.products = 0
        if q == 2.0:
            self.pad = m * _GRAM_PAD
            self.coef = 8.0 * (m + 2) * 2.0 ** -53
            with np.errstate(invalid="ignore", over="ignore"):
                sq = np.einsum("ij,ij->i", points, points)
                self.base = sq - self.coef * (sq + self.pad)
            # rows whose squared norm is out of range or not a number: their
            # NaN base keys them to the exact path, and their Gram columns
            # are zeroed so that no NaN reaches the skip test
            self.bad = np.flatnonzero(~(sq <= _GRAM_MAX))
            self.base[self.bad] = np.nan
            self.key = np.full(n, -np.inf)
            self.block = np.empty(0, dtype=np.intp)
            self.gram = np.empty((min(_block_rows(n), n), n))
            self.lhs = np.empty(n)
            self.live = np.empty(n, dtype=bool)

    def restart(self):
        """Forget every center: dist back to +inf."""
        self.dist.fill(np.inf)
        if self.q == 2.0:
            self.key.fill(-np.inf)

    def __call__(self, center: np.ndarray, row: int | None = None) -> int:
        """dist = min(dist, distances to `center`), which is pool row `row`
        if given; returns the number of rows whose distance was
        computed."""
        idx = None
        if self.q == 2.0 and row is not None:
            idx = self._candidates(center, row)
            if idx is not None and idx.size == self.dist.size:
                idx = None
        q, buf, red, dist = self.q, self.buf, self.red, self.dist
        k = dist.size if idx is None else idx.size
        for s in range(0, k, self.rows):
            e = min(s + self.rows, k)
            if idx is None:
                rows = slice(s, e)
                diff = np.subtract(self.points[rows], center,
                                   out=buf[:e - s])
            else:
                rows = idx[s:e]
                diff = np.take(self.points, rows, axis=0, out=buf[:e - s],
                               mode="clip")
                diff -= center
            # rows past e - s are stale or zero; their sums are discarded
            wide = buf[:max(e - s, self.min_rows)]
            out = red[:wide.shape[0]]
            if math.isinf(q):
                np.abs(diff, out=diff)
                np.max(wide, axis=1, out=out)
            elif q == 2.0:
                np.einsum("ij,ij->i", wide, wide, out=out)
                np.sqrt(out, out=out)
            else:
                np.abs(diff, out=diff)
                diff **= q
                np.sum(wide, axis=1, out=out)
                out **= 1.0 / q
            out = np.minimum(dist[rows], out[:e - s], out=out[:e - s])
            dist[rows] = out
            if q == 2.0:
                self._rekey(rows, out)
        return k

    def _rekey(self, rows, dist):
        """key[rows] = the skip keys of _candidates for the rows' new
        `dist` (overwritten): D = fl(dist^2) stepped up, so D >= dist^2,
        and key = fl(fl(base - D) stepped down / 2) <= (base - D) / 2 +
        eta / 2, or -inf where that is NaN."""
        with np.errstate(invalid="ignore", over="ignore"):
            np.multiply(dist, dist, out=dist)
            np.nextafter(dist, np.inf, out=dist)
            np.subtract(self.base[rows], dist, out=dist)
            np.nextafter(dist, -np.inf, out=dist)
            dist *= 0.5
        # fmax drops a NaN: such a key would let every center skip the row
        self.key[rows] = np.fmax(dist, -np.inf, out=dist)

    def _gram_block(self, row: int):
        """Gram rows of `row` and of the B - 1 other rows of largest dist."""
        b, n = self.gram.shape
        top = np.argpartition(self.dist, n - b)[n - b:]
        self.block = np.concatenate(([row], top[top != row][:b - 1]))
        with np.errstate(invalid="ignore", over="ignore"):
            np.matmul(self.points[self.block], self.points.T, out=self.gram)
        self.gram[:, self.bad] = 0.0
        self.products += 1

    def _candidates(self, center, row):
        """Rows whose distance to `center`, pool row `row`, may fall below
        their `dist`; None if the center's squared norm is out of range
        (every row then may).

        For a row x and the center c, of width m, the filter skips x when
        fl(g - h) <= key_x, with g = fl(x . c) from the Gram block, h =
        fl(b / 2), key_x as _rekey sets it from a_x and dist_x, a_x =
        fl(n_x - fl(C fl(n_x + A))) (once per pool) and b = n_c - C (n_c +
        A) - A, where n_x, n_c are the computed squared norms, C = 8 (m +
        2) u and A = m 2^-1070.  It is certified: with u = 2^-53, gamma_k =
        k u / (1 - k u), eta = 2^-1074, d = ||x - c|| and R* = (||x|| +
        ||c||)^2 <= 2 (||x||^2 + ||c||^2), in any summation order, with or
        without FMA and gradual underflow,
          exact kernel  S = fl(sum fl(x_i - c_i)^2) >= (1 - gamma_{m+2})
                        d^2 - m eta, and it returns fl(sqrt(S));
          Gram terms    |n_x - ||x||^2| <= gamma_m ||x||^2 + m eta, alike
                        for n_c, and |g - x . c| <= gamma_m ||x|| ||c||
                        + m eta, so T = n_x - 2 g + n_c <= d^2 + gamma_m
                        R* + 4 m eta and S >= T - (gamma_m +
                        gamma_{m+2}) R* - 5 m eta;
          skip test     |h - b / 2| <= eta / 2, fl(g - h) >= (g - h) -
                        u |g - h| (a subnormal difference is exact), and
                        _rekey keeps D_x >= dist_x^2 and key_x <= (a_x -
                        D_x) / 2 + eta / 2, so a skip gives dist_x^2 <=
                        a_x + b - 2 g + 2u |g| + u |b| + 3 eta;
          rounding      a_x and b exceed their real expressions by at
                        most u n_x + 2u n_c + 2 eta to first order, so all
                        the rounding is at most 4u (n_x + 2|g| + n_c) +
                        5 eta <= 4u (1 + gamma_m) R* + 5 eta.
        Since R* <= 2 (n_x + n_c + 2 m eta) (1 + 2 gamma_m), the
        subtracted C (n_x + n_c + 2A) + A covers all of it for (m + 2) u
        <= 2^-4 (A = 16 m eta >= 5 m eta + 5 eta), so a skip gives
        dist_x^2 <= S, and as sqrt is correctly rounded and monotone and
        dist_x is a float, fl(sqrt(S)) >= dist_x: min(dist, exact) ==
        dist bit for bit.  Squared norms above _GRAM_MAX = 2^1018 (and inf
        or NaN ones) make a_x NaN, so key_x is -inf (as for a NaN or +inf
        dist) and the zeroed Gram column keeps g finite, and they make the
        center take the exact path, so nothing overflows.
        """
        sq_c = float(np.dot(center, center))
        if not sq_c <= _GRAM_MAX:
            return None
        h = 0.5 * (sq_c - self.coef * (sq_c + self.pad) - self.pad)
        hit = np.flatnonzero(self.block == row)
        if hit.size == 0:
            self._gram_block(row)  # puts row first
        np.subtract(self.gram[hit[0] if hit.size else 0], h, out=self.lhs)
        np.greater(self.lhs, self.key, out=self.live)
        return np.flatnonzero(self.live)


def _exact_units(x: np.ndarray, e0: int) -> np.ndarray:
    """Finite floats x >= 0 as exact Python ints, in units of 2^(e0 - 53):
    x = m 2^e with 2^53 m a whole number below 2^53, so x is a whole
    number of units when x = 0 or e >= e0."""
    m, e = np.frexp(x)
    return (np.ldexp(m, 53).astype(np.int64).astype(object)
            << np.maximum(e - e0, 0).astype(object))


class _BasisRows:
    """The images S e_v of the vertices vs of a tree under the summation
    operator, in closed form: S e_v is u_v w on the subtree T_v, so with
    W_v = sum over T_v of |w_x|^q, ||S e_a - S e_b||_q^q is
        |u_a|^q W_a + |u_b|^q W_b                 (T_a, T_b disjoint)
        |u_a|^q (W_a - W_b) + |u_a - u_b|^q W_b   (T_b within T_a),
    and containment compares preorder ranges (Tree.preorder): a row is
    (u_v, W_v, preorder range) and a distance costs O(1).  One bottom-up
    sweep sums t_x = fl(|w_x|^q) over every subtree exactly, in Python
    integers, and keeps W_v as hi_v = fl(S_v), lo_v = fl(S_v - hi_v): the
    t_x of T_b then cancel exactly in W_a - W_b, as they would not between
    two rounded sums.  The rows are of u 2^-s and w 2^s, the same images,
    with s chosen to keep |u_v|^q and t_x in range.  q must be finite and
    >= 1.
    """

    def __init__(self, tree, u, w, vs, q: float):
        if not 1.0 <= q < math.inf:
            raise ValueError(f"basis rows need a finite q >= 1, got {q}")
        self.tree, self.u, self.w, self.q = tree, u, w, q
        self.vs = np.asarray(vs, dtype=np.int64)
        pre, size = tree.preorder()
        self.first, self.end = pre[self.vs], pre[self.vs] + size[self.vs]
        uv, w = np.asarray(u, dtype=float)[self.vs], np.asarray(w, float)
        # u 2^-s and w 2^s have the same products u_v w_x, the images, and
        # max |u_v| and max |w_x| a binade or so apart: on deep log packs
        # |u_v|^q and t_x = fl(|w_x|^q) then stay normal
        eu, ew = (np.frexp(np.max(np.abs(x), initial=0.0))[1]
                  for x in (uv, w))
        s = int(eu - ew + 1) // 2
        with np.errstate(over="ignore", invalid="ignore"):
            self.uv, wx = np.ldexp(uv, -s), np.ldexp(w, s)
            if not (np.array_equal(np.ldexp(self.uv, s), uv)
                    and np.array_equal(np.ldexp(wx, -s), w)):
                self.uv, wx = uv, w  # inexact past the normal range
            self.uq, t = np.abs(self.uv) ** q, np.abs(wx) ** q
            # bound the terms of lower(), NaN included
            fits = (t.sum() < 2.0 ** 1000 and (2.0 * np.max(
                np.abs(self.uv), initial=0.0)) ** q < 2.0 ** 1000)
            if fits:
                # count in units of 2^(e0 - 53), e0 the least exponent of
                # a nonzero t_x (at most 53, so the unit's inverse is an
                # int): every t_x is whole, and so is every nonzero
                # hi_v >= 2^(e0 - 1)
                e0 = int(np.frexp(t)[1][t > 0].min(initial=53))
                unit = 1 << (53 - e0)
                exact = tree.subtree_sums(_exact_units(t, e0))[self.vs]
                # int / int true division is correctly rounded
                self.hi = (exact / unit).astype(float)
                self.lo = ((exact - _exact_units(self.hi, e0))
                           / unit).astype(float)
                fits = 2.0 ** q * np.max(self.uq * self.hi,
                                         initial=0.0) < 2.0 ** 1000
        if not fits:
            raise ValueError("basis images too large for float64 distances")
        self.k = math.ceil(q) + 27
        self.pad = (4 * tree.n + 16) * _ETA
        self.k_dense = tree.n + math.ceil(q) + 15
        self.slack = 2.0 * (8 * (tree.n + 1) * _ETA) ** (1.0 / q)
        self.err = 2.0 ** -52 * (self.uq * self.hi + 2.0 ** -1000) ** (1.0 / q)

    def lower(self, c: int) -> np.ndarray:
        """Certified lower bounds of ||S e_r - S e_c||_q, for every row r.

        Per pair, o is the row whose subtree holds the other's (r when
        neither does) and i the other: A = fl(|u_o|^q), Y = hi_i and,
        nested, X = fl(fl(hi_o - hi_i) + fl(lo_o - lo_i)), B =
        fl(|fl(u_o - u_i)|^q), or, disjoint, X = hi_o, B = fl(|u_i|^q);
        D' = fl(fl(A X) + fl(B Y)) stands for D = d^q.  Model (u = 2^-53,
        eta = 2^-1074, n = |V|): +, -, x round to nearest with gradual
        underflow, and a power is within 4 ulp, 8u relative plus 4 eta
        (assumed of the platform's pow: glibc's is within 1 ulp; squares
        and square roots round correctly).  Then
          t_x      is |w_x|^q to 8u plus 4 eta, so S_o - S_i is W_o - W_i
                   to 8u plus 4 n eta, and hi_v + lo_v is S_v to
                   u^2 S_v + eta;
          X        is W_o - W_i (or W_o) to gamma_10, plus
                   4u^2 (S_o + S_i) + (4n + 3) eta;
          A, B, Y  are |u_o|^q, |u_o - u_i|^q (or |u_i|^q) and W_i to
                   gamma_{ceil(q) + 9}, plus 4 eta or (4n + 3) eta;
          D'       is D to gamma_K, K = ceil(q) + 19, plus at most
                   T = 9u^2 A hi_o + (4n + 9) eta (A + B + hi_r + hi_c + 1).
        The relative part needs both terms of D >= 0, so the margin is
        taken per case: one magnitude for all pairs, such as
        max(u_a, u_b)^q (W_a + W_b), would swallow the small nested
        distances.  16u^2 and (4n + 16) eta cover T and its own rounding,
        so L = max(D' - T, 0), stepped toward 0, is at most D (1 + gamma_K),
        fl(L^{1/q}) at most d (1 + gamma_{K+8}) + 4 eta, and
        _round_down(., K + 8, 4 eta) at most d.  __init__'s checks keep
        (2 max |u_v|)^q, so A and B, sum t_x, so hi, and each row's own
        2^q |u_v|^q hi_v below 2^1000; as |u_o - u_i| <= 2 max(|u_o|,
        |u_i|) and W_i <= W_o, each product above is at most one row's
        own 2^q |u|^q W, so every value stays below 2^1003.
        """
        first, end, hi, lo = self.first, self.end, self.hi, self.lo
        inner = (first >= first[c]) & (first < end[c])  # T_r in T_c
        outer = (first[c] >= first) & (first[c] < end)  # T_c in T_r
        diff = (hi - hi[c]) + (lo - lo[c])
        a = np.where(inner, self.uq[c], self.uq)
        x = np.where(inner, -diff, np.where(outer, diff, hi))
        b = np.where(inner | outer, np.abs(self.uv - self.uv[c]) ** self.q,
                     self.uq[c])
        y = np.where(inner, hi, hi[c])
        margin = (2.0 ** -102 * (a * np.where(inner, hi[c], hi))
                  + self.pad * (((a + b) + (hi + hi[c])) + 1.0))
        dq = np.maximum(np.nextafter(a * x + b * y - margin, 0.0), 0.0)
        return _round_down(dq ** (1.0 / self.q), self.k, 4 * _ETA)

    def dense(self, ids) -> np.ndarray:
        """Rows ids as dense vectors: summation.apply's columns, each entry
        fl(u_v w_x)."""
        cols = np.zeros((self.tree.n, len(ids)))
        cols[self.vs[ids], np.arange(len(ids))] = 1.0
        return apply(self.tree, self.u, self.w, cols).T

    def fold(self, lq_pass, center, dist, err) -> int:
        """dist = min(dist, certified lower bounds of the exact distances
        from lq_pass's rows to `center`); returns the rows computed.

        err covers ||fl(S e_v) - S e_v||_q <= u ||S e_v||_q for a row from
        dense() (self.err[v]; 0 otherwise).  With lower()'s model, the
        kernel's sum of m = |V| terms |x - c|^q, each to (1 + u)^q (1 + 8u)
        plus 4 eta, is D to gamma_{m + ceil(q) + 7} plus 5 m eta in any
        order; with the root's 8u and 4 eta and (s + t)^{1/q} <= s^{1/q} +
        t^{1/q}, the distance is at most d (1 + gamma_{m + ceil(q) + 15})
        + (1 + 8u)(5 m eta)^{1/q} + 4 eta.  self.slack = 2 fl((8 (m + 1)
        eta)^{1/q}) covers the last two terms and what underflow in dense()
        adds to err, (eta / 2) m^{1/q}.
        """
        lq_pass.restart()
        count = lq_pass(center)
        np.minimum(dist, _round_down(lq_pass.dist, self.k_dense,
                                     self.slack + err), out=dist)
        return count


def _farthest_point_run(points: np.ndarray, q: float, n_select: int,
                        start: int, *, basis=None, poll=None, counts=None):
    """Select n_select points by farthest-point traversal from `start`.

    Returns (selected indices, radii): radii[i] is the distance of
    selection i+1 from the previous centers.  Ties pick the lowest index
    and NaN ranks above every number, as np.argmax does.  poll, if given,
    is called once before each selection after the first; when it returns
    a cap name the run stops and returns what it has selected so far.
    counts, if given, is a dict that receives the numbers of (row, center)
    distances the run computes, "dense_evals" through the _LqPasses
    kernel and "closed_form_evals" between basis rows, and of the q = 2
    filter's Gram-block products, "gram_products".

    Each center gets one pass over the rows, so every row holds its
    distance to all centers so far and the argmax is the greedy
    traversal's pick, which needs nothing but pairwise distances
    (Gonzalez, Theoret. Comput. Sci. 38, 1985).  Over `points` alone a
    pass is one _LqPasses pass (at q = 2 its Gram filter recomputes only
    the rows whose distance may fall, and its Gram blocks hold the rows of
    largest distance, the next centers), and the radii are the kernel's
    distances, nonincreasing.

    basis, if given, is (tree, u, w, vs): the images S e_v of the
    vertices vs (see _BasisRows), as wide as `points` and indexed first
    (j < len(vs) is basis row j, len(vs) + i is points[i]).  Basis pairs
    take the closed form, O(1) each; a pair with a row of `points` takes
    the _LqPasses kernel, its basis row built through summation.apply
    (one _block_rows block at a time when the center is a row of
    `points`).  Every distance held, so every radius, is then a certified
    lower bound of the exact one (_BasisRows.lower and .fold); rounded
    per pair, the radii need not be nonincreasing, and their running
    minimum bounds the centers' least pairwise distance from below.
    """
    rows = None if basis is None else _BasisRows(*basis, q)
    n_basis = 0 if rows is None else rows.vs.size
    lq_pass = _LqPasses(points, q)
    dist = (lq_pass.dist if rows is None
            else np.full(n_basis + points.shape[0], np.inf))
    held, dense = dist[:n_basis], dist[n_basis:]
    evals = {"dense_evals": 0, "closed_form_evals": 0}
    selected = []
    radii = []
    c = start
    while True:
        selected.append(c)
        if rows is None:
            evals["dense_evals"] += lq_pass(points[c], c)
        elif c < n_basis:
            np.minimum(held, rows.lower(c), out=held)
            evals["closed_form_evals"] += n_basis
            if dense.size:
                evals["dense_evals"] += rows.fold(
                    lq_pass, rows.dense([c])[0], dense, rows.err[c])
        else:
            center = points[c - n_basis]
            evals["dense_evals"] += rows.fold(lq_pass, center, dense, 0.0)
            step = _block_rows(points.shape[1])
            for s in range(0, n_basis, step):
                ids = np.arange(s, min(s + step, n_basis))
                evals["dense_evals"] += rows.fold(
                    _LqPasses(rows.dense(ids), q), center,
                    held[s:s + step], rows.err[ids])
        if len(selected) >= n_select or (poll is not None
                                         and poll() is not None):
            break
        c = int(np.argmax(dist))
        radii.append(float(dist[c]))
    if counts is not None:
        counts.update(evals, gram_products=lq_pass.products)
    return selected, radii


def _sampled_images(matrix, p: float, ks, samples: int, seed: int):
    """Sorted distinct indices (validated) and the images of `samples`
    l_p-ball points: the common prologue of the sampled estimators.

    The sample is mapped one _block_rows row block at a time (rows of
    the wider side): in place through a square operator, so the sample is
    the only sample-sized array, and into one image array otherwise.  A
    block's product may differ from the one-shot product in the last bit
    (BLAS blocking depends on the shape); at the identity both are
    exact."""
    matrix = np.asarray(matrix, dtype=float)
    ks = sorted(set(int(k) for k in ks))
    if not ks or ks[0] < 1:
        raise ValueError("indices must be >= 1")
    if ks[-1] > _SAMPLED_K_CAP:
        raise ValueError(f"k capped at {_SAMPLED_K_CAP} for sampled methods")
    points = sample_lp_ball(matrix.shape[1], p, samples, seed)
    images = (points if matrix.shape[0] == matrix.shape[1]
              else np.empty((samples, matrix.shape[0])))
    rows = _block_rows(max(matrix.shape))
    for s in range(0, samples, rows):
        images[s:s + rows] = points[s:s + rows] @ matrix.T
    return ks, images


def _cover_radii(points: np.ndarray, q: float, ks, *, poll=None,
                 counts=None) -> dict:
    """{k: covering radius of the greedy 2^{k-1}-center set} for sorted ks:
    first center nearest the centroid, the rest by farthest-point descent,
    so the radius is the distance of the next center selected.  0 once the
    centers reach the points; a k the polled traversal stops short of is
    left out.  poll and counts go to the traversal."""
    feasible = [k for k in ks if 2 ** (k - 1) < points.shape[0]]
    values = {k: 0.0 for k in ks}
    if feasible:
        centroid = _LqPasses(points, q)
        centroid(points.mean(axis=0))
        start = int(np.argmin(centroid.dist))
        del centroid  # else its scratch stays resident through the run
        _, radii = _farthest_point_run(points, q,
                                       2 ** (feasible[-1] - 1) + 1,
                                       start=start, poll=poll,
                                       counts=counts)
        for k in feasible:
            if 2 ** (k - 1) <= len(radii):
                values[k] = radii[2 ** (k - 1) - 1]
            else:
                del values[k]
    return values


def packing_profile(matrix, p: float, q: float, ks,
                    samples: int = _DEFAULT_SAMPLES,
                    seed: int = 0) -> list:
    """Certified lower bounds for e_k, for every k in ks, from one
    farthest-point packing.

    Images of l_p-ball samples are packed greedily; M = 2^{k-1} + 1
    points pairwise >= delta apart force every covering by 2^{k-1} balls
    to use radius >= delta/2, so delta/2 is certified.  Ball rather than
    sphere samples: any image point is a valid packing witness, and in
    low dimension the interior carries separations the sphere cannot
    (dimension 1 has a two-point sphere).  The traversal is identical for
    every k (it only gets truncated), so one run serves every requested k.
    """
    ks, points = _sampled_images(matrix, p, ks, samples, seed)
    method = f"packing(samples={samples})"
    feasible = [k for k in ks if 2 ** (k - 1) + 1 <= samples]
    if feasible:
        _, radii = _farthest_point_run(points, q,
                                       2 ** (feasible[-1] - 1) + 1, start=0)
    out = [EntropyEstimate(k, radii[2 ** (k - 1) - 1] / 2.0,
                           "certified_lower", method, seed) for k in feasible]
    return out + [EntropyEstimate(k, 0.0, "certified_lower",
                                  method + "[insufficient samples]", seed)
                  for k in ks[len(feasible):]]


def matrix_norm_upper(matrix, p: float, q: float) -> float:
    """Row-wise Hoelder upper bound for ||A||_{l_p -> l_q}."""
    matrix = np.asarray(matrix, dtype=float)
    if p == 1.0:
        row = np.max(np.abs(matrix), axis=1)
    else:
        pp = p / (p - 1.0)
        row = np.sum(np.abs(matrix) ** pp, axis=1) ** (1.0 / pp)
    if math.isinf(q):
        return float(np.max(row)) if row.size else 0.0
    return float(np.sum(row ** q) ** (1.0 / q))


def net_upper(matrix, p: float, q: float, k: int,
              eta: float) -> EntropyEstimate:
    """Certified upper bound for e_k via a deterministic eta-net.

    A cubic lattice of mesh 2 eta / m^{1/p} has a point within l_p
    distance eta of every point of the unit ball; its image is covered
    greedily by 2^{k-1} centers and the leftover eta ||A|| slack makes the
    radius valid for the whole ball.  Domain dimension is gated at 6.
    """
    matrix = np.asarray(matrix, dtype=float)
    m = matrix.shape[1]
    if m > 6:
        raise ValueError("net_upper is gated to domain dimension <= 6")
    if k < 1:
        raise ValueError("index k must be >= 1")
    if not (0 < eta < 10):
        raise ValueError("eta must be a small positive resolution")
    step = 2.0 * eta / m ** (1.0 / p) if not math.isinf(p) else 2.0 * eta
    half = int(math.ceil((1.0 + step) / step))
    axis = step * np.arange(-half, half + 1)
    if (2 * half + 1) ** m > _NET_CAP:
        raise ValueError("eta too small for this dimension (net too large)")
    grid = np.stack(np.meshgrid(*([axis] * m), indexing="ij"), axis=-1)
    grid = grid.reshape(-1, m)
    if math.isinf(p):
        norms = np.max(np.abs(grid), axis=1)
    else:
        norms = np.sum(np.abs(grid) ** p, axis=1) ** (1.0 / p)
    net = grid[norms <= 1.0 + eta]
    images = net @ matrix.T
    radius = _cover_radii(images, q, [k])[k]
    value = radius + eta * matrix_norm_upper(matrix, p, q)
    return EntropyEstimate(k, value, "certified_upper", f"net(eta={eta:g})")


def cover_profile(matrix, p: float, q: float, ks,
                  samples: int = _DEFAULT_SAMPLES, seed: int = 0, *,
                  poll=None, counts=None) -> list:
    """Heuristic: greedy 2^{k-1}-center covering radius of the image of
    sampled ball points, for every k in ks, from one farthest-point run.

    Estimates the covering radius restricted to the sample, hence labeled
    heuristic; it always dominates the packing half-separation computed
    from the same sample set.  The greedy center sequence is nested, so the
    covering radius with 2^{k-1} centers for every requested k falls out of
    a single traversal.
    poll is passed to the traversal (called once per center after the
    first); when it stops the run, only the k whose 2^{k-1} centers were
    reached are reported.  counts, if given, takes the traversal's
    distance-evaluation counts (see _farthest_point_run).
    """
    ks, points = _sampled_images(matrix, p, ks, samples, seed)
    method = f"greedy-cover(samples={samples})"
    return [EntropyEstimate(k, v, "heuristic", method, seed)
            for k, v in _cover_radii(points, q, ks, poll=poll,
                                     counts=counts).items()]


# -- combination calculus ----------------------------------------------------


def _require_upper(est: EntropyEstimate, rule: str):
    if est.kind == "certified_lower":
        raise ValueError(f"{rule} combines upper bounds, got a lower bound")


def combine_sum(a: EntropyEstimate, b: EntropyEstimate) -> EntropyEstimate:
    """e_{k+l-1}(S+T) <= e_k(S) + e_l(T)."""
    _require_upper(a, "combine_sum")
    _require_upper(b, "combine_sum")
    kind = ("certified_upper"
            if a.kind == b.kind == "certified_upper" else "heuristic")
    return EntropyEstimate(a.k + b.k - 1, a.value + b.value, kind,
                           f"sum[{a.method} + {b.method}]")


def combine_scale(norm: float, est: EntropyEstimate) -> EntropyEstimate:
    """e_k(ST) <= ||S|| e_k(T)."""
    if not (norm >= 0):
        raise ValueError("operator norm must be nonnegative")
    _require_upper(est, "combine_scale")
    return EntropyEstimate(est.k, norm * est.value, est.kind,
                           f"scale[{norm:g} * {est.method}]", est.seed)
