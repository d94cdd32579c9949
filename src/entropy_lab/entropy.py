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
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

_KINDS = ("certified_lower", "certified_upper", "heuristic")
_SAMPLED_K_CAP = 24
_DEFAULT_SAMPLES = 2 ** 14
_BLOCK_BYTES = 2 ** 20
_BALL_TAG = 0x6c7062
_SPHERE_TAG = 0x6c7073
_NET_CAP = 4_000_000
_GRAM_MAX = 2.0 ** 1018   # squared norms the q = 2 filter takes
_GRAM_PAD = 2.0 ** -1070  # 16 least subnormals, per column
_REPLAY_PAIRS = 2 ** 14   # (row, center) pairs one replay call takes at most


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
    the coordinates are uniform on [-1, 1].  At p = 2 that density is a
    Gaussian's, so the coordinates are standard normal draws, with no
    gamma draw, sign draw or power: a normalized Gaussian vector is
    exactly uniform on the l_2 sphere, because its law is rotation
    invariant (Muller 1959).  Counter-based generator keyed by (seed, tag)
    for reproducibility.  Every coordinate is drawn straight into the
    result in one call; then, one _block_rows row block at a time, the
    signs are drawn (at p other than 2 and inf) and the rows normalized
    through reused block-sized scratch, so the only sample-sized array is
    the result.  A Philox stream is a function of its key and a counter,
    consumed in sequence, so the per-block sign draws give the numbers of
    one call over the whole array (Salmon et al., SC 2011; test_entropy
    pins this for each call used here).
    """
    out = np.empty((n_samples, nu))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, tag])))
    if p == 2:
        rng.standard_normal(out=out)
    elif math.isinf(p):
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
        elif p == 2:
            np.multiply(x, x, out=block)
            np.sum(block, axis=1, out=norm)
            np.sqrt(norm, out=norm)
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


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _submit(executor, fn, *args):
    """executor.submit(fn, *args), run under the calling thread's numpy
    floating-point error settings: np.errstate is thread-local, so a worker
    thread would otherwise warn (or raise) by numpy's defaults."""
    err, call = np.geterr(), np.geterrcall()

    def task():
        with np.errstate(call=call, **err):
            return fn(*args)
    return executor.submit(task)


class _LqPasses:
    """l_q distance passes from centers to the rows of a fixed pool.

    A pass min-folds each row's distance to one center into the caller's
    `dist` (a first pass folds into +inf); `pairs` min-folds the
    distances of given (row, center) pairs, so one call can fold one
    row's distances to many centers (the radius replay of _exact_radii).
    Rows go through the per-row arithmetic in blocks of about
    _BLOCK_BYTES: each block's x - c goes into a reused scratch buffer (a
    pair block gathers its rows into one and their centers into another),
    is reduced per row, and is folded, so no pass allocates anything
    pool-sized.  The blocks are split into contiguous
    chunks, one per CPU and never more than there are blocks; the calling
    thread runs the first chunk and a thread pool the others, in parallel
    because numpy's ufuncs and einsum release the GIL, and under the
    caller's np.errstate (see _submit).  Per row the arithmetic is the
    one-shot expression's (same subtraction, same reduction over a 2-D
    block of at least min_rows rows, same final power; the |x - c| is
    skipped where q = 2 or 4 squares it, since IEEE squaring is
    sign-blind), so every distance is bit-identical to it, bar the sign
    bit of a NaN, whichever block, pass or pair it is computed in, and
    none depends on the thread count.

    At q = 2 a pass first runs the Gram filter of _candidates and sends
    only the rows it cannot rule out through that arithmetic, gathered
    into the same blocks; every other row provably keeps its `dist` bits.
    Use as a context manager: the threads live until exit.
    """

    def __init__(self, points: np.ndarray, q: float):
        n, m = points.shape
        self.points, self.q = points, q
        # capped at n: a pass never needs more, and the pairs of a pairs
        # call, which may outnumber the rows, must fit the buffers
        self.rows = max(1, min(_block_rows(m), n))
        n_cpus = max(1, min(_cpu_count(), -(-n // self.rows)))
        # einsum sums a lone row in one loop but the rows of a taller
        # operand in buffer-sized pieces, which rounds differently for wide
        # rows; reducing over >= 2 rows whenever the pool has them keeps a
        # one-row block rounding like that row inside the whole pool
        self.min_rows = min(n, 2)
        buf_rows = max(self.rows, self.min_rows)
        # a pair block gathers its centers into the third buffer
        self.scratch = [(np.zeros((buf_rows, m)), np.empty(buf_rows),
                         np.empty((buf_rows, m))) for _ in range(n_cpus)]
        self.executor = (ThreadPoolExecutor(n_cpus - 1)
                         if n_cpus > 1 else None)
        if q == 2.0:
            self.pad = m * _GRAM_PAD
            self.coef = 8.0 * (m + 2) * 2.0 ** -53
            with np.errstate(invalid="ignore", over="ignore"):
                sq = np.einsum("ij,ij->i", points, points)
                self.base = sq - self.coef * (sq + self.pad)
            self.base[~(sq <= _GRAM_MAX)] = np.nan
            self.lo = np.empty(n)
            self.skip = np.empty(n, dtype=bool)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.executor is not None:
            self.executor.shutdown()

    def __call__(self, center: np.ndarray, dist: np.ndarray) -> int:
        """dist = min(dist, distances to `center`); returns the number of
        rows whose distance was computed."""
        idx = self._candidates(center, dist) if self.q == 2.0 else None
        if idx is not None and idx.size == dist.size:
            idx = None
        self._split(center, dist, idx, None)
        return dist.size if idx is None else idx.size

    def pairs(self, rows: np.ndarray, cols: np.ndarray, centers: np.ndarray,
              dist: np.ndarray):
        """dist[r] = min(dist[r], distance of row r to centers[c]) for each
        pair (r, c) of `rows` and `cols`; a row may appear in many pairs.
        A block gathers its rows, as a filtered q = 2 pass does, and the
        centers they pair with."""
        out = np.empty(rows.size)
        self._split(centers, out, rows, cols)
        np.minimum.at(dist, rows, out)

    def _split(self, center, dist, idx, cols):
        """Run _chunk over all rows (or all of idx) on the threads."""
        k = dist.size if idx is None else idx.size
        n_blocks = -(-k // self.rows)
        n_parts = max(1, min(len(self.scratch), n_blocks))
        edges = [min(k, n_blocks * i // n_parts * self.rows)
                 for i in range(n_parts + 1)]
        futures = [_submit(self.executor, self._chunk, i, edges[i],
                           edges[i + 1], center, dist, idx, cols)
                   for i in range(1, n_parts)]
        self._chunk(0, edges[0], edges[1], center, dist, idx, cols)
        for f in futures:
            f.result()

    def _candidates(self, center, dist):
        """Rows whose distance to `center` may fall below their `dist`.

        For a row x and the center c, of width m, the filter forms
        lo^2 = fl(fl(-2 g + a_x) + b) from the BLAS product g = fl(x . c),
        a_x = fl(n_x - fl(C fl(n_x + A))) (once per pool) and
        b = n_c - C (n_c + A) - A, where n_x, n_c are the computed squared
        norms, C = 8 (m + 2) u and A = m 2^-1070.  It is certified: with
        u = 2^-53, gamma_k = k u / (1 - k u), eta = 2^-1074, d = ||x - c||
        and R* = (||x|| + ||c||)^2 <= 2 (||x||^2 + ||c||^2), in any
        summation order, with or without FMA and gradual underflow,
          exact kernel  S = fl(sum fl(x_i - c_i)^2) >= (1 - gamma_{m+2})
                        d^2 - m eta, and it returns fl(sqrt(S));
          Gram terms    |n_x - ||x||^2| <= gamma_m ||x||^2 + m eta, alike
                        for n_c, and |g - x . c| <= gamma_m ||x|| ||c||
                        + m eta, so T = n_x - 2 g + n_c <= d^2 + gamma_m
                        R* + 4 m eta and S >= T - (gamma_m +
                        gamma_{m+2}) R* - 5 m eta;
          rounding      the two sums and a_x, b add at most 3u (n_x +
                        2|g| + n_c) + 3 eta <= 3u (1 + gamma_m) R* + 3 eta.
        Since R* <= 2 (n_x + n_c + 2 m eta) (1 + 2 gamma_m), the
        subtracted C (n_x + n_c + 2A) + A covers all of it for
        (m + 2) u <= 2^-4, so lo^2 <= S, and as sqrt is correctly rounded
        and monotone, lo = fl(sqrt(max(lo^2, 0))) <= fl(sqrt(S)).  A row
        with lo >= dist therefore has min(dist, exact) == dist bit for
        bit.  Squared norms above _GRAM_MAX = 2^1018 (and inf or NaN ones)
        make a_x or b NaN, so nothing overflows: a NaN lo fails
        `lo >= dist` like a NaN or +inf dist does, and those rows take
        the exact path.
        """
        lo, skip = self.lo, self.skip
        sq_c = float(np.dot(center, center))
        b = (sq_c - self.coef * (sq_c + self.pad) - self.pad
             if sq_c <= _GRAM_MAX else math.nan)
        with np.errstate(invalid="ignore", over="ignore"):
            np.dot(self.points, center, out=lo)
            lo *= -2.0
            lo += self.base
            lo += b
            np.maximum(lo, 0.0, out=lo)
            np.sqrt(lo, out=lo)
            np.greater_equal(lo, dist, out=skip)
        np.logical_not(skip, out=skip)
        return np.flatnonzero(skip)

    def _chunk(self, i, start, stop, center, dist, idx, cols):
        """Fold rows start:stop (of idx, when given) into dist.  With cols,
        item j is the pair (idx[j], cols[j]), `center` holds the centers,
        and the distance goes to dist[j] unfolded."""
        q = self.q
        buf, red, cbuf = self.scratch[i]
        for s in range(start, stop, self.rows):
            e = min(s + self.rows, stop)
            if idx is None:
                rows = slice(s, e)
                diff = np.subtract(self.points[rows], center,
                                   out=buf[:e - s])
            else:
                rows = idx[s:e]
                diff = np.take(self.points, rows, axis=0, out=buf[:e - s],
                               mode="clip")
                if cols is None:
                    diff -= center
                else:
                    diff -= np.take(center, cols[s:e], axis=0,
                                    out=cbuf[:e - s], mode="clip")
            # rows past e - s are stale or zero; their sums are discarded
            wide = buf[:max(e - s, self.min_rows)]
            out = red[:wide.shape[0]]
            if math.isinf(q):
                np.abs(diff, out=diff)
                np.max(wide, axis=1, out=out)
            elif q == 2.0:
                np.einsum("ij,ij->i", wide, wide, out=out)
                np.sqrt(out, out=out)
            elif q == 4.0:
                diff *= diff
                np.einsum("ij,ij->i", wide, wide, out=out)
                out **= 0.25
            else:
                np.abs(diff, out=diff)
                diff **= q
                np.sum(wide, axis=1, out=out)
                out **= 1.0 / q
            if cols is not None:
                dist[s:e] = out[:e - s]
                continue
            out = np.minimum(dist[rows], out[:e - s], out=out[:e - s])
            dist[rows] = out


def _lq_dist(points: np.ndarray, center: np.ndarray, q: float) -> np.ndarray:
    """l_q distance of every row of `points` to `center`."""
    dist = np.full(points.shape[0], np.inf)
    with _LqPasses(points, q) as lq_pass:
        lq_pass(center, dist)
    return dist


class _SparsePasses:
    """l_q distance passes from a dense center to rows stored sparsely.

    Row r is zero but for data[starts[r]:starts[r + 1]] at the columns
    indices[starts[r]:starts[r + 1]].  For a center c,
        ||x - c||_q^q = ||c||_q^q + sum_{j in row} (|x_j - c_j|^q - |c_j|^q),
    clamped at 0, so a pass costs O(nnz + width) through one reused
    nnz-sized buffer; it min-folds the distances into the caller's `dist`
    as _LqPasses does.  The value rounds differently from the dense
    kernel's and loses relative accuracy where the distance is small next
    to the norms, so it serves selection, never a certified radius.
    q must be finite.
    """

    def __init__(self, starts, indices, data, q: float, width: int):
        if not 1.0 <= q < math.inf:
            raise ValueError(f"sparse rows need a finite q >= 1, got {q}")
        self.starts = np.asarray(starts, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=float)
        nnz = int(self.starts[-1])
        if self.indices.shape != (nnz,) or self.data.shape != (nnz,):
            raise ValueError(f"sparse rows need {nnz} indices and data")
        if nnz and not 0 <= self.indices.min() <= self.indices.max() < width:
            raise ValueError(f"sparse row indices must lie in [0, {width})")
        self.q = q
        counts = np.diff(self.starts)
        # reduceat sums from one head to the next, so empty rows take none
        self.rows = slice(None) if counts.all() else np.flatnonzero(counts)
        self.heads = self.starts[:-1][self.rows]
        self.buf = np.empty(nnz)
        self.part = np.empty(self.heads.size)
        self.cq = np.empty(width)
        self.out = np.empty(counts.size)

    def _abs_pow(self, x):
        """x = |x|^q in place; squaring is sign-blind."""
        if self.q == 2.0 or self.q == 4.0:
            x *= x
            if self.q == 4.0:
                x *= x
        else:
            np.abs(x, out=x)
            x **= self.q

    def row(self, r: int, out: np.ndarray):
        """Scatter row r into `out`, which holds zeros."""
        s, e = self.starts[r], self.starts[r + 1]
        out[self.indices[s:e]] = self.data[s:e]

    def __call__(self, center: np.ndarray, dist: np.ndarray):
        """dist = min(dist, distances to `center`)."""
        buf, part, out, cq = self.buf, self.part, self.out, self.cq
        np.copyto(cq, center)
        self._abs_pow(cq)
        out.fill(np.sum(cq))
        if part.size:
            # the indices are checked, so clipping (which takes without
            # buffering) changes none of them
            np.take(cq, self.indices, out=buf, mode="clip")
            np.add.reduceat(buf, self.heads, out=part)
            out[self.rows] -= part
            np.take(center, self.indices, out=buf, mode="clip")
            np.subtract(self.data, buf, out=buf)
            self._abs_pow(buf)
            np.add.reduceat(buf, self.heads, out=part)
            out[self.rows] += part
        np.maximum(out, 0.0, out=out)
        out **= 1.0 / self.q
        np.minimum(dist, out, out=dist)


def _farthest_point_run(points: np.ndarray, q: float, n_select: int,
                        start: int, *, sparse=None, poll=None, counts=None):
    """Select n_select points by farthest-point traversal from `start`.

    Returns (selected indices, radii): radii[i] is the distance of
    selection i+1 from the previous centers.  Ties pick the lowest index
    and NaN ranks above every number, as np.argmax does.  poll, if given,
    is called once before each selection after the first; when it returns
    a cap name the run stops and returns what it has selected so far.
    counts, if given, is a dict that receives the numbers of (row, center)
    distances the run computes: "dense_evals" through _LqPasses on the
    rows of `points`, "sparse_evals" through _SparsePasses on the sparse
    rows and "replay_evals" through _exact_radii.

    Each center gets one _LqPasses pass over the rows of `points`, so
    every row holds its distance to all centers so far and the argmax is
    the greedy traversal's pick (Gonzalez, Theoret. Comput. Sci. 38,
    1985).  At q = 2 the pass's Gram filter recomputes only the rows whose
    distance may fall.

    sparse, if given, is a (starts, indices, data) triple of rows as wide
    as `points` and stored sparsely (see _SparsePasses).  They come first:
    index j < n_sparse is sparse row j and n_sparse + i is points[i].
    Every center is copied into one dense buffer, a selected sparse row
    scattered into it, and every sparse row gets a pass per center.  The
    sparse rows' distances round differently, so rows that tie in exact
    arithmetic can break either way, and a selected sparse row's own
    distance is set to 0 (a dense row keeps its computed one, NaN for a
    row holding a NaN).  When there are sparse rows, every radius is still
    made an exact-kernel value: after the traversal, radius k is replayed
    as min over i < k of the _LqPasses distance from center k to center
    i.  (A dense row's distance is that value already unless `points` has
    a single row, which einsum reduces on its own.)  Radii then need not
    be nonincreasing; their running minimum is the least pairwise distance
    of the centers so far.  Without sparse rows they are nonincreasing.
    """
    n_sparse = 0 if sparse is None else len(sparse[0]) - 1
    dist = np.full(n_sparse + points.shape[0], np.inf)
    dense = dist[n_sparse:]
    centers = np.zeros((max(n_select, 1), points.shape[1]))
    evals = dict.fromkeys(("dense_evals", "sparse_evals", "replay_evals"), 0)
    selected = []
    radii = []
    c = start
    with _LqPasses(points, q) as lq_pass:
        if sparse is not None:
            sparse_pass = _SparsePasses(*sparse, q, points.shape[1])
        while True:
            center = centers[len(selected)]
            selected.append(c)
            if c < n_sparse:
                sparse_pass.row(c, center)
            else:
                center[:] = points[c - n_sparse]
            if n_sparse:
                sparse_pass(center, dist[:n_sparse])
                evals["sparse_evals"] += n_sparse
            evals["dense_evals"] += lq_pass(center, dense)
            if c < n_sparse:
                # the sparse arithmetic leaves a center's own row near
                # 0, not at it, and that row must not be picked again
                dist[c] = 0.0
            if len(selected) >= n_select or (poll is not None
                                             and poll() is not None):
                break
            c = int(np.argmax(dist))
            radii.append(float(dist[c]))
    del lq_pass  # its scratch goes before the replay takes its own
    if n_sparse and len(selected) > 1:
        radii = _exact_radii(centers[:len(selected)], q)
        evals["replay_evals"] += len(radii) * (len(radii) + 1) // 2
    if counts is not None:
        counts.update(evals)
    return selected, radii


def _exact_radii(centers: np.ndarray, q: float) -> list:
    """[min over i < k of the _LqPasses distance from centers[k] to
    centers[i] for k >= 1], from one _LqPasses over the centers: row k
    is paired with each earlier center, at most about _REPLAY_PAIRS
    pairs at once.  The pool has at least 2 rows, so no block reduces a lone
    row, which einsum rounds differently for wide rows; and the kernel is
    symmetric in its two vectors, since |fl(a - b)| = |fl(b - a)|."""
    n = centers.shape[0]
    radii = np.full(n, np.inf)
    with _LqPasses(centers, q) as lq_pass:
        k = 1
        while k < n:
            # rows k .. stop - 1 hold k + (k + 1) + ... + (stop - 1) pairs
            stop = min(n, max(k + 1, math.isqrt(k * k + 2 * _REPLAY_PAIRS)))
            ks = np.arange(k, stop)
            rows = np.repeat(ks, ks)
            ends = np.cumsum(ks)
            cols = np.arange(ends[-1]) - np.repeat(ends - ks, ks)
            lq_pass.pairs(rows, cols, centers, radii)
            k = stop
    return radii[1:].tolist()


def _sampled_images(matrix, p: float, ks, samples: int, seed: int):
    """Sorted distinct indices (validated) and the images of `samples`
    l_p-ball points: the common prologue of the sampled estimators."""
    matrix = np.asarray(matrix, dtype=float)
    ks = sorted(set(int(k) for k in ks))
    if not ks or ks[0] < 1:
        raise ValueError("indices must be >= 1")
    if ks[-1] > _SAMPLED_K_CAP:
        raise ValueError(f"k capped at {_SAMPLED_K_CAP} for sampled methods")
    return ks, sample_lp_ball(matrix.shape[1], p, samples, seed) @ matrix.T


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
        centroid = points.mean(axis=0)
        start = int(np.argmin(_lq_dist(points, centroid, q)))
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
    radii = []
    if feasible and np.any(points):
        _, radii = _farthest_point_run(points, q,
                                       2 ** (feasible[-1] - 1) + 1, start=0)
    out = [EntropyEstimate(k, radii[2 ** (k - 1) - 1] / 2.0 if radii else 0.0,
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
