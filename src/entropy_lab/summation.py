"""Two-weighted summation operators on trees and their l_p -> l_q norms.

S f(xi) = w(xi) * sum_{xi' <= xi} u(xi') f(xi'), the sum running along the
root path.  The module provides the operator itself, critical weight
schemes and their validator against a profile, a norm oracle (certified
lower bound by multiplicative ascent, certified upper bound by row-wise
Hoelder), and the explicit Hardy-type norm bounds for subtrees rooted at a
given depth.

The regime is 1 < p <= q < infinity throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hset import HProfile
from .trees import Tree

_TAIL_REL = 1e-12
_TAIL_CAP = 10 ** 6
_ORACLE_TOL = 1e-10
_ORACLE_STEPS = 10_000
_GRID_POINTS = 200_000


def _check_pq(p: float, q: float):
    if not (1.0 < p <= q < math.inf):
        raise ValueError(f"need 1 < p <= q < inf, got p={p}, q={q}")


def _conj(p: float) -> float:
    return p / (p - 1.0)


def _positive(x) -> bool:
    """Whether every entry is finite and > 0 (NaN fails the comparison)."""
    x = np.asarray(x, dtype=float)
    return bool(np.all((x > 0) & (x < math.inf)))


@dataclass
class CriticalReport:
    """validate_critical's verdict: the label, each condition checked, and
    whether a power pack sits at the boundary kappa = theta/q."""

    label: str
    conditions: list = field(default_factory=list)
    boundary: bool = False

    def ok(self, name, holds, detail=""):
        self.conditions.append({"name": name, "holds": bool(holds),
                                "detail": detail})
        return bool(holds)

    @property
    def valid(self):
        return self.label in ("critical-power", "critical-log")


_EQ_TOL = 1e-12


def validate_critical(scheme: WeightScheme, h: HProfile, p: float,
                      q: float) -> CriticalReport:
    """Label a weight scheme and profile per the critical-case hypotheses.

    The scheme's kind must match the profile: power-critical for theta > 0,
    log-critical for theta = 0.  Power packs need kappa >= theta/q with the
    sum identity alpha_u + alpha_w = 1/p - 1/q (supercritical kappa) or
    = 1/p together with the strict tail condition alpha_w > (1-gamma)/q
    (boundary kappa).  Log packs need kappa > 0, gamma <= 0 and lambda_u +
    lambda_w = 1/p - 1/q.  Labels: critical-power, critical-log,
    non-critical (valid family, non-critical sum), invalid.
    """
    rep = CriticalReport(label="invalid")
    if not rep.ok("indices", 1 < p <= q, f"need 1 < p <= q, got p={p}, q={q}"):
        return rep
    power = h.theta > 0
    kind = "power-critical" if power else "log-critical"
    if not rep.ok("kind matches theta", scheme.kind == kind,
                  f"theta={h.theta} needs {kind!r}, got {scheme.kind!r}"):
        return rep
    kappa, gamma, theta = scheme.kappa, h.gamma, h.theta
    if power:
        if not rep.ok("kappa >= theta/q", kappa >= theta / q - _EQ_TOL,
                      f"kappa={kappa}, theta/q={theta / q}"):
            return rep
        rep.boundary = abs(kappa - theta / q) <= _EQ_TOL
        aw = scheme.alpha_w
        if rep.boundary and not rep.ok(
                "alpha_w > (1-gamma)/q strictly",
                aw - (1.0 - gamma) / q > _EQ_TOL,
                f"alpha_w={aw}, (1-gamma)/q={(1.0 - gamma) / q}"):
            return rep
        name = "alpha_u + alpha_w = 1/p" + ("" if rep.boundary else " - 1/q")
        total = scheme.alpha_u + aw
    else:
        if not (rep.ok("kappa > 0", kappa > 0, f"kappa={kappa}")
                and rep.ok("gamma <= 0", gamma <= 0, f"gamma={gamma}")):
            return rep
        name = "lambda_u + lambda_w = 1/p - 1/q"
        total = scheme.lambda_u + scheme.lambda_w
    target = 1.0 / p if rep.boundary else 1.0 / p - 1.0 / q
    if rep.ok(name, abs(total - target) <= _EQ_TOL,
              f"sum={total}, target={target}"):
        rep.label = "critical-power" if power else "critical-log"
    else:
        rep.label = "non-critical"
    return rep


def _require_critical(scheme: WeightScheme, h: HProfile, p: float,
                      q: float) -> CriticalReport:
    """The report on (scheme, h); raise ValueError naming the failing
    conditions unless it is a critical pack for 1 < p <= q < inf."""
    _check_pq(p, q)
    rep = validate_critical(scheme, h, p, q)
    if not rep.valid:
        failing = [c["name"] for c in rep.conditions if not c["holds"]]
        raise ValueError(f"scheme is not a critical pack (label {rep.label}; "
                         f"failing: {failing})")
    return rep


# -- weight schemes -------------------------------------------------------


@dataclass(frozen=True)
class WeightScheme:
    """Per-depth weight pair (u_j, w_j).

    kind "power-critical":
        u_j = 2^{kappa m_* j} (m_* j + 1)^{-alpha_u}
        w_j = 2^{-kappa m_* j} (m_* j + 1)^{-alpha_w}
    kind "log-critical" (guarded logarithm L_j = ln(e + m_* j), which equals
    the +1-shifted log up to the guard and is never singular, depth 0
    included):
        u_j = 2^{kappa m_* j} (m_* j + 1)^{alpha}  L_j^{-lambda_u}
        w_j = 2^{-kappa m_* j} (m_* j + 1)^{-alpha} L_j^{-lambda_w}
    kind "explicit": arrays given directly.
    """

    kind: str
    kappa: float = 0.0
    m_star: int = 1
    alpha_u: float = 0.0
    alpha_w: float = 0.0
    alpha: float = 0.0
    lambda_u: float = 0.0
    lambda_w: float = 0.0
    u: tuple = ()
    w: tuple = ()

    def __post_init__(self):
        if self.kind not in ("power-critical", "log-critical", "explicit"):
            raise ValueError(f"unknown weight scheme kind {self.kind!r}")
        if self.kind != "explicit":
            if self.m_star < 1 or self.m_star != int(self.m_star):
                raise ValueError("m_star must be a positive integer")
        else:
            if len(self.u) == 0 or len(self.u) != len(self.w):
                raise ValueError("explicit scheme needs equal-length u, w")
            if not (_positive(self.u) and _positive(self.w)):
                raise ValueError("weights must be finite and strictly positive")



def _depth_weights(scheme: WeightScheme, first: int, count: int):
    """(u, w) at the absolute depths first .. first + count - 1.

    The exponential factor is anchored at `first` (u scaled by
    2^{-kappa m_* first}, w by its reciprocal).  The kernel w(xi) u(xi') is
    unchanged, so norms and entropy numbers are identical, but entries stay
    inside float64 range for deep subtrees.
    """
    if scheme.kind == "explicit":
        if len(scheme.u) < first + count:
            raise ValueError("explicit scheme shorter than requested depth")
        return (np.asarray(scheme.u[first:first + count], dtype=float),
                np.asarray(scheme.w[first:first + count], dtype=float))
    mj = scheme.m_star * (first + np.arange(count, dtype=float))
    expo = np.exp2(scheme.kappa * (mj - scheme.m_star * float(first)))
    if scheme.kind == "power-critical":
        u = expo * (mj + 1.0) ** (-scheme.alpha_u)
        w = (mj + 1.0) ** (-scheme.alpha_w) / expo
    else:
        big_l = np.log(np.e + mj)
        u = expo * (mj + 1.0) ** scheme.alpha * big_l ** (-scheme.lambda_u)
        w = (mj + 1.0) ** (-scheme.alpha) * big_l ** (-scheme.lambda_w) / expo
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(w))
            and np.all(u > 0) and np.all(w > 0)):
        raise ValueError("weight scheme produced nonpositive or infinite values")
    return u, w


def weights_for_tree(scheme: WeightScheme, tree: Tree, start_depth: int = 0):
    """Per-vertex weights for a subtree rooted at absolute depth start_depth,
    with the exponential factor anchored at start_depth."""
    u, w = _depth_weights(scheme, start_depth, tree.height + 1)
    return u[tree.depth], w[tree.depth]


# -- the operator ---------------------------------------------------------


def _as_columns(f, n):
    f = np.asarray(f, dtype=float)
    if f.shape[0] != n:
        raise ValueError(f"vector has leading dimension {f.shape[0]}, tree has {n}")
    return f


def _scale_rows(vec, x, out=None):
    """Row xi of x times vec[xi]; a vec shaped like x is taken as is."""
    vec = np.asarray(vec, dtype=float)
    return np.multiply(vec if vec.ndim == x.ndim else vec[:, None], x,
                       out=out)


def apply(tree: Tree, u, w, f):
    """g(xi) = w(xi) * prefix sum of u*f along the root path; O(|V|).

    f may be a vector or a (|V|, r) block of columns processed together;
    u and w are per-vertex vectors, or blocks shaped like f that repeat them
    across the columns.  The prefix sums run one depth level at a time over
    the tree's cached level plan.
    """
    f = _as_columns(f, tree.n)
    acc = _scale_rows(u, f)
    for level in tree.levels()[1:]:
        acc[level.ids] += acc[level.parent]
    return _scale_rows(w, acc, out=acc)


def apply_adjoint(tree: Tree, u, w, g):
    """(S^T g)(xi') = u(xi') * sum over descendants xi >= xi' of w(xi) g(xi).

    g, u and w are shaped as in apply.  The descendant sums run one depth
    level at a time, deepest first, over the tree's cached level plan: a
    level with sorted parent ids adds its per-parent child sums
    (np.add.reduceat, or two strided slices when every parent has two
    children) into the parents' rows, any other level scatters through
    np.add.at.
    """
    g = _as_columns(g, tree.n)
    acc = _scale_rows(w, g)
    for level, seg in zip(tree.levels()[:0:-1], tree.segments()[:0:-1]):
        vals = acc[level.ids]
        if seg is None:
            np.add.at(acc, level.parent, vals)
        elif seg.pairs:
            acc[seg.targets] += vals[0::2] + vals[1::2]
        else:
            acc[seg.targets] += np.add.reduceat(vals, seg.starts, axis=0)
    return _scale_rows(u, acc, out=acc)


def operator_matrix(tree: Tree, u, w) -> np.ndarray:
    """Dense matrix of S (row xi, column xi'); for small trees and tests."""
    cols = apply(tree, u, w, np.eye(tree.n))
    return cols


# -- norm oracle ------------------------------------------------------------


@dataclass
class NormEstimate:
    lower: float
    upper: float
    witness: np.ndarray
    meta: dict = field(default_factory=dict)


def _lp_norm(x, p, axis=0):
    mag = np.abs(x)
    mag **= p
    return np.sum(mag, axis=axis) ** (1.0 / p)


def _row_hoelder_upper(cum, w, p: float, q: float) -> float:
    """(sum_xi ||row_xi||_{p'}^q)^{1/q} from cum = apply(tree, u**p', 1, 1),
    without forming the matrix; zero rows (u zeroed outside a depth window)
    drop out."""
    pp = _conj(p)
    live = cum != 0
    return float(np.sum(np.asarray(w)[live] ** q * cum[live] ** (q / pp))
                 ** (1.0 / q))


def _simplex_grid_upper(tree: Tree, u, w, p: float, q: float,
                        hoelder: float) -> float:
    """Tightened upper bound for |V| <= 12 by sign-free grid maximization.

    For the nonnegative kernel the norm is attained at f >= 0, so f = g^{1/p}
    with g on the probability simplex.  Any such g has a grid point within
    l1 distance V/N, and |a^{1/p} - b^{1/p}|^p <= |a - b| turns that into an
    l_p mesh of (V/N)^{1/p}; the Hoelder bound is a Lipschitz constant.
    """
    from itertools import combinations

    n = tree.n
    nn = 1
    while math.comb(nn + n, n - 1) <= _GRID_POINTS:
        nn += 1
    mat = operator_matrix(tree, u, w)
    # compositions of nn into n parts via stars and bars, as one array
    bars = np.array(list(combinations(range(nn + n - 1), n - 1)), dtype=np.int64)
    edges = np.hstack([np.full((bars.shape[0], 1), -1), bars,
                       np.full((bars.shape[0], 1), nn + n - 1)])
    g = np.diff(edges, axis=1) - 1
    f = (g / nn) ** (1.0 / p)
    best = float(np.max(_lp_norm(mat @ f.T, q, axis=0)))
    return float(best + hoelder * (n / nn) ** (1.0 / p))


def norm_oracle(tree: Tree, u, w, p: float, q: float,
                cfg: dict | None = None, *, poll=None) -> NormEstimate:
    """Certified two-sided estimate of ||S||_{l_p -> l_q}.

    Lower bound: multiplicative fixed-point ascent (the power-method
    generalization f <- (S^T (Sf)^{q-1})^{p'-1}), restarted from a uniform
    vector plus seeded random starts.  Each restart stops on its own once
    ||Sf||_q changes by at most _ORACLE_TOL relative in one step; its
    iterate and value are frozen there, and later steps apply S and S^T
    to the live restarts only; the ascent ends after _ORACLE_STEPS steps
    at most.  Every iterate is a feasible point, so the
    ratio ||Sf||_q / ||f||_p recomputed at the best restart's iterate is a
    certified lower bound even when the ascent is not provably globally
    optimal.

    Upper bound: row-wise Hoelder, tightened by a simplex-grid search for
    trees with at most 12 vertices; the smaller certified value is returned.

    poll, if given, is called once before each ascent step; when it
    returns a cap name the ascent stops and the bounds are computed from
    the iterates reached (still certified).

    meta["iterations"] counts ascent steps; meta["restart_iterations"]
    holds, per restart, the step at which it stopped.
    """
    cfg = dict(cfg or {})
    restarts = int(cfg.pop("restarts", 16))
    seed = int(cfg.pop("seed", 0))
    if cfg:
        raise ValueError(f"unknown cfg keys: {sorted(cfg)}")
    _check_pq(p, q)
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if u.shape != (tree.n,) or w.shape != (tree.n,):
        raise ValueError("u, w must be per-vertex arrays")
    if not (_positive(u) and _positive(w)):
        raise ValueError("weights must be finite and strictly positive")

    cols = max(1, restarts)
    if tree.n == 1:
        v = float(u[0] * w[0])
        return NormEstimate(v, v, np.ones(1),
                            {"iterations": 0, "seed": seed, "restarts": restarts,
                             "restart_iterations": [0] * cols})

    pp = _conj(p)
    # row r is restart r: its final iterate, and first its start
    final = np.empty((cols, tree.n))
    final[0] = 1.0
    for r in range(1, cols):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6f7261, r]))
        final[r] = np.abs(rng.standard_normal(tree.n)) + 1e-12
    final /= _lp_norm(final, p, axis=1)[:, None]

    # the live restarts' iterates as the columns of one (|V|, k) block, and
    # the weights as blocks of the same shape, so each of the four scalings
    # per step multiplies elementwise instead of broadcasting a column
    live = np.arange(cols)
    f = np.ascontiguousarray(final.T)
    t = np.empty_like(f)
    ub = np.repeat(u[:, None], cols, axis=1)
    wb = np.repeat(w[:, None], cols, axis=1)
    # |g|^q and |f|^p per live restart, one contiguous row each, so the
    # norms are row sums
    powers = np.empty((cols, tree.n))
    vals = np.zeros(cols)
    stopped = np.zeros(cols, dtype=np.int64)
    iterations = 0
    for it in range(1, _ORACLE_STEPS + 1):
        if poll is not None and poll() is not None:
            break
        iterations = it
        # the kernel and the iterates are positive: no abs, and
        # |g|^q = g^(q-1) * g reuses the pow that feeds the adjoint
        g = apply(tree, ub, wb, f)
        np.power(g, q - 1.0, out=t)
        rows = powers[:live.size]
        np.multiply(t.T, g.T, out=rows)
        new_vals = np.sum(rows, axis=1) ** (1.0 / q)
        done = (np.abs(new_vals - vals[live])
                <= _ORACLE_TOL * np.maximum(new_vals, 1e-300))
        vals[live] = new_vals
        if done.any():
            stopped[live[done]] = it
            final[live[done]] = f[:, done].T
            keep = ~done
            live, f, t = live[keep], f[:, keep], t[:, keep]
            if live.size == 0:
                break
            ub = np.repeat(u[:, None], live.size, axis=1)
            wb = np.repeat(w[:, None], live.size, axis=1)
        z = apply_adjoint(tree, ub, wb, t)
        # f = z^(p'-1), so |f|^p = z^(p') = z * f
        np.power(z, pp - 1.0, out=f)
        rows = powers[:live.size]
        np.multiply(z.T, f.T, out=rows)
        f /= np.sum(rows, axis=1) ** (1.0 / p)
    stopped[live] = iterations
    final[live] = f.T

    best = int(np.argmax(vals))
    witness = final[best].copy()
    lower = float(_lp_norm(apply(tree, u, w, witness), q) / _lp_norm(witness, p))

    ones = np.ones(tree.n)
    upper = _row_hoelder_upper(apply(tree, u ** pp, ones, ones), w, p, q)
    if tree.n <= 12:
        upper = min(upper, _simplex_grid_upper(tree, u, w, p, q, upper))
    upper = max(upper, lower)
    meta = {"iterations": iterations, "seed": seed, "restarts": restarts,
            "restart_iterations": stopped.tolist()}
    return NormEstimate(lower, upper, witness, meta)


# -- Hardy-type analytic bounds ---------------------------------------------


def hardy_bound(scheme: WeightScheme, h: HProfile, p: float, q: float,
                j: int) -> float:
    """Explicit norm bound for the summation operator on a subtree rooted
    at depth j, under the critical-case hypotheses.

    kappa > theta/q: the bound is sup_{s >= j} u_s w_s, which for the
    power-critical scheme in Hardy normalization (unshifted powers
    (m_* s)^{-alpha}) is (m_* j)^{1/q - 1/p} exactly.

    kappa = theta/q: sup over s >= j of
        (sum_{i=j}^s (m_* i)^{-p' alpha_u} 2^{p' kappa m_* i})^{1/p'}
        * (tail series)^{1/q},
    evaluated in anchored form (the 2^{+-kappa m_* s} factors cancel
    analytically); the tail series extends until the increment drops below
    1e-12 of the running value, capped at 1e6 terms.

    Raises ValueError naming the failing Assumption condition when the
    scheme is not a valid critical pack.
    """
    rep = _require_critical(scheme, h, p, q)
    if j < 1:
        raise ValueError("start depth j must be >= 1 (Hardy normalization)")

    m = scheme.m_star
    scan_hi = max(8 * j, j + 128)

    if not rep.boundary:
        s = np.arange(j, scan_hi + 1, dtype=float)
        if scheme.kind == "power-critical":
            uw = (m * s) ** (-(scheme.alpha_u + scheme.alpha_w))
        else:
            uw = np.log(np.e + m * s) ** (-(scheme.lambda_u + scheme.lambda_w))
        return float(np.max(uw))

    # boundary case kappa = theta/q
    pp = _conj(p)
    au, aw = scheme.alpha_u, scheme.alpha_w
    gam, tau = h.gamma, h.tau
    kap = scheme.kappa

    # tail series sum_{i>=s} (m i)^{-q aw - gam} / tau(m i); stop once the
    # increment falls below _TAIL_REL of the running sum, cap _TAIL_CAP terms
    i = np.arange(j, j + _TAIL_CAP, dtype=float)
    terms = (m * i) ** (-q * aw - gam) / np.asarray(tau(m * i), dtype=float)
    csum = np.cumsum(terms)
    stop = np.nonzero(terms[1:] < _TAIL_REL * csum[:-1])[0]
    n_terms = int(stop[0]) + 2 if stop.size else _TAIL_CAP
    total = float(csum[n_terms - 1])
    # suffix sums for every candidate s in the scan window
    idx_hi = min(scan_hi - j, n_terms - 1)
    suffix = total - np.concatenate(([0.0], csum[:idx_hi]))

    best = 0.0
    prefix = 0.0
    decay = 2.0 ** (-pp * kap * m)
    for si, s in enumerate(range(j, j + idx_hi + 1)):
        # anchored prefix sum_{i=j}^s (m i)^{-p' au} 2^{p' kappa m (i - s)},
        # grown by one term per step of s
        prefix = prefix * decay + (m * s) ** (-pp * au)
        tail = (m * s) ** gam * float(tau(m * s)) * float(suffix[si])
        best = max(best, prefix ** (1.0 / pp) * tail ** (1.0 / q))
    return float(best)
