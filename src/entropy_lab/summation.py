"""Two-weighted summation operators on trees and their l_p -> l_q norms.

S f(xi) = w(xi) * sum_{xi' <= xi} u(xi') f(xi'), the sum running along the
root path.  The module provides the operator itself, critical weight
schemes and their validator against a profile, a norm oracle (certified
lower bound by multiplicative ascent, upper bound by a generalized Schur
test; its first iterate, row-wise Hoelder, prices the certificate's
blocks), and the Hardy-type norm bounds for subtrees rooted at depth j.

The regime is 1 < p <= q < infinity throughout.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field, fields

import numpy as np

from .hset import HProfile
from .trees import Tree

_TAIL_REL = 1e-12
_TAIL_CAP = 10 ** 6
_ORACLE_TOL = 1e-10
_ORACLE_STEPS = 10_000
_SCHUR_STEPS = 8


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


# the weight fields each kind reads (m_star aside, which the tree reads too)
_SCHEME_READS = {"power-critical": ("kappa", "alpha_u", "alpha_w"),
                 "log-critical": ("kappa", "alpha", "lambda_u", "lambda_w"),
                 "explicit": ("u", "w")}


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
    A weight field that the kind does not read must keep its default.
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
        if self.kind not in _SCHEME_READS:
            raise ValueError(f"unknown weight scheme kind {self.kind!r}")
        reads = ("kind", "m_star", *_SCHEME_READS[self.kind])
        unread = [f.name for f in fields(self) if f.name not in reads
                  and getattr(self, f.name) != f.default]
        if unread:
            raise ValueError(f"{self.kind} weight scheme does not read "
                             f"{', '.join(unread)}")
        if self.kind != "explicit":
            if self.m_star < 1 or self.m_star != int(self.m_star):
                raise ValueError("m_star must be a positive integer")
        elif len(self.u) == 0 or len(self.u) != len(self.w):
            raise ValueError("explicit scheme needs equal-length u, w")
        elif not (_positive(self.u) and _positive(self.w)):
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
    across the columns.  The prefix sums are the tree's Tree.path_scan.
    """
    acc = tree.path_scan(_scale_rows(u, _as_columns(f, tree.n)))
    return _scale_rows(w, acc, out=acc)


def apply_adjoint(tree: Tree, u, w, g):
    """(S^T g)(xi') = u(xi') * sum over descendants xi >= xi' of w(xi) g(xi).

    g, u and w are shaped as in apply.  The descendant sums are the tree's
    Tree.subtree_sums.
    """
    acc = tree.subtree_sums(_scale_rows(w, _as_columns(g, tree.n)))
    return _scale_rows(u, acc, out=acc)


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


def _round_up(x, k: int):
    """A float >= x / (1 - gamma_k), x >= 0: entropy._round_down's upward
    twin.  1 / (1 - gamma_k) = (1 - ku) / (1 - 2ku), both exact, and one
    np.nextafter step up from fl(z) reaches a real z."""
    f = math.nextafter((1 - k * 2.0 ** -53) / (1 - k * 2.0 ** -52), math.inf)
    return np.nextafter(np.multiply(x, f), math.inf)


def _unit_scale(x):
    """(x 2^-e, e), e the exponent of max x, so that the scaled max lies in
    [1/2, 1); (x, 0) where the scaling is inexact, an entry going
    subnormal."""
    e = int(np.frexp(np.max(x))[1])
    y = np.ldexp(x, -e)
    return (y, e) if np.array_equal(np.ldexp(y, e), x) else (x, 0)


def _schur_upper(tree: Tree, u, w, p: float, q: float) -> float:
    """Certified upper bound on ||S||_{p->q}: the least of the row-wise
    Hoelder bound and _SCHUR_STEPS iterates of the generalized Schur test
    (Okikiolu 1970; Zhao 2015) at alpha = 1/2, each rounded outward.  For
    K(x, y) = w_x u_y [y <= x], s <= p' and h1, h2 > 0, sum_y K^{s/2} h1^s
    <= C1 h2^s and sum_x K^{q/2} h2^q <= C2 h1^q give ||S|| <= C1^{1/s}
    C2^{1/q} (Hoelder, then Minkowski, q/p >= 1).  h2^q = first^{q/s},
    first = apply(u^{s/2}, w^{s/2}, h1^s), makes C1 = 1 and C2 = max_y
    second / h1^q, second = apply_adjoint(u^{q/2}, w^{q/2}, h2^q); then
    r = h1^q <- second / max.  At alpha = 1, h1 = 1 it is the Hoelder bound.

    Margin: np.errstate(all="raise") ends the Hoelder bound or the Schur
    iteration at an underflow, overflow or NaN (inf if no bound is reached),
    so every result is normal: +, x, / are within u, a power within 8u (as
    _BasisRows.lower assumes), a rounded exponent moves x^e by 1 +- gamma_720.
    With s = fl(p'), n = |V|: s for p' costs n^{gamma_2} <= 1 + gamma_n;
    first is exact to gamma_{n+745}, so C1^{1/s} <= 1 / (1 - gamma_{n+1465
    +8 ceil(s/q)}) for the h2 the floats define; second / r is exact to
    gamma_{n+18}, its root to 728 more; the Hoelder bound to gamma_{ceil(q/s)
    (n+7) + n + 1464}.  K = (ceil(q/s) + ceil(s/q) + 3) (n + 1000) covers both.
    """
    s = _conj(p)
    k = (math.ceil(q / s) + math.ceil(s / q) + 3) * (tree.n + 1000)
    r, best = np.ones(tree.n), math.inf
    with suppress(FloatingPointError), np.errstate(all="raise"):
        cum = apply(tree, u ** s, r, r)
        best = float(_round_up(_row_hoelder_upper(cum, w, p, q), k))
    with suppress(FloatingPointError), np.errstate(all="raise"):
        up, wp, uq, wq = (x ** (e / 2) for e in (s, q) for x in (u, w))
        for _ in range(_SCHUR_STEPS):
            first = apply(tree, up, wp, r ** (s / q))
            second = apply_adjoint(tree, uq, wq, first ** (q / s))
            c2 = np.max(second / r) ** (1 / q)
            best = min(best, float(_round_up(c2, k)))
            r = second / np.max(second)
    return best


def norm_oracle(tree: Tree, u, w, p: float, q: float,
                cfg: dict | None = None, *, poll=None) -> NormEstimate:
    """Certified two-sided estimate of ||S||_{l_p -> l_q}.

    Lower bound: multiplicative fixed-point ascent f <- (S^T (Sf)^{q-1})^{p'-1}
    from a uniform start and seeded random ones.  A restart freezes once
    ||Sf||_q moves by at most _ORACLE_TOL relative in a step, and later
    steps apply S and S^T to the live restarts only, for _ORACLE_STEPS
    steps at most.  Every iterate is feasible, so ||Sf||_q / ||f||_p at the
    best restart's iterate is a lower bound, optimal or not.

    Upper bound: _schur_upper's generalized Schur test, rounded outward and
    not clamped to the lower bound, so lower <= upper can fail.

    ||S|| is homogeneous in u and w, so both bounds are taken for u 2^-eu
    and w 2^-ew (_unit_scale) and multiplied by 2^(eu + ew), so weights
    far from 1 flush neither the ascent's sums nor the Schur terms to zero.
    That product is exact unless it leaves the normal range; there each
    bound steps outward.

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
    (u, eu), (w, ew) = _unit_scale(u), _unit_scale(w)

    cols = max(1, restarts)
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
    low = _lp_norm(apply(tree, u, w, witness), q) / _lp_norm(witness, p)
    up = _schur_upper(tree, u, w, p, q)
    with np.errstate(over="ignore"):
        lower, upper = (float(np.ldexp(x, eu + ew)) for x in (low, up))
        if np.ldexp(lower, -eu - ew) > low:
            lower = math.nextafter(lower, 0.0)
        if np.ldexp(upper, -eu - ew) < up:
            upper = math.nextafter(upper, math.inf)

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
