"""Branching profiles h(t) = t^theta |log t|^gamma tau(|log t|) and their trees.

The profile drives everything downstream: generated trees realize the
two-sided per-vertex cardinality bounds, the multiscale schedule turns the
profile's growth rate into layer indices t_*(n), t_**(n), and the critical
parameter validator labels weight packs before any certificate is built.

|log t| is implemented as log(e + 1/t) on (0, 1]: same asymptotics near 0,
no zero at t = 1 (documented reparametrization).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# -- slowly varying factors (closed catalog) -----------------------------


@dataclass(frozen=True)
class TauFn:
    """Member of the closed catalog of slowly varying factors.

    kind "const": tau(x) = 1
    kind "log-power": tau(x) = (ln(e + x))^nu
    kind "iterated-log": tau(x) = ln(e + ln(e + x))

    Each is slowly varying: tau(t y) / tau(y) stays within a constant of
    t^{+-eps} for every eps > 0.  HProfile rejects any other callable, so
    every generated tree's profile has that property.
    """

    kind: str
    nu: float = 0.0

    def __post_init__(self):
        if self.kind not in ("const", "log-power", "iterated-log"):
            raise ValueError(f"tau kind {self.kind!r} not in the catalog")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "const":
            return np.ones_like(x)
        if self.kind == "log-power":
            return np.log(np.e + x) ** self.nu
        return np.log(np.e + np.log(np.e + x))

    def log2_at_log2_arg(self, lx: float) -> float:
        """log2 tau(2^lx) without forming 2^lx (overflow guard)."""
        if self.kind == "const":
            return 0.0
        inner = float(np.logaddexp(1.0, lx * math.log(2)))  # ln(e + 2^lx)
        if self.kind == "log-power":
            return self.nu * math.log2(inner)
        return math.log2(math.log(math.e + inner))


TAU_CONST = TauFn("const")


@dataclass(frozen=True)
class HProfile:
    """h(t) = t^theta |log t|^gamma tau(|log t|), with census constant c3."""

    theta: float
    gamma: float = 0.0
    tau: TauFn = TAU_CONST
    c3: float = 4.0

    def __post_init__(self):
        if self.theta < 0:
            raise ValueError("theta must be >= 0")
        if self.c3 < 1:
            raise ValueError("c3 must be >= 1")
        if not isinstance(self.tau, TauFn):
            raise ValueError("tau must come from the TauFn catalog")


def h_level_target(h: HProfile, m_star: int, j, start_depth: int = 0):
    """Cumulative layer-size target h(2^{-m_* j0}) / h(2^{-m_* (j0+j)}).

    Computed in log space so theta m_* j in the hundreds stays finite.
    j is the depth offset below the (absolute) start depth j0.
    """
    j = np.asarray(j, dtype=float)
    j0 = float(start_depth)

    def log_h(depth):
        x = m_star * depth * math.log(2)  # = |log t| up to the guard
        big_l = np.logaddexp(1.0, x)  # ln(e + 2^{m_* depth}) = ln(e + e^x)
        return -h.theta * x + h.gamma * np.log(big_l) + np.log(h.tau(big_l))

    return np.exp(log_h(j0) - log_h(j0 + j))


# -- tree generation ------------------------------------------------------


def generate_hset_tree(h: HProfile, m_star: int, depth: int, seed: int,
                       start_depth: int = 0):
    """Tree whose per-vertex descendant counts track the h-profile.

    Each vertex carries a real-valued share of the level target; child
    counts are the share times the level growth ratio, rounded with a
    global carry walked in BFS order (layer totals stay within +-1 of the
    real-valued target) while the residual is folded back into the
    children's shares (per-lineage mass is conserved, which keeps the
    census two-sided at every scale).

    Raises ValueError("infeasible profile") when the target would force a
    per-vertex child count below 1.
    """
    from .trees import Tree

    if depth < 0:
        raise ValueError("depth must be >= 0")
    if m_star < 1:
        raise ValueError("m_star must be a positive integer")
    if depth == 0:
        return Tree([-1])

    targets = h_level_target(h, m_star, np.arange(depth + 1), start_depth)
    ratios = targets[1:] / targets[:-1]
    if np.any(ratios < 1.0 - 1e-9):
        raise ValueError("infeasible profile: target layer shrinks "
                         f"(min growth ratio {ratios.min():.4f} < 1)")

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
            c = int(math.floor(x + carry + 0.5))
            if c < 1:
                c = 1
            counts[i] = c
            carry += x - c
        new_shares = np.repeat((shares * rho) / counts, counts)
        parent.extend(np.repeat(np.arange(level_first, level_first + m_level),
                                counts).tolist())
        level_first += m_level
        shares = new_shares
    return Tree(np.asarray(parent, dtype=np.int64))


# -- multiscale schedule ---------------------------------------------------

_T_CAP = 64  # last layer index a schedule scan visits


@dataclass
class Schedule:
    """Multiscale bookkeeping: nu_bar_t = c3 * 2^{gamma_* 2^t} psi_*(2^{2^t}).

    Everything is computed in the log2 domain (2^{2^t} overflows fast).
    psi_star is a function handle receiving log2 of its mathematical
    argument (i.e. 2^t) and returning log2 of the psi value.
    """

    gamma_star: float
    psi_star: object
    c3: float = 1.0

    def nu_bar_log2(self, t: int) -> float:
        return math.log2(self.c3) + self.gamma_star * 2.0 ** t \
            + float(self.psi_star(2.0 ** t))

    def _min_t_with(self, threshold_log2: float) -> int:
        for t in range(_T_CAP + 1):
            if self.nu_bar_log2(t) >= threshold_log2:
                return t
        raise ValueError("schedule scan hit its layer cap; profile grows too slowly")

    def t_star(self, n: int) -> int:
        """Minimal t with nu_bar_t >= n."""
        if n < 2:
            raise ValueError("n must be >= 2")
        return self._min_t_with(math.log2(n))

    def t_star_star(self, n: int) -> int:
        """Minimal t with nu_bar_t >= 2^n."""
        if n < 2:
            raise ValueError("n must be >= 2")
        return self._min_t_with(float(n))


def schedule_from_profile(h: HProfile) -> Schedule:
    """Schedule matching the layering a profile induces.

    Power-type (theta > 0, linear layering): layer t holds depths with
    m_* j in [2^{t-1}, 2^t), so card ~ 2^{theta 2^t} (2^t)^{-gamma} /
    tau(2^t).  Log-type (theta = 0, doubly-exponential layering): layer t
    holds m_* j in [2^{2^{t-1}}, 2^{2^t}), so card ~ 2^{(1-gamma) 2^t} /
    tau(2^{2^t}).
    """
    if h.theta > 0:
        gamma_star = h.theta

        def psi_star(lx, _h=h):
            # lx = 2^t; psi = (2^t)^{-gamma} / tau(2^t)
            return -_h.gamma * math.log2(lx) - math.log2(float(_h.tau(lx))) \
                if lx >= 1 else 0.0
    else:
        if h.gamma > 1:
            raise ValueError("theta = 0 needs gamma <= 1 for a growing profile")
        gamma_star = 1.0 - h.gamma

        def psi_star(lx, _h=h):
            # lx = 2^t; psi = 1 / tau(2^{2^t}) up to constants
            return -_h.tau.log2_at_log2_arg(lx)
    return Schedule(gamma_star=gamma_star, psi_star=psi_star, c3=h.c3)


# -- validators ------------------------------------------------------------


@dataclass
class CriticalReport:
    label: str
    conditions: list = field(default_factory=list)

    def ok(self, name, holds, detail=""):
        self.conditions.append({"name": name, "holds": bool(holds),
                                "detail": detail})
        return bool(holds)

    @property
    def valid(self):
        return self.label in ("critical-power", "critical-log")


_EQ_TOL = 1e-12


def validate_critical(params: dict) -> CriticalReport:
    """Label a parameter pack per the critical-case hypotheses.

    Power packs (theta > 0) need kappa >= theta/q with the sum identity
    alpha_u + alpha_w = 1/p - 1/q (supercritical kappa) or = 1/p together
    with the strict tail condition alpha_w > (1-gamma)/q (boundary kappa).
    Log packs (theta = 0) need kappa > 0, gamma <= 0 and lambda_u +
    lambda_w = 1/p - 1/q.  Labels: critical-power, critical-log,
    non-critical (valid family, non-critical sum), invalid.
    """
    rep = CriticalReport(label="invalid")
    p = params.get("p")
    q = params.get("q")
    theta = params.get("theta", 0.0)
    gamma = params.get("gamma", 0.0)
    kappa = params.get("kappa")
    m_star = params.get("m_star", 1)

    structural = True
    structural &= rep.ok("indices", p is not None and q is not None
                         and 1 < p <= q, f"need 1 < p <= q, got p={p}, q={q}")
    structural &= rep.ok("m_star", m_star == int(m_star) and m_star >= 1,
                         f"m_star={m_star}")
    structural &= rep.ok("theta", theta is not None and theta >= 0,
                         f"theta={theta}")
    structural &= rep.ok("kappa-present", kappa is not None, "kappa missing")
    if not structural:
        return rep
    crit_sum = 1.0 / p - 1.0 / q

    if theta > 0:
        au, aw = params.get("alpha_u"), params.get("alpha_w")
        if not rep.ok("alphas-present", au is not None and aw is not None,
                      "power pack needs alpha_u, alpha_w"):
            return rep
        if not rep.ok("kappa >= theta/q", kappa >= theta / q - _EQ_TOL,
                      f"kappa={kappa}, theta/q={theta / q}"):
            return rep
        boundary = abs(kappa - theta / q) <= _EQ_TOL
        if boundary:
            tail_gap = aw - (1.0 - gamma) / q
            if not rep.ok("alpha_w > (1-gamma)/q strictly", tail_gap > _EQ_TOL,
                          f"alpha_w={aw}, (1-gamma)/q={(1.0 - gamma) / q}"):
                return rep
            target = 1.0 / p
            name = "alpha_u + alpha_w = 1/p"
        else:
            target = crit_sum
            name = "alpha_u + alpha_w = 1/p - 1/q"
        if rep.ok(name, abs(au + aw - target) <= _EQ_TOL,
                  f"sum={au + aw}, target={target}"):
            rep.label = "critical-power"
        else:
            rep.label = "non-critical"
        return rep

    lu, lw = params.get("lambda_u"), params.get("lambda_w")
    if not rep.ok("lambdas-present", lu is not None and lw is not None,
                  "log pack needs lambda_u, lambda_w"):
        return rep
    if not rep.ok("kappa > 0", kappa > 0, f"kappa={kappa}"):
        return rep
    if not rep.ok("gamma <= 0", gamma <= 0, f"gamma={gamma}"):
        return rep
    if rep.ok("lambda_u + lambda_w = 1/p - 1/q",
              abs(lu + lw - crit_sum) <= _EQ_TOL,
              f"sum={lu + lw}, target={crit_sum}"):
        rep.label = "critical-log"
    else:
        rep.label = "non-critical"
    return rep
