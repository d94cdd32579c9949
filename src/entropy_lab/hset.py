"""Branching profiles h(t) = t^theta |log t|^gamma tau(|log t|) and their trees.

The profile drives everything downstream: generated trees realize the
two-sided per-vertex cardinality bounds, and the profile's own layering
and growth rate give the certificate its depth windows and its layer
indices t_*(n), t_**(n).

|log t| is implemented as log(e + 1/t) on (0, 1]: same asymptotics near 0,
no zero at t = 1 (documented reparametrization).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .trees import Tree, _check_size

_T_CAP = 64  # last layer index a schedule scan visits

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

    # -- multiscale schedule: the profile's own layering and layer indices

    def depth_range(self, t: int, m_star: int) -> tuple[int, int]:
        """Half-open depth window [j_lo, j_hi) of layer t.  Power type
        (theta > 0) layers linearly, 2^(t-1) <= m_* j < 2^t, log type
        (theta = 0) doubly-exponentially, 2^(2^(t-1)) <= m_* j < 2^(2^t);
        layer t0 = 0 also holds the depths below the first breakpoint."""
        if t < 0:
            raise ValueError(f"layer {t} below t0=0")
        scale = (lambda s: s) if self.theta > 0 else (lambda s: 2 ** s)
        lo_m, hi_m = (0 if t == 0 else 2 ** scale(t - 1)), 2 ** scale(t)
        # depths j with lo_m <= m_* j < hi_m
        return int(-(-lo_m // m_star)), int(-(-hi_m // m_star))

    def nu_bar_log2(self, t: int) -> float:
        """log2 of nu_bar_t, the cardinality scale of layer t (2^{2^t}
        overflows fast).  Power type: layer t holds depths with m_* j in
        [2^{t-1}, 2^t), so card ~ 2^{theta 2^t} (2^t)^{-gamma} / tau(2^t).
        Log type: layer t holds m_* j in [2^{2^{t-1}}, 2^{2^t}), so card ~
        2^{(1-gamma) 2^t} / tau(2^{2^t})."""
        lx = 2.0 ** t
        if self.theta > 0:
            log2_psi = -self.gamma * math.log2(lx) \
                - math.log2(float(self.tau(lx)))
            return math.log2(self.c3) + self.theta * lx + log2_psi
        if self.gamma > 1:
            raise ValueError("theta = 0 needs gamma <= 1 for a growing profile")
        return math.log2(self.c3) + (1.0 - self.gamma) * lx \
            - self.tau.log2_at_log2_arg(lx)

    def _min_t_with(self, threshold_log2: float) -> int:
        for t in range(_T_CAP + 1):
            if self.nu_bar_log2(t) >= threshold_log2:
                return t
        raise ValueError("schedule scan hit its layer cap; profile grows too slowly")

    def t_star(self, n: int) -> int:
        """t_*(n): the minimal t with nu_bar_t >= n."""
        if n < 2:
            raise ValueError("n must be >= 2")
        return self._min_t_with(math.log2(n))

    def t_star_star(self, n: int) -> int:
        """t_**(n): the minimal t with nu_bar_t >= 2^n."""
        if n < 2:
            raise ValueError("n must be >= 2")
        return self._min_t_with(float(n))


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
    per-vertex child count below 1, and ValueError naming the vertex cap
    before a level past it is built.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if m_star < 1:
        raise ValueError("m_star must be a positive integer")
    if depth == 0:
        return Tree([-1])

    with np.errstate(over="ignore", invalid="ignore"):
        # targets past float range are inf (their ratios NaN); the cap
        # check rejects them before the ratios are read
        targets = h_level_target(h, m_star, np.arange(depth + 1), start_depth)
        ratios = targets[1:] / targets[:-1]
        # a level holds at least its real-valued target less 1
        _check_size(targets.sum() - depth)
    if not np.all(ratios >= 1.0 - 1e-9):
        raise ValueError("infeasible profile: target layer shrinks "
                         f"(min growth ratio {ratios.min():.4f} < 1)")

    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x68736574]))
    parents = [np.array([-1])]  # one parent array per level
    shares = np.array([1.0])
    level_first = 0
    for j in range(depth):
        rho = float(ratios[j])
        carry = float(rng.uniform(-0.5, 0.5))
        m_level = shares.size
        # the carry is sequential: one pass over Python floats, the same
        # IEEE operations as on numpy scalars at a fraction of the cost
        counts = []
        for x in (shares * rho).tolist():
            c = math.floor(x + carry + 0.5)
            if c < 1:
                c = 1
            counts.append(c)
            carry += x - c
        counts = np.array(counts, dtype=np.int64)
        _check_size(level_first + m_level + counts.sum())
        parents.append(np.repeat(np.arange(level_first, level_first + m_level),
                                 counts))
        shares = np.repeat((shares * rho) / counts, counts)
        level_first += m_level
    return Tree(np.concatenate(parents))


