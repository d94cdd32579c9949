"""Assembled entropy-number certificates for weighted summation operators.

The operator is cut along the depth layering: everything up to the scale
where the cumulative dimension first reaches n forms one head block with
budget n, each following layer gets the geometrically decaying budgets
k_{t,l} = ceil(n 2^{-eps (t - t_* + l)}), and all layers past the scale
where the dimension reaches 2^n are swept into an analytic norm tail.
Each kept block contributes ||block||_{q->q} times the reference curve of
the identity embedding in its dimension; the blocks are folded with the
additive combination rule, so the final index K(n) is exact and satisfies
K(n) - 1 <= C(eps) n with C(eps) = 1 + (1 - 2^{-eps})^{-2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .entropy import EntropyEstimate, combine_scale, combine_sum, schuett
from .hset import HProfile
from .summation import (
    WeightScheme,
    _conj,
    _require_critical,
    _row_hoelder_upper,
    apply,
    hardy_bound,
    weights_for_tree,
)
from .trees import Tree


@dataclass
class Certificate:
    """Evaluated bound B(n) at index K(n).

    budgets holds the raw (t, l, k_{t,l}) triples actually spent; their
    (k - 1)-sum equals k_total - 1 exactly.  c_budget is the achieved
    (k_total - 1)/n, c_guarantee the analytic ceiling it must stay under.
    meta["layers"] holds each kept block's depth window, dimension, index
    budget and norm; meta["tail_value"] is the Hardy tail term (0 when the
    tree stops short of j_tail).
    """

    bound: EntropyEstimate
    k_total: int
    budgets: list
    c_budget: float
    c_guarantee: float
    meta: dict


def entropy_certificate(tree: Tree, scheme: WeightScheme, h: HProfile,
                        n: int, p: float, q: float,
                        eps: float = 0.1) -> Certificate:
    """Certified upper bound B(n) for e_{K(n)} of the truncated operator.

    Requires a scheme/profile pair passing the critical validation and
    n >= 2 large enough that the tail scale t_**(n) lies beyond the first
    layer.  The tail term is the analytic norm bound for the subtree below
    the truncation depth, or 0 when the tree does not reach it.
    """
    _require_critical(scheme, h, p, q)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if n < 2:
        raise ValueError("n too small: need n >= 2")
    t_star = h.t_star(n)
    t_stop = h.t_star_star(n)
    if t_stop < 1:
        raise ValueError(
            f"n too small: t_**({n}) = 0, nothing is kept past layer t0")

    j_tail = h.depth_range(t_stop, scheme.m_star)[0]
    u, w = weights_for_tree(scheme, tree)
    uq = u ** _conj(q)
    ones = np.ones(tree.n)
    depth_counts = np.bincount(tree.depth, minlength=tree.height + 1)

    head_t = min(t_star, t_stop - 1)
    blocks = [(head_t, 0, h.depth_range(head_t, scheme.m_star)[1])]
    blocks += [(t, *h.depth_range(t, scheme.m_star))
               for t in range(head_t + 1, t_stop)]

    leaves = []
    budgets = []
    layer_meta = []
    for t, lo, hi in blocks:
        hi_clip = min(hi, tree.height + 1)
        if lo >= hi_clip:
            continue
        dim = int(depth_counts[lo:hi_clip].sum())
        if dim == 0:
            continue
        if t == head_t:
            spent = [(t, 0, n)]
        else:
            spent = []
            l = 0
            while True:
                k_tl = math.ceil(n * 2.0 ** (-eps * (t - t_star + l)))
                spent.append((t, l, k_tl))
                l += 1
                if math.ceil(n * 2.0 ** (-eps * (t - t_star + l))) < 2:
                    break
        k_block = 1 + sum(k - 1 for _, _, k in spent)
        budgets.extend(spent)
        # row-wise Hoelder l_q -> l_q bound of the kernel restricted to
        # input depths in [lo, hi_clip)
        in_block = (tree.depth >= lo) & (tree.depth < hi_clip)
        cum = apply(tree, np.where(in_block, uq, 0.0), ones, ones)
        norm_t = _row_hoelder_upper(cum, w, q, q)
        leaves.append(combine_scale(norm_t, EntropyEstimate(
            k_block, schuett(dim, k_block, p, q), "certified_upper",
            f"schuett(nu={dim},stitched)")))
        layer_meta.append({"t": t, "lo": lo, "hi": hi_clip, "dim": dim,
                           "k_budget": k_block, "norm": norm_t})

    tail_value = 0.0
    if tree.height >= j_tail:
        tail_value = hardy_bound(scheme, h, p, q, j_tail)
        leaves.append(EntropyEstimate(
            1, tail_value, "certified_upper", f"hardy-tail(j={j_tail})"))
    bound = reduce(combine_sum, leaves)

    spent_total = sum(k - 1 for _, _, k in budgets)
    if bound.k - 1 != spent_total:
        raise AssertionError("index bookkeeping drifted from the budget list")
    c_budget = spent_total / n
    c_guarantee = 1.0 + (1.0 - 2.0 ** (-eps)) ** -2
    if c_budget > c_guarantee + 1e-9:
        raise AssertionError("budget identity violated")
    meta = {"n": n, "p": p, "q": q, "eps": eps, "t_star": t_star,
            "t_stop": t_stop, "j_tail": j_tail, "tail_value": tail_value,
            "layers": layer_meta}
    return Certificate(bound, bound.k, budgets, c_budget, c_guarantee, meta)
