"""Balanced partitions of weighted trees and dyadic refinement families.

A tree with an additive nonnegative vertex weight is split into at most
(k+2) n connected subtrees such that every part with two or more vertices
carries at most (k+2)/n of the total weight (k bounds the branching).
Stacking such partitions at dyadically coarsening granularities, with each
level a merge of the previous one, gives a laminar family whose
cross-level intersection counts stay bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .trees import SubtreePartition, Tree, _hanging_parts


@dataclass(frozen=True)
class VertexWeight:
    """Additive vertex weight: Phi(W) = sum of phi over W, all phi >= 0."""

    phi: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        if phi.ndim != 1:
            raise ValueError("phi must be a flat per-vertex array")
        if not np.all(np.isfinite(phi)) or np.any(phi < 0):
            raise ValueError("phi values must be finite and >= 0")
        object.__setattr__(self, "phi", phi)

    @classmethod
    def uniform(cls, n: int) -> "VertexWeight":
        return cls(np.ones(n))

    def total(self) -> float:
        return float(self.phi.sum())

    def __len__(self) -> int:
        return self.phi.shape[0]


def _check_inputs(tree: Tree, weights: VertexWeight, n: int, k: int):
    if n < 1 or int(n) != n:
        raise ValueError("granularity n must be a positive integer")
    if k < 1 or int(k) != k:
        raise ValueError("branching bound k must be a positive integer")
    if len(weights) != tree.n:
        raise ValueError("weight array length does not match the tree")
    counts = tree.n_children()
    worst = int(np.argmax(counts))
    if counts[worst] > k:
        raise ValueError(
            f"branching bound violated: vertex {worst} has "
            f"{int(counts[worst])} children > k={k}")
    if weights.total() <= 0:
        raise ValueError("all-zero weights: total must be positive")


def balanced_partition(tree: Tree, weights: VertexWeight, n: int,
                       k: int) -> SubtreePartition:
    """Split the tree into at most (k+2) n connected parts, every
    multi-vertex part carrying weight at most (k+2) Phi(total) / n.

    Bottom-up sweep with threshold tau = Phi(total)/n: each vertex
    accumulates its own phi plus the still-pending weight of its children.
    When the accumulated mass first reaches tau (ties cut), the vertex
    closes a part consisting of itself and all pending child bundles; a
    vertex whose own phi already exceeds tau instead becomes a singleton
    part and releases each pending child bundle as a part of its own.
    Every such event retires at least tau of mass, so there are at most n
    events, each producing at most k+1 parts.  A vertex depends only on
    its children, so the sweep runs one depth level at a time.
    """
    _check_inputs(tree, weights, n, k)
    phi = weights.phi
    total = weights.total()
    tau = total / n
    if n == 1:
        return SubtreePartition(
            np.array([0], dtype=np.int64),
            np.append(np.zeros(tree.n, dtype=np.int64), -1),
            {"C": float(k + 2), "threshold": tau, "n": 1, "k": int(k)})

    levels = tree.levels()
    marked = np.zeros(tree.n, dtype=bool)
    res = np.zeros(tree.n)
    below = None
    for level in reversed(levels):
        mass = phi[level.ids].copy()
        if below is not None:
            # closed children hold res 0, so the sum over all children in
            # id order adds exactly what the pending ones carry
            slot = below.parent - level.ids.start
            mass += np.bincount(slot, weights=res[below.ids],
                                minlength=mass.size)
        close = mass >= tau
        marked[level.ids] = close
        res[level.ids] = np.where(close, 0.0, mass)
        if below is not None:
            # heavy singleton: pending bundles become parts of their own
            marked[below.ids] |= (close & (phi[level.ids] > tau))[slot]
        below = level
    marked[0] = True  # the leftover bundle at the root is the final part

    # every vertex belongs to the part closed at its nearest marked ancestor
    part = _hanging_parts(tree, marked)
    part.meta.update({"C": float(k + 2), "threshold": tau, "n": int(n),
                      "k": int(k)})
    return part


# -- dyadic families ---------------------------------------------------------


@dataclass
class PartitionFamily:
    """Laminar stack of partitions, level l holding roughly 2^{-l} n0 parts.

    levels[0] is the finest partition; each later level merges groups of
    parts of the previous one, so containment across levels is structural.
    meta holds the a-priori part-count factor "C" = k + 2 and the achieved
    constants: "achieved_C", "cross" (largest merge group, which bounds how
    many level-l parts a level-(l+1) part meets), and whether the group cap
    was relaxed at the final step.
    """

    levels: list
    n0: int
    meta: dict = field(default_factory=dict)

    def n_levels(self) -> int:
        return len(self.levels)

    def validate(self, tree: Tree) -> None:
        big_c = self.meta.get("C", math.inf)
        cross = self.meta.get("cross", math.inf)
        for l, level in enumerate(self.levels):
            level.validate(tree)
            if level.n_parts() > big_c * self.n0 * 2.0 ** (-l) + 1e-9:
                raise AssertionError(
                    f"level {l} has {level.n_parts()} parts, above the "
                    f"reported C * 2^-l * n0")
        top = self.levels[-1]
        if top.n_parts() != 1 or np.any(top.label[:-1] != 0):
            raise AssertionError("top level is not the whole tree")
        for l in range(len(self.levels) - 1):
            fine, coarse = self.levels[l], self.levels[l + 1]
            # each fine part lies in the coarse part holding its root, and
            # what lies outside the fine universe lies outside the coarse one
            up = coarse.label[fine.roots]
            if (np.any(np.append(up, -1)[fine.label] != coarse.label)
                    or np.any(up < 0)):
                raise AssertionError(
                    f"level {l} part crosses level {l + 1} parts")
            hits = np.bincount(up, minlength=coarse.n_parts())
            if hits.max() > cross:
                raise AssertionError(
                    f"a level-{l + 1} part meets {int(hits.max())} level-{l} "
                    f"parts, above the reported cross constant")


def _coarsen_once(tree: Tree, prev: SubtreePartition, cap: int) -> np.ndarray:
    """Group adjacent parts (connected in the quotient tree) for merging.

    Greedy from the leaves up: a part with pending quotient children heads
    a group and takes the first cap-1 of them, in index order.  A part
    stays pending until it heads a group, because only its quotient parent
    can absorb it.  Returns each part's group label: the index of the
    group's first part, its head.
    """
    # the root's parent id -1 reads label -1: the top part has no parent
    q_parent = prev.label[tree.parent[prev.roots]].tolist()
    n_parts = len(q_parent)
    # a part's quotient children have larger roots, hence larger indices,
    # so walking the indices down meets each part after its children
    pending = [0] * (n_parts + 1)  # pending children; slot -1 for no part
    for i in range(n_parts - 1, -1, -1):
        if not pending[i]:
            pending[q_parent[i]] += 1
    room = [cap - 1] * n_parts + [0]  # the top part joins no group
    head = list(range(n_parts))
    for i, qp in enumerate(q_parent):
        if not pending[i] and room[qp]:
            head[i] = qp
            room[qp] -= 1
    return np.array(head, dtype=np.int64)


def _merge_level(prev: SubtreePartition, group) -> SubtreePartition:
    """Merge the parts of prev that share a group label, the index of the
    group's first part, into one part; the merged parts come in root
    order, since prev's roots increase with the index."""
    first = group == np.arange(group.size)
    # part -> merged part; the slot -1 stays -1
    merged = np.append(np.cumsum(first)[group] - 1, -1)
    return SubtreePartition(prev.roots[first], merged[prev.label])


def dyadic_family(tree: Tree, weights: VertexWeight, n0: int,
                  k: int) -> PartitionFamily:
    """Laminar family of partitions at granularities n0, n0/2, ..., 1.

    Level 0 is balanced_partition(tree, weights, n0, k); level l+1 merges
    groups of at most k+2 adjacent level-l parts.  The final level must be
    the whole tree; if the capped merge cannot reach a single part there
    (quotients with huge hubs), the last step merges everything and the
    relaxation is reported in the metadata.
    """
    base = balanced_partition(tree, weights, n0, k)
    levels = [base]
    n_levels = int(math.floor(math.log2(n0))) if n0 > 1 else 0
    cap = k + 2
    cross = 1
    relaxed = False
    for l in range(1, n_levels + 1):
        prev = levels[-1]
        group = _coarsen_once(tree, prev, cap)
        if l == n_levels and np.any(group):
            # the top level must be the whole tree; merging everything at
            # the last step is a cap relaxation only when the group is big
            group = np.zeros_like(group)
            relaxed = prev.n_parts() > cap
        levels.append(_merge_level(prev, group))
        cross = max(cross, int(np.bincount(group).max()))

    achieved = max(
        level.n_parts() / (n0 * 2.0 ** (-l)) for l, level in enumerate(levels))
    return PartitionFamily(levels, int(n0),
                           {"C": float(k + 2), "achieved_C": achieved,
                            "cross": int(cross), "k": int(k),
                            "relaxed": bool(relaxed)})
