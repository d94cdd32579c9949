"""Hypothesis strategies for trees that cover every branch of the level sweeps,
path trees, BFS renaming of any parent array, the CSR walks the level walks
are checked against, and a builder of subtree partitions from explicit
parts.

Imported by the test modules (pytest puts this directory on sys.path).
"""

import numpy as np
from hypothesis import strategies as st

from entropy_lab.hset import HProfile, generate_hset_tree
from entropy_lab.trees import SubtreePartition, Tree, random_tree


def path_tree(n: int) -> Tree:
    """The path 0 - 1 - ... - n-1, rooted at 0."""
    return Tree(np.arange(-1, n - 1))


def bfs_order(parent) -> np.ndarray:
    """The ids of any parent array with parent[i] < i in canonical BFS
    order: the root, then the children of each vertex reached, in
    increasing id."""
    kids = [[] for _ in parent]
    for v in range(1, len(parent)):
        kids[parent[v]].append(v)
    order = [0]
    for v in order:  # the loop reaches the children it appends
        order.extend(kids[v])
    return np.asarray(order, dtype=np.int64)


def bfs_tree(parent) -> Tree:
    """The tree of any parent array with parent[i] < i, vertex bfs_order[k]
    renamed k, so that parent ids never decrease."""
    order = bfs_order(parent)
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    new = np.full(order.size, -1, dtype=np.int64)
    new[rank[1:]] = rank[np.asarray(parent[1:], dtype=np.int64)]
    return Tree(new)


@st.composite
def trees(draw, max_n: int = 64) -> Tree:
    """Trees on 1..max_n vertices: random trees with small fan-out, wide
    fan-out (segments longer than 8, which numpy's reduceat may sum
    pairwise), and h-set trees (theta = 1 gives two children per parent)."""
    kind = draw(st.sampled_from(["random", "wide", "hset"]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if kind == "hset":
        theta = draw(st.sampled_from([0.5, 1.0, 1.5]))
        depth = draw(st.integers(0, 4 if theta > 1.0 else 5))
        return generate_hset_tree(HProfile(theta=theta), 1, depth, seed=seed,
                                  start_depth=draw(st.integers(0, 8)))
    n = draw(st.integers(1, max_n))
    return random_tree(n, draw(st.integers(1, 4) if kind == "random"
                               else st.integers(9, 16)), seed=seed)


class CsrReference:
    """The CSR child index and per-vertex frontier walks that Tree kept
    before its level plan became its only structural index; the tests hold
    the level walks to them."""

    def __init__(self, tree: Tree):
        parent, n = tree.parent, tree.n
        order = (np.argsort(parent[1:], kind="stable") + 1 if n > 1
                 else np.array([], dtype=np.int64))
        self.child_ids = order.astype(np.int64)
        cc = (np.bincount(parent[1:], minlength=n) if n > 1
              else np.zeros(n, dtype=np.int64))
        self.child_ptr = np.concatenate(([0], np.cumsum(cc)))

    def children(self, v: int) -> np.ndarray:
        return self.child_ids[self.child_ptr[v]:self.child_ptr[v + 1]]

    def n_children(self) -> np.ndarray:
        return np.diff(self.child_ptr)

    def _step(self, frontier):
        pieces = [self.children(u) for u in frontier]
        return (np.concatenate(pieces) if pieces
                else np.array([], dtype=np.int64))

    def descendants_at_distance(self, v: int, l: int) -> np.ndarray:
        frontier = np.array([v], dtype=np.int64)
        for _ in range(l):
            if frontier.size == 0:
                break
            frontier = self._step(frontier)
        return np.sort(frontier)

    def subtree(self, v: int) -> np.ndarray:
        out = [np.array([v], dtype=np.int64)]
        frontier = out[0]
        while frontier.size:
            frontier = self._step(frontier)
            if frontier.size:
                out.append(frontier)
        return np.sort(np.concatenate(out))


def labelled_partition(n: int, roots, parts) -> SubtreePartition:
    """The SubtreePartition of an n-vertex tree with the given roots whose
    label puts the vertices of parts[i] in part i and every other vertex in
    no part.  Nothing is checked, so it builds invalid partitions too."""
    label = np.full(n + 1, -1, dtype=np.int64)
    for i, p in enumerate(parts):
        label[np.asarray(p, dtype=np.int64)] = i
    return SubtreePartition(np.asarray(roots, dtype=np.int64), label)
