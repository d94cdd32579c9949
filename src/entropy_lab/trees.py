"""Finite rooted trees, their depth levels and subtree partitions.

Vertices are dense integers in BFS order: the root is 0, ``parent[i] < i``
for every non-root vertex, and depths are non-decreasing along ids.  This
makes every depth level a contiguous id range, so level slicing is O(1)
and iteration order is reproducible.

Trees are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

MAX_VERTICES = 1 << 22  # keeps every tree, JSON-loaded too, at desk scale


def _check_size(n) -> None:
    """Raise ValueError if a tree of at least n vertices is past the cap;
    the builders call it before they allocate."""
    if n > MAX_VERTICES:
        # n may be inf, or an int past float range: show it clipped
        raise ValueError(f"tree has at least {min(n, 2 ** 63):.0f} vertices, "
                         f"cap is {MAX_VERTICES}")


class Level(NamedTuple):
    """One depth level of a tree: its id range and their parent ids."""

    ids: slice
    parent: np.ndarray


class Segments(NamedTuple):
    """A level's children grouped by parent, for a level whose parent ids
    are sorted, so that each parent's children form one segment.

    targets holds the distinct parents in order, as a slice when they are
    contiguous; starts the segment starts within the level, for
    np.add.reduceat.  pairs is set when every parent has exactly two
    children: the segment sums are then c0 + c1, the one sum reduceat can
    form, and strided slices add them without its per-segment overhead.
    """

    targets: slice | np.ndarray
    starts: np.ndarray
    pairs: bool


def _segments(par: np.ndarray) -> Segments | None:
    """The Segments of a level with parent ids par; None if unsorted."""
    if np.any(par[1:] < par[:-1]):
        return None
    starts = np.flatnonzero(np.concatenate(([True], par[1:] != par[:-1])))
    targets = par[starts]
    if targets[-1] - targets[0] + 1 == targets.size:
        targets = slice(int(targets[0]), int(targets[-1]) + 1)
    pairs = bool(np.all(np.diff(starts, append=par.size) == 2))
    return Segments(targets, starts, pairs)


class Tree:
    """A finite rooted tree given by a parent array in BFS order.

    Parameters
    ----------
    parent : sequence of int
        ``parent[0] == -1`` for the root; ``0 <= parent[i] < i`` otherwise.
        Vertex depths must be non-decreasing in id (BFS order), and there
        are at most ``MAX_VERTICES`` vertices.

    Attributes
    ----------
    parent : ndarray of int64
    depth : ndarray of int32
        ``depth[v]`` = edge distance from the root.
    height : int
        Maximum depth.

    The level plan (``levels`` and ``segments``), the tree's only index of
    its structure, serves every walk and level-at-a-time sweep.  It is
    computed on first use and cached on the tree.  Two threads may both
    compute it on first use; either result is correct and immutable, so
    the race is benign.
    """

    __slots__ = ("parent", "depth", "height", "n", "_level_start",
                 "_levels", "_segments")

    def __init__(self, parent):
        parent = np.asarray(parent, dtype=np.int64)
        if parent.ndim != 1 or parent.size == 0:
            raise ValueError("parent must be a non-empty 1-d array")
        n = parent.size
        _check_size(n)
        if parent[0] != -1:
            raise ValueError("parent[0] must be -1 (root)")
        if n > 1:
            body = parent[1:]
            if np.any(body < 0) or np.any(body >= np.arange(1, n)):
                raise ValueError("need 0 <= parent[i] < i for non-root vertices")
        self.parent = parent
        self.n = int(n)

        # pointer doubling: after round r, ptr is the 2^r-th ancestor and
        # d counts the ancestors covered, converging to the depth
        d = (parent >= 0).astype(np.int64)
        ptr = parent.copy()
        while np.any(ptr > 0):
            hop = ptr >= 0
            d[hop] += d[ptr[hop]]
            nxt = np.full(n, -1, dtype=np.int64)
            nxt[hop] = ptr[ptr[hop]]
            ptr = nxt
        depth = d.astype(np.int32)
        if np.any(np.diff(depth) < 0):
            raise ValueError("vertex ids must be in BFS order (depths non-decreasing)")
        self.depth = depth
        self.height = int(depth[-1])

        # level d occupies ids [_level_start[d], _level_start[d+1])
        counts = np.bincount(depth, minlength=self.height + 1)
        self._level_start = np.concatenate(([0], np.cumsum(counts)))

        parent.setflags(write=False)
        depth.setflags(write=False)
        self._levels = None
        self._segments = None

    # -- basic structure ------------------------------------------------

    def n_children(self) -> np.ndarray:
        return np.bincount(self.parent[1:], minlength=self.n)

    def level_slice(self, d: int) -> slice:
        """Ids of the vertices at depth d, as a contiguous slice."""
        if d < 0 or d > self.height:
            return slice(0, 0)
        return self.levels()[d].ids

    def levels(self) -> tuple:
        """The depth levels 0..height as ``Level`` records, root first."""
        if self._levels is None:
            bounds = self._level_start.tolist()
            self._levels = tuple(Level(slice(lo, hi), self.parent[lo:hi])
                                 for lo, hi in zip(bounds, bounds[1:]))
        return self._levels

    def segments(self) -> tuple:
        """Per depth level, its children grouped by parent as ``Segments``;
        None for the root level and for levels whose parent ids are not
        sorted."""
        if self._segments is None:
            self._segments = (None,) + tuple(
                _segments(level.parent) for level in self.levels()[1:])
        return self._segments

    def level(self, d: int) -> np.ndarray:
        s = self.level_slice(d)
        return np.arange(s.start, s.stop, dtype=np.int64)

    def preorder(self) -> tuple:
        """(pre, size): each vertex's preorder rank (children in id order)
        and its subtree's size, so the subtree of v holds the ranks pre[v]
        to pre[v] + size[v] - 1, and one subtree lies in another exactly
        when its range does.  One sweep of the level plan, deepest level
        first, sums the sizes; one more, root first, places every vertex
        after its parent and its earlier siblings' subtrees.
        """
        levels = self.levels()
        size = np.ones(self.n, dtype=np.int64)
        for level in levels[:0:-1]:
            np.add.at(size, level.parent, size[level.ids])
        # each child's offset past its parent: the sizes of its earlier
        # siblings, an exclusive running sum restarted at every parent
        kids = np.argsort(self.parent[1:], kind="stable") + 1
        before = np.cumsum(size[kids]) - size[kids]
        par = self.parent[kids]
        first = np.ones(kids.size, dtype=bool)
        first[1:] = par[1:] != par[:-1]
        offset = np.empty(self.n, dtype=np.int64)
        offset[kids] = before - np.maximum.accumulate(
            np.where(first, before, 0))
        pre = np.zeros(self.n, dtype=np.int64)
        for level in levels[1:]:
            pre[level.ids] = pre[level.parent] + 1 + offset[level.ids]
        return pre, size

    # -- serialization ---------------------------------------------------

    def to_json(self, u=None, w=None) -> str:
        doc = {"parent": self.parent.tolist()}
        if u is not None:
            doc["u"] = np.asarray(u, dtype=float).tolist()
        if w is not None:
            doc["w"] = np.asarray(w, dtype=float).tolist()
        return json.dumps(doc)

    @staticmethod
    def from_json(text: str):
        """Parse the JSON tree format; returns (tree, u, w) with u, w optional."""
        doc = json.loads(text)
        tree = Tree(doc["parent"])
        u = np.asarray(doc["u"], dtype=float) if "u" in doc else None
        w = np.asarray(doc["w"], dtype=float) if "w" in doc else None
        for name, arr in (("u", u), ("w", w)):
            if arr is not None and arr.size != tree.n:
                raise ValueError(f"{name} has {arr.size} entries for {tree.n} vertices")
        return tree, u, w

    def __repr__(self):
        return f"Tree(n={self.n}, height={self.height})"


def full_tree(arity: int, height: int) -> Tree:
    """Complete rooted tree where every vertex has `arity` children."""
    # 1 + arity + ... + arity^height; a branching tree taller than the
    # cap's bit length is past the cap, so the sum stops there
    n = height + 1 if arity == 1 else sum(
        arity ** d for d in range(min(height, MAX_VERTICES.bit_length()) + 1))
    _check_size(n)
    # in BFS order vertex v's children are arity v + 1, ..., arity v + arity
    return Tree(np.arange(-1, n - 1) // max(arity, 1))


def random_tree(n: int, max_children: int, seed: int) -> Tree:
    """Random tree on n vertices with branching at most max_children.

    Grown level by level so the ids come out in BFS order: every frontier
    vertex draws a child count uniformly from {0, ..., max_children}, the
    last draw of a level is forced to 1 when the whole level came up empty
    but vertices remain, and the level is truncated once the budget is hit.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if max_children < 1:
        raise ValueError("max_children must be >= 1")
    _check_size(n)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x74726e64]))
    parent = np.full(n, -1, dtype=np.int64)
    size = 1
    frontier = np.array([0], dtype=np.int64)
    while size < n:
        counts = rng.integers(0, max_children + 1, size=frontier.size)
        if counts.sum() == 0:
            counts[-1] = 1
        room = n - size
        csum = np.cumsum(counts)
        over = csum > room
        if over.any():
            first = int(np.argmax(over))
            counts[first] = room - (csum[first] - counts[first])
            counts[first + 1:] = 0
        total = int(counts.sum())
        kids = np.arange(size, size + total, dtype=np.int64)
        parent[kids] = np.repeat(frontier, counts)
        frontier = kids
        size += total
    return Tree(parent)


@dataclass
class SubtreePartition:
    """A partition of a vertex set into connected subtrees.

    label[v] is the part holding vertex v, -1 outside the partitioned
    `universe` (all vertices, or one layer's); label[-1] = -1 serves the
    root's parent id.  roots[i], increasing in i, is part i's smallest id.
    """

    roots: np.ndarray
    label: np.ndarray
    meta: dict = field(default_factory=dict)

    def n_parts(self) -> int:
        return len(self.roots)

    @property
    def parts(self) -> list:
        """The parts as increasing id arrays, in root order."""
        own = self.label[:-1]
        # stable: each part's ids stay increasing; label -1 is cut off
        order = np.argsort(own, kind="stable")
        bounds = np.cumsum(np.bincount(own + 1, minlength=self.n_parts() + 1))
        return np.split(order, bounds)[1:-1]

    @property
    def universe(self) -> np.ndarray:
        """The partitioned vertices, in increasing id order."""
        return np.flatnonzero(self.label[:-1] >= 0)

    def validate(self, tree: Tree) -> None:
        label, roots = self.label, self.roots
        if label.shape != (tree.n + 1,) or label[-1] != -1:
            raise AssertionError(
                f"label needs {tree.n + 1} entries ending in -1")
        if label.min() < -1 or label.max() >= roots.size:
            raise AssertionError(f"label out of range for {roots.size} parts")
        if np.any(label[np.clip(roots, -1, tree.n)] != np.arange(roots.size)):
            raise AssertionError("root not inside its part")
        seen = self.universe
        own = label[seen]
        cut = np.flatnonzero((seen != roots[own])
                             & (label[tree.parent[seen]] != own))
        if cut.size:
            v = int(seen[cut[0]])
            raise AssertionError(
                f"part rooted at {int(roots[own[cut[0]]])} is not connected "
                f"at vertex {v}")


def _hanging_parts(tree: Tree, marked: np.ndarray) -> SubtreePartition:
    """The tree split into the subtrees hanging from the marked vertices
    (the root among them): each vertex joins the part of its nearest
    marked ancestor."""
    roots = np.flatnonzero(marked)
    label = np.full(tree.n + 1, -1, dtype=np.int64)
    label[roots] = np.arange(roots.size)
    for level in tree.levels()[1:]:
        label[level.ids] = np.where(marked[level.ids], label[level.ids],
                                    label[level.parent])
    return SubtreePartition(roots, label)
