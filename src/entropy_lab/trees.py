"""Finite rooted trees, their depth levels and subtree partitions.

Vertices are dense integers in canonical BFS order: the root is 0,
``parent[i] < i`` for every non-root vertex, and parent ids never decrease
along ids.  So every depth level is a contiguous id range, each vertex's
children are consecutive ids, and iteration order is reproducible.

Trees are immutable after construction.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

MAX_VERTICES = 1 << 22  # keeps every tree, JSON-loaded too, at desk scale
_JSON_CHUNK = 1 << 14


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


class _Segments(NamedTuple):
    """A level's children grouped by parent: the level's parent ids are
    sorted, so each parent's children form one segment.

    targets holds the distinct parents in order, as a slice when they are
    contiguous; starts the segment starts within the level, for
    np.add.reduceat.  pairs is set when every parent has exactly two
    children: the segment sums are then c0 + c1, the one sum reduceat can
    form, and strided slices add them without its per-segment overhead.
    """

    targets: slice | np.ndarray
    starts: np.ndarray
    pairs: bool


def _segments(par: np.ndarray) -> _Segments:
    """The _Segments of a level with sorted parent ids par."""
    starts = np.flatnonzero(np.concatenate(([True], par[1:] != par[:-1])))
    targets = par[starts]
    if targets[-1] - targets[0] + 1 == targets.size:
        targets = slice(int(targets[0]), int(targets[-1]) + 1)
    pairs = bool(np.all(np.diff(starts, append=par.size) == 2))
    return _Segments(targets, starts, pairs)


class Tree:
    """A finite rooted tree given by a parent array in canonical BFS order.

    Parameters
    ----------
    parent : sequence of int
        ``parent[0] == -1`` for the root; ``0 <= parent[i] < i`` otherwise.
        ``parent[1:]`` must be non-decreasing (BFS order with each
        vertex's children consecutive), and there are at most
        ``MAX_VERTICES`` vertices.  Entries must be integers; floats, whole
        ones too, are refused, as a parent id is an index.

    Attributes
    ----------
    parent : ndarray of int64
    depth : ndarray of int32
        ``depth[v]`` = edge distance from the root.
    height : int
        Maximum depth.

    The level plan (``levels``, and the per-level child segments that
    ``subtree_sums`` reads), the tree's only index of its structure, serves
    every walk and both level sweeps, ``path_scan`` (root first) and
    ``subtree_sums`` (deepest first).  It is computed on first use and
    cached on the tree.
    """

    __slots__ = ("parent", "depth", "height", "n", "_level_start",
                 "_levels", "_segments")

    def __init__(self, parent):
        raw = np.asarray(parent)
        if raw.ndim != 1 or raw.size == 0:
            raise ValueError("parent must be a non-empty 1-d array")
        n = raw.size
        _check_size(n)
        if raw.dtype.kind not in "iu":
            raise ValueError(f"parent must hold integers, got "
                             f"{raw.dtype.name} entries")
        parent = raw.astype(np.int64, copy=False)
        if parent[0] != -1:
            raise ValueError("parent[0] must be -1 (root)")
        body = parent[1:]
        if np.any(body < 0) or np.any(body >= np.arange(1, n)):
            raise ValueError("need 0 <= parent[i] < i for non-root vertices")
        if np.any(body[1:] < body[:-1]):
            raise ValueError("vertex ids must be in BFS order "
                             "(parent ids non-decreasing)")
        self.parent = parent
        self.n = int(n)

        # in BFS order the children of v are the ids last[v - 1] + 1 to
        # last[v], last the running child count, so the level after the
        # one ending at id b ends at last[b - 1] + 1; level d occupies ids
        # [_level_start[d], _level_start[d + 1])
        last = np.bincount(body, minlength=n)
        np.cumsum(last, out=last)
        bounds = array("q", [0, 1])
        while bounds[-1] < n:
            bounds.append(last.item(bounds[-1] - 1) + 1)
        self._level_start, self.height = bounds, len(bounds) - 2
        self.depth = np.repeat(np.arange(self.height + 1, dtype=np.int32),
                               np.diff(bounds))

        parent.setflags(write=False)
        self.depth.setflags(write=False)
        self._levels = None
        self._segments = None

    # -- basic structure ------------------------------------------------

    def n_children(self) -> np.ndarray:
        return np.bincount(self.parent[1:], minlength=self.n)

    def levels(self) -> tuple:
        """The depth levels 0..height as ``Level`` records, root first."""
        if self._levels is None:
            bounds = self._level_start
            self._levels = tuple(Level(slice(lo, hi), self.parent[lo:hi])
                                 for lo, hi in zip(bounds, bounds[1:]))
        return self._levels

    def path_scan(self, x, op=np.add):
        """x[v] = op(x[v], x[parent[v]]) for every vertex but the root, root
        first, in place; returns x.  With np.add, the root-path prefix sums
        of x; with np.maximum, its root-path maxima.  x is indexed by vertex
        along its first axis."""
        for level in self.levels()[1:]:
            own = x[level.ids]
            op(own, x[level.parent], out=own)
        return x

    def subtree_sums(self, x):
        """x[v] = the sum of x over the subtree of v, for every vertex, in
        place; returns x.  One level at a time, deepest first: each
        parent's children are consecutive ids, so a level adds its
        per-parent child sums (np.add.reduceat, or two strided slices when
        every parent has two children) into the parents' rows.  x is
        indexed by vertex along its first axis, of any dtype numpy adds
        (Python ints in an object array are summed exactly)."""
        if self._segments is None:
            self._segments = tuple(_segments(level.parent)
                                   for level in self.levels()[1:])
        for level, seg in zip(self.levels()[:0:-1], self._segments[::-1]):
            vals = x[level.ids]
            if seg.pairs:
                x[seg.targets] += vals[0::2] + vals[1::2]
            else:
                x[seg.targets] += np.add.reduceat(vals, seg.starts, axis=0)
        return x

    def preorder(self) -> tuple:
        """(pre, size): each vertex's preorder rank (children in id order)
        and its subtree's size, so the subtree of v holds the ranks pre[v]
        to pre[v] + size[v] - 1, and one subtree lies in another exactly
        when its range does.  The sizes are subtree sums of ones; a rank is
        the root-path sum of 1 + the vertex's offset past its parent, the
        sizes of its earlier siblings.  Those are the ids just before it,
        so one running sum over ids, restarted at every parent, gives each
        child's offset.
        """
        size = self.subtree_sums(np.ones(self.n, dtype=np.int64))
        sizes, par = size[1:], self.parent[1:]
        before = np.cumsum(sizes) - sizes
        first = np.ones(par.size, dtype=bool)
        first[1:] = par[1:] != par[:-1]
        pre = np.zeros(self.n, dtype=np.int64)
        pre[1:] = 1 + before - np.maximum.accumulate(
            np.where(first, before, 0))
        return self.path_scan(pre), size

    # -- serialization ---------------------------------------------------

    def to_json(self, out, u=None, w=None) -> None:
        """Write json.dumps's text of {"parent", "u", "w"} (u, w if given) and
        a newline to the text stream out, _JSON_CHUNK entries at a time."""
        for name, arr in (("parent", self.parent), ("u", u), ("w", w)):
            if arr is not None:
                arr = arr if name == "parent" else np.asarray(arr, float)
                out.write(f'{", " if name != "parent" else "{"}"{name}": [')
                for at in range(0, arr.size, _JSON_CHUNK):
                    out.write(", " * (at > 0) + json.dumps(
                        arr[at:at + _JSON_CHUNK].tolist())[1:-1])
                out.write("]")
        out.write("}\n")

    @staticmethod
    def from_json(text: str):
        """Parse the JSON tree format; returns (tree, u, w) with u, w optional."""
        doc = json.loads(text)
        for name in ("parent", "u", "w"):
            value = doc[name] if name in doc else []
            # numpy reads JSON true and false as 1 and 0 among numbers
            if bool in map(type, value if isinstance(value, list)
                           else [value]):
                raise ValueError(
                    f"{name} must hold numbers, got a JSON boolean")
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
    if arity < 1:
        raise ValueError(f"arity must be >= 1, got {arity}")
    if height < 0:
        raise ValueError(f"height must be >= 0, got {height}")
    # 1 + arity + ... + arity^height; a branching tree taller than the
    # cap's bit length is past the cap, so the sum stops there
    n = height + 1 if arity == 1 else sum(
        arity ** d for d in range(min(height, MAX_VERTICES.bit_length()) + 1))
    _check_size(n)
    # in BFS order vertex v's children are arity v + 1, ..., arity v + arity
    return Tree(np.arange(-1, n - 1) // arity)


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
    # roots rise with depth along a root path: the nearest marked ancestor
    # holds the largest label on it
    tree.path_scan(label[:-1], np.maximum)
    return SubtreePartition(roots, label)
