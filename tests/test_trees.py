import io
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tree_cases import CsrReference, path_tree, trees

from entropy_lab import HProfile, Tree, full_tree, random_tree
from entropy_lab import trees as trees_module


def random_parent(n, branching, rng):
    """BFS-ordered parent array with bounded branching (test helper)."""
    parent = [-1]
    depth = [0]
    counts = [0]
    frontier = [0]
    while len(parent) < n:
        nxt = []
        for v in frontier:
            room = branching - counts[v]
            if room <= 0 or len(parent) >= n:
                continue
            k = int(rng.integers(1, room + 1))
            for _ in range(min(k, n - len(parent))):
                counts[v] += 1
                counts.append(0)
                parent.append(v)
                depth.append(depth[v] + 1)
                nxt.append(len(parent) - 1)
        if not nxt:
            # forced: extend from the last vertex to keep growing
            v = len(parent) - 1
            counts[v] += 1
            counts.append(0)
            parent.append(v)
            depth.append(depth[v] + 1)
            nxt = [len(parent) - 1]
        frontier = nxt
    return np.asarray(parent, dtype=np.int64)


def layer_of(h, m_star, j):
    """The layer whose depth window holds depth j."""
    t = 0
    while j >= h.depth_range(t, m_star)[1]:
        t += 1
    return t


def ref_full_tree_parent(arity, height):
    """full_tree's parent array built one vertex at a time, level by level."""
    sizes = [arity ** d for d in range(height + 1)]
    parent = [-1]
    first_of_level = [0]
    for d in range(1, height + 1):
        first_of_level.append(len(parent))
        prev_first = first_of_level[d - 1]
        for i in range(sizes[d]):
            parent.append(prev_first + i // arity)
    return np.array(parent, dtype=np.int64)


class TestConstruction:
    def test_single_vertex(self):
        t = Tree([-1])
        assert t.n == 1 and t.height == 0 and t.n_children().max() == 0

    def test_path_depths(self):
        t = path_tree(5)
        assert t.height == 4
        assert t.depth.tolist() == [0, 1, 2, 3, 4]

    def test_rejects_bad_root(self):
        with pytest.raises(ValueError):
            Tree([0, 0])

    def test_rejects_forward_parent(self):
        with pytest.raises(ValueError):
            Tree([-1, 2, 1])

    def test_rejects_non_bfs(self):
        # vertex 3 at depth 1 after vertex 2 at depth 2: depths decrease
        with pytest.raises(ValueError, match="BFS order"):
            Tree([-1, 0, 1, 0])

    def test_rejects_parents_out_of_order_within_a_level(self):
        # depths 0, 1, 1, 2, 2 never decrease, but vertex 4's parent 1
        # comes after vertex 3's parent 2
        with pytest.raises(ValueError, match="BFS order"):
            Tree([-1, 0, 0, 2, 1])

    @pytest.mark.parametrize("parent", [
        [-1, 0.9, 1.5], [-1.0, 0.0], ["-1", "0"], [-1, 0, None]])
    def test_rejects_entries_that_are_not_integers(self, parent):
        # none is truncated or parsed into a tree it does not describe
        with pytest.raises(ValueError, match="parent must hold integers"):
            Tree(parent)
        with pytest.raises(ValueError, match="parent must hold integers"):
            Tree.from_json(json.dumps({"parent": parent}))

    def test_builds_in_linear_memory(self):
        parent = full_tree(2, 17).parent
        tracemalloc.start()
        try:
            Tree(parent)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * parent.size

    def test_vertex_cap(self):
        with mock.patch.object(trees_module, "MAX_VERTICES", 50):
            Tree(np.arange(-1, 49))
            with pytest.raises(ValueError, match="cap is 50"):
                Tree(np.arange(-1, 99))
            # the cap guards trees loaded from JSON too
            with pytest.raises(ValueError, match="cap is 50"):
                Tree.from_json(json.dumps({"parent": list(range(-1, 99))}))

    def test_builders_check_the_cap_before_allocating(self):
        with mock.patch.object(trees_module, "MAX_VERTICES", 50):
            assert full_tree(2, 4).n == 31 and full_tree(1, 49).n == 50
            assert random_tree(50, 3, seed=0).n == 50
            # the closed-form size stops summing past the cap
            for arity, height in ((2, 5), (1, 50), (2, 10 ** 9), (1, 10 ** 9),
                                  (10 ** 15, 30)):
                with pytest.raises(ValueError, match="cap is 50"):
                    full_tree(arity, height)
            for n in (51, 10 ** 400):
                with pytest.raises(ValueError, match="cap is 50"):
                    random_tree(n, 3, seed=0)

    def test_full_binary_counts(self):
        t = full_tree(2, 4)
        assert t.n == 31
        assert [lv.parent.size for lv in t.levels()] == [1, 2, 4, 8, 16]
        assert t.n_children().max() == 2

    def test_full_tree_names_its_bad_counts(self):
        with pytest.raises(ValueError, match="arity must be >= 1, got 0"):
            full_tree(0, 3)
        with pytest.raises(ValueError, match="height must be >= 0, got -1"):
            full_tree(2, -1)

    def test_full_tree_matches_the_per_vertex_loop(self):
        for arity in range(1, 5):
            for height in range(10):
                got = full_tree(arity, height).parent
                ref = ref_full_tree_parent(arity, height)
                assert got.dtype == ref.dtype and np.array_equal(got, ref)


class TestStructureOps:
    def test_subtree_of_path(self):
        t = path_tree(6)
        pre, size = t.preorder()
        assert pre.tolist() == [0, 1, 2, 3, 4, 5]
        assert size.tolist() == [6, 5, 4, 3, 2, 1]

    def test_json_roundtrip(self):
        t = full_tree(2, 3)
        u = np.linspace(1, 2, t.n)
        w = np.linspace(2, 3, t.n)
        out = io.StringIO()
        t.to_json(out, u=u, w=w)
        t2, u2, w2 = Tree.from_json(out.getvalue())
        assert np.array_equal(t2.parent, t.parent)
        assert np.allclose(u2, u) and np.allclose(w2, w)

    def test_json_is_written_in_chunks_in_bounded_memory(self, tmp_path):
        t = full_tree(2, 17)  # 2^18 - 1 vertices
        path = tmp_path / "t.json"
        with open(path, "w") as out:
            tracemalloc.start()
            try:
                t.to_json(out)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert path.read_text() == json.dumps(
            {"parent": t.parent.tolist()}) + "\n"
        # json.dumps of the whole document peaks at 16 MB here
        assert peak < 4 * 2 ** 20

    def test_json_chunks_keep_the_json_dumps_bytes(self):
        t = full_tree(2, 14)  # two chunks and a part
        u, w = np.linspace(0.1, 3.0, t.n), np.geomspace(1e-300, 1e300, t.n)
        for weights in ({}, {"u": u}, {"u": u, "w": w}):
            out = io.StringIO()
            t.to_json(out, **weights)
            assert out.getvalue() == json.dumps(
                {"parent": t.parent.tolist(),
                 **{k: v.tolist() for k, v in weights.items()}}) + "\n"

    @pytest.mark.parametrize("doc", [
        {"parent": [-1, 0, True]}, {"parent": [-1, 0], "u": [1.0, True]},
        {"parent": [-1, 0], "w": [False, 2.0]}, {"parent": [-1], "u": True}])
    def test_json_refuses_booleans(self, doc):
        # numpy would read them as 1 and 0: [-1, 0, true] as the tree
        # [-1, 0, 1]
        with pytest.raises(ValueError, match="JSON boolean"):
            Tree.from_json(json.dumps(doc))

    def test_json_length_mismatch(self):
        with pytest.raises(ValueError):
            Tree.from_json(json.dumps({"parent": [-1, 0], "u": [1.0]}))

    @given(st.integers(2, 120), st.integers(1, 4), st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_random_tree_edges_reproduce(self, n, b, seed):
        parent = random_parent(n, b, np.random.default_rng(seed))
        t = Tree(parent)
        assert np.array_equal(t.parent, parent)
        # depths rebuilt from the parent array, one vertex at a time
        depth = [0] * n
        for v in range(1, n):
            depth[v] = depth[parent[v]] + 1
        assert t.depth.tolist() == depth
        assert t.height == max(depth)
        assert t.n_children().max() <= b or n <= 2


class TestLayering:
    """HProfile.depth_range: power profiles (theta > 0) layer linearly,
    log profiles (theta = 0) doubly-exponentially."""

    def test_linear_buckets(self):
        h = HProfile(theta=1.0)
        ts = [layer_of(h, 1, j) for j in range(17)]
        assert ts == [0, 1, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4, 4, 5]

    def test_linear_depth_range_consistent(self):
        # the ranges tile the depths, layer t >= 1 holding 2^(t-1) <= j < 2^t
        h = HProfile(theta=0.5)
        prev_hi = 0
        for t in range(6):
            lo, hi = h.depth_range(t, 1)
            assert lo == prev_hi and lo < hi
            for j in range(lo, hi):
                assert (j == 0) if t == 0 else 2 ** (t - 1) <= j < 2 ** t
            prev_hi = hi

    def test_doubly_exponential_buckets(self):
        h = HProfile(theta=0.0, gamma=-1.0)
        assert layer_of(h, 1, 1) == 0
        assert layer_of(h, 1, 2) == 1
        assert layer_of(h, 1, 3) == 1
        assert layer_of(h, 1, 4) == 2
        assert layer_of(h, 1, 15) == 2
        assert layer_of(h, 1, 16) == 3
        assert layer_of(h, 1, 255) == 3
        assert layer_of(h, 1, 256) == 4

    def test_doubly_exponential_range(self):
        assert HProfile(theta=0.0).depth_range(3, 1) == (16, 256)

    def test_m_star_scaling(self):
        # m_* j = 4 j; layer of j=1 is floor(log2 4)+1 = 3
        assert layer_of(HProfile(theta=1.0), 4, 1) == 3

    def test_below_t0_raises(self):
        with pytest.raises(ValueError, match="below t0=0"):
            HProfile(theta=1.0).depth_range(-1, 1)


# -- the level walks against the CSR walks --


def _same(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b)


@settings(max_examples=150, deadline=None)
@given(tree=trees())
def test_level_walks_match_the_csr_walks_exactly(tree):
    ref = CsrReference(tree)
    assert _same(tree.n_children(), ref.n_children())
    # depths rebuilt from the parent array, one vertex at a time
    depth = np.zeros(tree.n, dtype=np.int32)
    for v in range(1, tree.n):
        depth[v] = depth[tree.parent[v]] + 1
    assert _same(tree.depth, depth)
    # every subtree is the range of preorder ranks its root opens
    pre, size = tree.preorder()
    assert _same(np.sort(pre), np.arange(tree.n))
    # preorder: each vertex after its parent
    assert np.all(pre[1:] > pre[tree.parent[1:]])
    for v in range(tree.n):
        inside = (pre >= pre[v]) & (pre < pre[v] + size[v])
        assert _same(np.flatnonzero(inside), ref.subtree(v))


def _root_path(tree, v):
    """The root path of v, root first, by walking parent ids."""
    path = [v]
    while tree.parent[path[-1]] >= 0:
        path.append(int(tree.parent[path[-1]]))
    return path[::-1]


def _combine(op, a, b):
    """op on two entries or rows, Python ints past int64 included."""
    if op is np.add:
        return a + b
    return np.maximum(a, b) if isinstance(a, np.ndarray) else max(a, b)


def _ref_path_scan(tree, x, op):
    # each vertex folds its root path from the root down, as
    # path_scan's x[v] = op(x[v], x[parent[v]]) does
    out = x.copy()
    for v in range(tree.n):
        path = _root_path(tree, v)
        acc = x[path[0]]
        for a in path[1:]:
            acc = _combine(op, x[a], acc)
        out[v] = acc
    return out


def _ref_subtree_sums(tree, x):
    out = np.zeros_like(x)
    for v in range(tree.n):
        for a in _root_path(tree, v):
            out[a] = out[a] + x[v]
    return out


@settings(max_examples=100, deadline=None)
@given(tree=trees(), seed=st.integers(0, 2 ** 32 - 1))
def test_level_sweeps_match_the_parent_walks_exactly(tree, seed):
    # int64, float64 whose every sum is exact (any order then agrees),
    # a float64 block of columns, and Python ints past float range
    rng = np.random.default_rng(seed)
    n = tree.n
    cases = [rng.integers(-1000, 1000, n),
             rng.integers(-2 ** 40, 2 ** 40, n) * 2.0 ** -30,
             rng.integers(-2 ** 40, 2 ** 40, (n, 3)) * 2.0 ** -30,
             np.array([int(v) << 2000 for v in rng.integers(-99, 99, n)],
                      dtype=object)]
    for x in cases:
        for op in (np.add, np.maximum):
            y = x.copy()
            assert tree.path_scan(y, op) is y
            assert _same(y, _ref_path_scan(tree, x, op))
        y = x.copy()
        assert tree.subtree_sums(y) is y
        assert _same(y, _ref_subtree_sums(tree, x))
    # rounded prefix sums: the same additions in the same order
    f = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-6, 7, (n, 2))
    assert _same(tree.path_scan(f.copy()), _ref_path_scan(tree, f, np.add))


class TestRandomTree:
    def test_size_branching_and_order(self):
        for seed in range(6):
            t = random_tree(500, 3, seed)
            assert t.n == 500
            assert t.n_children().max() <= 3
            assert np.all(np.diff(t.depth) >= 0)

    def test_deterministic(self):
        a = random_tree(200, 2, seed=9)
        b = random_tree(200, 2, seed=9)
        assert np.array_equal(a.parent, b.parent)
        assert not np.array_equal(a.parent, random_tree(200, 2, seed=10).parent)

    def test_single_vertex_and_chain(self):
        assert random_tree(1, 3, 0).n == 1
        # max_children=1 can only produce a path
        t = random_tree(40, 1, 5)
        assert t.height == 39

    def test_bad_args(self):
        with pytest.raises(ValueError):
            random_tree(0, 3, 0)
        with pytest.raises(ValueError):
            random_tree(5, 0, 0)
