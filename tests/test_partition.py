import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tree_cases import (
    CsrReference,
    bfs_tree,
    labelled_partition,
    path_tree,
    trees,
)

from entropy_lab.partition import (
    PartitionFamily,
    VertexWeight,
    _check_inputs,
    _coarsen_once,
    _merge_level,
    balanced_partition,
    dyadic_family,
)
from entropy_lab.trees import (
    SubtreePartition,
    Tree,
    _hanging_parts,
    full_tree,
)


def star_tree(leaves):
    return Tree([-1] + [0] * leaves)


def bounded_random_tree(n, k, rng):
    """Random BFS-ordered tree with every vertex having at most k children."""
    parent = [-1]
    counts = [0]
    for i in range(1, n):
        open_ids = [v for v in range(i) if counts[v] < k]
        # bias towards recent vertices so depth grows
        v = open_ids[rng.integers(max(0, len(open_ids) - 4), len(open_ids))]
        parent.append(v)
        counts[v] += 1
        counts.append(0)
    return bfs_tree(parent)


# -- VertexWeight ------------------------------------------------------------


def test_vertex_weight_validation():
    VertexWeight(np.array([0.0, 1.0, 2.5]))
    with pytest.raises(ValueError, match=">= 0"):
        VertexWeight(np.array([1.0, -0.1]))
    with pytest.raises(ValueError, match="finite"):
        VertexWeight(np.array([np.inf]))
    w = VertexWeight(np.array([0.0, 2.0, 0.0, 5.0]))
    assert w.total() == 7.0
    assert len(VertexWeight.uniform(6)) == 6


# -- balanced_partition ------------------------------------------------------


def test_n1_gives_whole_tree():
    t = full_tree(3, 2)
    part = balanced_partition(t, VertexWeight.uniform(t.n), 1, 3)
    assert part.n_parts() == 1
    assert part.parts[0].size == t.n
    part.validate(t)


def test_n1_whole_tree_even_with_zero_weight_root():
    t = path_tree(2)
    part = balanced_partition(t, VertexWeight(np.array([0.0, 1.0])), 1, 1)
    assert part.n_parts() == 1


def test_path6_three_pairs():
    t = path_tree(6)
    part = balanced_partition(t, VertexWeight.uniform(6), 3, 1)
    assert part.n_parts() == 3
    got = sorted(tuple(p.tolist()) for p in part.parts)
    assert got == [(0, 1), (2, 3), (4, 5)]
    for p in part.parts:
        assert p.size == 2  # weight 2 <= (1+2)*6/3
    part.validate(t)


def test_star5_respects_mass_bound():
    t = star_tree(5)
    part = balanced_partition(t, VertexWeight.uniform(6), 5, 5)
    part.validate(t)
    bound = (5 + 2) * 6.0 / 5
    for p in part.parts:
        if p.size >= 2:
            assert p.size <= bound
    assert part.n_parts() <= (5 + 2) * 5
    assert part.meta["C"] == 7.0


def test_heavy_vertex_becomes_singleton():
    t = path_tree(4)
    part = balanced_partition(t, VertexWeight(np.array([1.0, 100.0, 1.0, 1.0])),
                              4, 1)
    part.validate(t)
    assert any(p.size == 1 and p[0] == 1 for p in part.parts)


def test_branching_violation_reported():
    t = star_tree(5)
    with pytest.raises(ValueError, match="branching bound violated"):
        balanced_partition(t, VertexWeight.uniform(6), 2, 3)


def test_all_zero_weights_rejected():
    t = path_tree(4)
    with pytest.raises(ValueError, match="all-zero"):
        balanced_partition(t, VertexWeight(np.zeros(4)), 2, 1)


def test_weight_length_mismatch():
    t = path_tree(4)
    with pytest.raises(ValueError, match="length"):
        balanced_partition(t, VertexWeight.uniform(5), 2, 1)


def test_deterministic():
    rng = np.random.default_rng(0)
    t = bounded_random_tree(60, 3, rng)
    w = VertexWeight(rng.integers(0, 10, 60).astype(float))
    a = balanced_partition(t, w, 5, 3)
    b = balanced_partition(t, w, 5, 3)
    assert [p.tolist() for p in a.parts] == [p.tolist() for p in b.parts]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 60), st.integers(1, 4), st.integers(1, 12),
       st.integers(0, 10 ** 6))
def test_partition_bounds_hold_exactly(n, k, parts_n, seed):
    rng = np.random.default_rng(seed)
    t = bounded_random_tree(n, k, rng)
    phi_int = rng.integers(0, 10, n)
    if phi_int.sum() == 0:
        phi_int[rng.integers(0, n)] = 1
    part = balanced_partition(t, VertexWeight(phi_int.astype(float)),
                              parts_n, k)
    part.validate(t)
    assert part.n_parts() <= (k + 2) * parts_n
    total = int(phi_int.sum())
    for p in part.parts:
        if p.size >= 2:
            # integer arithmetic: mass <= (k+2) * total / parts_n exactly
            assert parts_n * int(phi_int[p].sum()) <= (k + 2) * total


# -- dyadic_family -----------------------------------------------------------


def test_family_n0_one_single_level():
    t = full_tree(2, 3)
    fam = dyadic_family(t, VertexWeight.uniform(t.n), 1, 2)
    assert fam.n_levels() == 1
    assert fam.levels[0].n_parts() == 1
    fam.validate(t)


def test_family_path8_counts_and_cross():
    t = path_tree(8)
    fam = dyadic_family(t, VertexWeight.uniform(8), 4, 1)
    assert [lv.n_parts() for lv in fam.levels] == [4, 2, 1]
    fam.validate(t)
    assert fam.meta["cross"] <= 2
    assert fam.meta["C"] <= 3.0
    assert not fam.meta["relaxed"]


def test_family_binary_depth3_laminar():
    t = full_tree(2, 3)
    fam = dyadic_family(t, VertexWeight.uniform(t.n), 4, 2)
    assert fam.n_levels() == 3
    fam.validate(t)  # includes the containment (laminarity) check
    top = fam.levels[-1]
    assert top.n_parts() == 1 and top.parts[0].size == t.n


def test_family_counts_within_reported_constant():
    rng = np.random.default_rng(7)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 120))
        t = bounded_random_tree(n, 3, rng)
        w = VertexWeight(rng.integers(1, 6, n).astype(float))
        fam = dyadic_family(t, w, 16, 3)
        fam.validate(t)
        assert fam.n_levels() == 5
        for l, lv in enumerate(fam.levels):
            assert lv.n_parts() <= fam.meta["C"] * 16 * 2.0 ** (-l)


def test_family_deterministic():
    rng = np.random.default_rng(9)
    t = bounded_random_tree(80, 2, rng)
    w = VertexWeight(rng.integers(1, 5, 80).astype(float))
    a = dyadic_family(t, w, 8, 2)
    b = dyadic_family(t, w, 8, 2)
    assert a.meta == b.meta and a.n_levels() == b.n_levels()
    for x, y in zip(a.levels, b.levels):
        assert np.array_equal(x.label, y.label)


# -- the per-vertex sweeps the level sweeps replaced, kept as references ------


def _ref_balanced_partition(tree, weights, n, k):
    _check_inputs(tree, weights, n, k)
    phi = weights.phi
    tau = weights.total() / n
    if n == 1:
        return np.array([0]), [np.arange(tree.n)]
    csr = CsrReference(tree)
    marked = np.zeros(tree.n, dtype=bool)
    res = np.zeros(tree.n)
    for v in range(tree.n - 1, -1, -1):
        pend = [c for c in csr.children(v) if not marked[c]]
        mass = phi[v] + sum(res[c] for c in pend)
        if mass >= tau:
            marked[v] = True
            if phi[v] > tau:
                for c in pend:
                    marked[c] = True
        else:
            res[v] = mass
    marked[0] = True
    top = np.zeros(tree.n, dtype=np.int64)
    for v in range(1, tree.n):
        top[v] = v if marked[v] else top[tree.parent[v]]
    roots = np.flatnonzero(marked)
    order = np.argsort(top, kind="stable")
    bounds = np.searchsorted(top[order], roots)
    parts = [np.sort(order[a:b]) for a, b in
             zip(bounds, np.append(bounds[1:], tree.n))]
    return roots, parts


def _ref_hanging_parts(tree, marked):
    """The nearest-marked-ancestor tail of the level-sweep balanced_partition
    before the subtree-partition builder took it over."""
    levels = tree.levels()
    top = np.zeros(tree.n, dtype=np.int64)
    for level in levels[1:]:
        top[level.ids] = np.where(marked[level.ids],
                                  np.arange(level.ids.start, level.ids.stop),
                                  top[level.parent])
    roots = np.flatnonzero(marked)
    order = np.argsort(top, kind="stable")
    parts = np.split(order, np.searchsorted(top[order], roots[1:]))
    return roots, parts


def _ref_coarsen_once(tree, prev, cap):
    """The coarsening greedy in per-part Python loops, over a part map and
    quotient parents rebuilt from the parts, walking the parts deepest
    root first: returns (groups as lists of prev-part indices, largest
    group size)."""
    n_parts = prev.n_parts()
    part_of = np.full(tree.n, -1, dtype=np.int64)
    for i, p in enumerate(prev.parts):
        part_of[p] = i
    q_parent = np.full(n_parts, -1, dtype=np.int64)
    for i, r in enumerate(prev.roots):
        if int(r) != 0:
            q_parent[i] = part_of[tree.parent[int(r)]]
    q_children = [[] for _ in range(n_parts)]
    for i, qp in enumerate(q_parent):
        if qp >= 0:
            q_children[qp].append(i)
    root_depth = tree.depth[prev.roots]
    order = np.argsort(-root_depth, kind="stable")
    group_of = np.full(n_parts, -1, dtype=np.int64)
    groups = []
    for i in order:
        pend = [c for c in q_children[i] if group_of[c] < 0]
        if not pend:
            continue
        take = pend[:cap - 1]
        gid = len(groups)
        groups.append([int(i)] + [int(c) for c in take])
        group_of[i] = gid
        for c in take:
            group_of[c] = gid
    for i in range(n_parts):
        if group_of[i] < 0:
            groups.append([i])
    return groups, max(len(g) for g in groups)


def _ref_merge_level(prev, groups):
    """_merge_level for groups given as lists of prev-part indices."""
    sizes = [len(g) for g in groups]
    members = np.concatenate([np.asarray(g, dtype=np.int64) for g in groups])
    starts = np.cumsum([0] + sizes[:-1])
    roots = np.minimum.reduceat(prev.roots[members], starts)
    order = np.argsort(roots)
    rank = np.argsort(order)
    merged = np.full(prev.n_parts() + 1, -1, dtype=np.int64)
    merged[members] = np.repeat(rank, sizes)
    return SubtreePartition(roots[order], merged[prev.label])


def _ref_part_validate(part, tree):
    seen = np.concatenate(part.parts) if part.parts else np.array([], dtype=np.int64)
    if seen.size != np.unique(seen).size:
        raise AssertionError("parts overlap")
    if not np.array_equal(np.sort(seen), np.sort(part.universe)):
        raise AssertionError("parts do not cover the universe")
    for r, vertices in zip(part.roots, part.parts):
        members = set(int(x) for x in vertices)
        if int(r) not in members:
            raise AssertionError("root not inside its part")
        for v in vertices:
            v = int(v)
            if v != int(r) and int(tree.parent[v]) not in members:
                raise AssertionError(
                    f"part rooted at {int(r)} is not connected at vertex {v}")


def _ref_family_validate(fam, tree, part_validate=_ref_part_validate):
    big_c = fam.meta.get("C", np.inf)
    cross = fam.meta.get("cross", np.inf)
    for l, level in enumerate(fam.levels):
        part_validate(level, tree)
        if level.n_parts() > big_c * fam.n0 * 2.0 ** (-l) + 1e-9:
            raise AssertionError(
                f"level {l} has {level.n_parts()} parts, above the "
                f"reported C * 2^-l * n0")
    top = fam.levels[-1]
    if top.n_parts() != 1 or top.parts[0].size != tree.n:
        raise AssertionError("top level is not the whole tree")
    for l in range(len(fam.levels) - 1):
        fine, coarse = fam.levels[l], fam.levels[l + 1]
        owner = np.full(tree.n, -1, dtype=np.int64)
        for i, p in enumerate(coarse.parts):
            owner[p] = i
        hits = np.zeros(coarse.n_parts(), dtype=np.int64)
        for p in fine.parts:
            owners = np.unique(owner[p])
            # -1: the part lies outside every coarse part
            if owners.size != 1 or owners[0] < 0:
                raise AssertionError(
                    f"level {l} part crosses level {l + 1} parts")
            hits[owners[0]] += 1
        if hits.max() > cross:
            raise AssertionError(
                f"a level-{l + 1} part meets {int(hits.max())} level-{l} "
                f"parts, above the reported cross constant")


def _weights(style, n, rng):
    if style == "uniform":
        return VertexWeight.uniform(n)
    if style == "exponential":
        return VertexWeight(rng.exponential(1.0, n) + 1e-9)
    if style == "pareto":
        return VertexWeight(rng.pareto(1.5, n) + 1e-9)
    # zero-heavy: most vertices weigh nothing, the rest small integers
    phi = np.where(rng.random(n) < 0.8, 0.0, rng.integers(1, 4, n))
    phi[rng.integers(0, n)] += 1.0
    return VertexWeight(phi)


WEIGHT_STYLES = ["uniform", "exponential", "pareto", "zero-heavy"]


@settings(max_examples=200, deadline=None)
@given(tree=trees(), style=st.sampled_from(WEIGHT_STYLES),
       n=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1))
def test_level_sweep_partition_matches_reference_exactly(tree, style, n, seed):
    wts = _weights(style, tree.n, np.random.default_rng(seed))
    k = max(1, int(tree.n_children().max()))
    part = balanced_partition(tree, wts, n, k)
    roots, parts = _ref_balanced_partition(tree, wts, n, k)
    assert np.array_equal(part.roots, roots)
    assert len(part.parts) == len(parts)
    assert all(np.array_equal(a, b) for a, b in zip(part.parts, parts))
    part.validate(tree)
    _ref_part_validate(part, tree)


@settings(max_examples=200, deadline=None)
@given(tree=trees(), density=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_hanging_parts_match_the_former_tail_exactly(tree, density, seed):
    marked = np.random.default_rng(seed).random(tree.n) < density
    marked[0] = True
    part = _hanging_parts(tree, marked)
    roots, parts = _ref_hanging_parts(tree, marked)
    assert np.array_equal(part.roots, roots)
    assert len(part.parts) == len(parts)
    assert all(a.dtype == b.dtype and np.array_equal(a, b)
               for a, b in zip(part.parts, parts))
    assert np.array_equal(part.universe, np.arange(tree.n))
    part.validate(tree)


@settings(max_examples=150, deadline=None)
@given(tree=trees(), style=st.sampled_from(WEIGHT_STYLES),
       n=st.integers(1, 64), cap=st.integers(2, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_coarsening_matches_the_per_part_loops_exactly(tree, style, n, cap,
                                                       seed):
    wts = _weights(style, tree.n, np.random.default_rng(seed))
    prev = balanced_partition(tree, wts, n,
                              max(1, int(tree.n_children().max())))
    # every coarser level on the way to a single part
    while True:
        group = _coarsen_once(tree, prev, cap)
        groups, gmax = _ref_coarsen_once(tree, prev, cap)
        # the grouping the labels induce, each label its group's first part
        labels = np.unique(group)
        induced = [np.flatnonzero(group == g).tolist() for g in labels]
        assert [m[0] for m in induced] == labels.tolist()
        assert induced == sorted(groups)
        assert np.bincount(group).max() == gmax
        merged = _merge_level(prev, group)
        ref = _ref_merge_level(prev, groups)
        assert np.array_equal(merged.roots, ref.roots)
        assert np.array_equal(merged.label, ref.label)
        if len(groups) == 1:
            break
        prev = merged


@settings(max_examples=100, deadline=None)
@given(tree=trees(), style=st.sampled_from(WEIGHT_STYLES),
       n0=st.sampled_from([1, 2, 4, 8, 16, 32, 64]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_validators_agree_with_reference_on_families(tree, style, n0, seed):
    """Both validators accept every family; after one vertex moves to
    another part of a level, both reject it or both accept it (the message
    may differ when the edit breaks more than one invariant)."""
    rng = np.random.default_rng(seed)
    fam = dyadic_family(tree, _weights(style, tree.n, rng), n0,
                        max(1, int(tree.n_children().max())))
    fam.validate(tree)
    _ref_family_validate(fam, tree)
    l = int(rng.integers(0, fam.n_levels()))
    level = fam.levels[l]
    if level.n_parts() < 2:
        return
    src, dst = rng.choice(level.n_parts(), 2, replace=False)
    v = int(rng.choice(level.parts[src]))
    label = level.label.copy()
    label[v] = dst
    levels = list(fam.levels)
    levels[l] = SubtreePartition(level.roots, label)
    bad = PartitionFamily(levels, fam.n0, fam.meta)
    verdicts = []
    for check in (bad.validate, lambda t: _ref_family_validate(bad, t)):
        try:
            check(tree)
            verdicts.append(True)
        except AssertionError:
            verdicts.append(False)
    assert verdicts[0] == verdicts[1]


# -- every validator branch can fire, on the new and the reference code -------


PART_VALIDATORS = [pytest.param(SubtreePartition.validate, id="new"),
                   pytest.param(_ref_part_validate, id="reference")]
FAMILY_VALIDATORS = [pytest.param(PartitionFamily.validate, id="new"),
                     pytest.param(_ref_family_validate, id="reference")]


@pytest.mark.parametrize("validate", PART_VALIDATORS)
@pytest.mark.parametrize("roots, parts, message", [
    # root ids outside the tree: past its last vertex, and the parent id -1
    ([0, 7], [[0, 1, 3, 4], [2, 5, 6]], "root not inside"),
    ([-1, 2], [[0, 1, 3, 4], [2, 5, 6]], "root not inside"),
    ([1, 2], [[0, 2, 5, 6], [1, 3, 4]], "root not inside"),
    ([0, 3], [[0, 1, 3, 4], [2, 5, 6]], "root not inside"),
    ([0, 1], [[0, 2, 3, 5, 6], [1, 4]], "not connected at vertex 3"),
    ([0, 3], [[0, 1, 2, 5, 6], [3, 4]], "not connected at vertex 4"),
])
def test_part_validator_fails_on_bad_partition(validate, roots, parts,
                                               message):
    t = full_tree(2, 2)  # 0 -> 1, 2; 1 -> 3, 4; 2 -> 5, 6
    good = labelled_partition(t.n, [0, 1, 2], [[0], [1, 3, 4], [2, 5, 6]])
    validate(good, t)
    with pytest.raises(AssertionError, match=message):
        validate(labelled_partition(t.n, roots, parts), t)


def test_part_validator_rejects_roots_without_parts():
    t = full_tree(2, 2)
    # a root whose part holds no vertex
    bad = labelled_partition(t.n, [0, 1], [[0, 1, 2, 3, 4, 5, 6]])
    with pytest.raises(AssertionError, match="root not inside"):
        bad.validate(t)
    # a labelled part without a root
    bad = labelled_partition(t.n, [0], [[0, 2, 5, 6], [1, 3, 4]])
    with pytest.raises(AssertionError, match="label out of range"):
        bad.validate(t)


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda label: label[:-1], "label needs 8 entries",
                 id="short"),
    pytest.param(lambda label: np.append(label, -1), "label needs 8 entries",
                 id="long"),
    pytest.param(lambda label: np.where(np.arange(8) == 7, 0, label),
                 "ending in -1", id="parent-slot-labelled"),
    pytest.param(lambda label: np.where(np.arange(8) == 4, 3, label),
                 "out of range", id="past-last-part"),
    pytest.param(lambda label: np.where(np.arange(8) == 4, -2, label),
                 "out of range", id="below-minus-one"),
])
def test_part_validator_fails_on_bad_label(edit, message):
    t = full_tree(2, 2)
    good = labelled_partition(t.n, [0, 1, 2], [[0], [1, 3, 4], [2, 5, 6]])
    good.validate(t)
    with pytest.raises(AssertionError, match=message):
        SubtreePartition(good.roots, edit(good.label)).validate(t)


def _path8_family():
    t = path_tree(8)
    fam = dyadic_family(t, VertexWeight.uniform(8), 4, 1)
    assert [lv.n_parts() for lv in fam.levels] == [4, 2, 1]
    return t, fam


def _edit(fam, l=None, parts=None, **meta):
    levels = list(fam.levels)
    if l is not None:
        levels[l] = labelled_partition(8, [p[0] for p in parts], parts)
    return PartitionFamily(levels, fam.n0, {**fam.meta, **meta})


@pytest.mark.parametrize("validate", FAMILY_VALIDATORS)
def test_family_validator_fails_on_each_bad_family(validate):
    t, fam = _path8_family()
    validate(fam, t)
    cases = [
        # a level's part is broken: the part validator fires inside
        (_edit(fam, 1, [[0, 1, 4, 5], [2, 3, 6, 7]]),
         "not connected at vertex 4"),
        # level 0 holds more parts than C * n0 allows
        (_edit(fam, C=0.5), "level 0 has 4 parts"),
        # a fine part straddles two coarse parts
        (_edit(fam, 0, [[0, 1], [2, 3, 4], [5], [6, 7]]), "crosses"),
        # a coarse part meets more fine parts than the cross constant
        (_edit(fam, cross=1), "meets 2 level-0 parts"),
        # the top level is not the whole tree
        (PartitionFamily(fam.levels[:-1], fam.n0, fam.meta),
         "not the whole tree"),
    ]
    for bad, message in cases:
        with pytest.raises(AssertionError, match=message):
            validate(bad, t)


def test_family_validator_rejects_a_level_that_leaves_parts_out():
    # level 1 drops vertices 6 and 7: level 0's part [6, 7] lies in no
    # level-1 part.  Counted against the last coarse part, it would lift
    # that part's count to 2, within cross = 2, so only the missing owner
    # can reject the family.
    t, fam = _path8_family()
    assert [p.tolist() for p in fam.levels[0].parts] == [[0, 1], [2, 3],
                                                         [4, 5], [6, 7]]
    bad = _edit(fam, 1, [[0, 1, 2, 3], [4, 5]])
    assert bad.meta["cross"] == 2
    for validate in (PartitionFamily.validate, _ref_family_validate):
        with pytest.raises(AssertionError, match="level 0 part crosses"):
            validate(bad, t)


def test_family_counts_are_held_to_the_a_priori_constant(monkeypatch):
    """C is k + 2 whatever the coarsening achieves: with a coarsening that
    merges nothing, a level keeps more parts than C * 2^-l * n0 allows."""
    monkeypatch.setattr(
        "entropy_lab.partition._coarsen_once",
        lambda tree, prev, cap: np.arange(prev.n_parts()))
    t = path_tree(64)
    fam = dyadic_family(t, VertexWeight.uniform(64), 16, 1)
    assert [lv.n_parts() for lv in fam.levels] == [16, 16, 16, 16, 1]
    with pytest.raises(AssertionError, match="level 2 has 16 parts"):
        fam.validate(t)
    assert fam.meta["C"] == 3.0 and fam.meta["achieved_C"] == 8.0
