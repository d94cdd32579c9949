"""Hypothesis strategies for trees that cover every branch of the level sweeps.

Imported by the test modules (pytest puts this directory on sys.path).
"""

import numpy as np
from hypothesis import strategies as st

from entropy_lab.hset import HProfile, generate_hset_tree
from entropy_lab.trees import Tree, random_tree


def unsorted_bfs_tree(n: int, max_children: int, seed: int) -> Tree:
    """BFS-ordered tree whose parent ids are shuffled within each level, so
    most levels have unsorted parents (the np.add.at path of the sweeps)."""
    rng = np.random.default_rng(seed)
    parent = [-1]
    frontier = np.array([0])
    while len(parent) < n:
        counts = rng.integers(0, max_children + 1, frontier.size)
        if counts.sum() == 0:
            counts[-1] = 1
        pars = np.repeat(frontier, counts)
        rng.shuffle(pars)
        pars = pars[:n - len(parent)]
        frontier = np.arange(len(parent), len(parent) + pars.size)
        parent.extend(pars.tolist())
    return Tree(parent)


@st.composite
def trees(draw, max_n: int = 64) -> Tree:
    """Trees on 1..max_n vertices: random trees with small fan-out, wide
    fan-out (segments longer than 8, which numpy's reduceat may sum
    pairwise), h-set trees (theta = 1 gives two children per parent), and
    trees with unsorted parent ids within a level."""
    kind = draw(st.sampled_from(["random", "wide", "hset", "unsorted"]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if kind == "hset":
        theta = draw(st.sampled_from([0.5, 1.0, 1.5]))
        depth = draw(st.integers(0, 4 if theta > 1.0 else 5))
        return generate_hset_tree(HProfile(theta=theta), 1, depth, seed=seed,
                                  start_depth=draw(st.integers(0, 8)))
    if kind == "unsorted":
        # a level needs two parents to come out of order
        return unsorted_bfs_tree(draw(st.integers(4, max_n)),
                                 draw(st.integers(2, 5)), seed)
    n = draw(st.integers(1, max_n))
    return random_tree(n, draw(st.integers(1, 4) if kind == "random"
                               else st.integers(9, 16)), seed=seed)
