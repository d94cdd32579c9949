import json
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropy_lab import entropy, experiments
from entropy_lab.entropy import sample_lp_sphere
from entropy_lab.experiments import (
    CSV_HEADER,
    EXPERIMENT_NAMES,
    ExperimentConfig,
    ResourceBudget,
    Row,
    _EXPERIMENTS,
    _basis_vertices,
    _witness_pool,
    fit_slope,
    rows_to_csv,
    run,
)
from entropy_lab.summation import apply
from entropy_lab.trees import random_tree


# -- fit_slope ---------------------------------------------------------------


def test_fit_slope_exact_power_law():
    xs = np.arange(1, 9, dtype=float)
    ys = 3.0 * xs ** -0.25
    slope, intercept, r2 = fit_slope(xs, ys)
    assert slope == pytest.approx(-0.25, rel=1e-12)
    assert intercept == pytest.approx(np.log(3.0), rel=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_slope_constant_data():
    slope, _, r2 = fit_slope([1, 2, 3, 4], [2.0, 2.0, 2.0, 2.0])
    assert abs(slope) < 1e-12 and r2 == 1.0


def test_fit_slope_noisy_power_law():
    xs = np.arange(1, 9, dtype=float)
    rng = np.random.default_rng(0)
    ys = xs ** -0.25 * (1.0 + 0.05 * rng.uniform(-1, 1, 8))
    slope, _, _ = fit_slope(xs, ys)
    assert abs(slope + 0.25) <= 0.05


def test_fit_slope_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_slope([1, 2], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_slope([1, 2, 3], [1.0, 0.0, 2.0])
    with pytest.raises(ValueError):
        fit_slope([1, 2, 3], [1.0, 2.0])


# -- config validation --------------------------------------------------------


def test_config_rejects_unknown_experiment():
    with pytest.raises(ValueError, match="unknown experiment"):
        ExperimentConfig("sorting_networks")


def test_config_rejects_unknown_param_key():
    with pytest.raises(ValueError, match="n_maxx"):
        ExperimentConfig("kuhn_consistency", params={"n_maxx": 5})


def test_config_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig("kuhn_consistency", seed=-1)


def test_config_merges_defaults():
    cfg = ExperimentConfig("kuhn_consistency", params={"n_max": 5})
    resolved = cfg.resolved_params()
    assert resolved["n_max"] == 5
    assert resolved["p"] == 2.0 and resolved["n_min"] == 1


def test_config_from_file_with_overrides(tmp_path):
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps({"experiment": "kuhn_consistency",
                             "params": {"n_max": 4}, "seed": 7,
                             "output_dir": "somewhere"}))
    cfg = ExperimentConfig.from_file(f)
    assert cfg.seed == 7 and cfg.output_dir == "somewhere"
    cfg = ExperimentConfig.from_file(f, seed=9, output_dir=str(tmp_path))
    assert cfg.seed == 9 and cfg.output_dir == str(tmp_path)
    assert cfg.params == {"n_max": 4}


def test_config_refuses_a_seed_that_is_not_a_number():
    for seed in (True, "3", None):
        with pytest.raises(ValueError, match="seed must be a number"):
            ExperimentConfig("kuhn_consistency", seed=seed)


def test_config_from_file_rejects_junk(tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"experiment": "kuhn_consistency", "extra": 1}))
    with pytest.raises(ValueError, match="unknown config fields"):
        ExperimentConfig.from_file(f)
    f.write_text(json.dumps([1, 2]))
    with pytest.raises(ValueError, match="JSON object"):
        ExperimentConfig.from_file(f)
    with pytest.raises(ValueError, match="no experiment"):
        ExperimentConfig.from_file(None)


def test_experiment_name_listing():
    assert set(EXPERIMENT_NAMES) == {
        "schuett_regimes", "partition_stress", "hardy_consistency",
        "critical_scaling_power", "critical_scaling_log",
        "certificate_growth", "kuhn_consistency"}


# -- run plumbing -------------------------------------------------------------


def test_run_writes_three_reports(tmp_path):
    cfg = ExperimentConfig("kuhn_consistency", seed=0,
                           output_dir=str(tmp_path))
    res = run(cfg)
    assert res.passed
    csv = Path(res.csv_path).read_text()
    assert csv.splitlines()[0] == CSV_HEADER
    assert len(csv.splitlines()) == 1 + 20
    summary = json.loads(Path(res.summary_path).read_text())
    assert summary["pass"] is True and summary["cap_hit"] is None
    manifest = json.loads(Path(res.manifest_path).read_text())
    assert "started_at" in manifest and "finished_at" in manifest


def test_timestamps_only_in_manifest(tmp_path):
    cfg = ExperimentConfig("kuhn_consistency", seed=0,
                           output_dir=str(tmp_path))
    res = run(cfg)
    summary_text = Path(res.summary_path).read_text()
    assert "started_at" not in summary_text
    assert "wall_time" not in summary_text


def test_rerun_is_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        run(ExperimentConfig("partition_stress",
                             params={"n_trees": 12, "max_vertices": 400},
                             seed=5, output_dir=str(out)))
    name = "partition_stress"
    assert (out_a / f"{name}.csv").read_bytes() == \
        (out_b / f"{name}.csv").read_bytes()
    assert (out_a / f"{name}_summary.json").read_bytes() == \
        (out_b / f"{name}_summary.json").read_bytes()


def test_wall_cap_flushes_partial_results(tmp_path):
    cfg = ExperimentConfig("kuhn_consistency", seed=0,
                           output_dir=str(tmp_path))
    res = run(cfg, wall_cap_s=0.0)
    assert res.cap_hit == "wall_clock" and not res.passed
    assert Path(res.csv_path).read_text().startswith(CSV_HEADER)
    summary = json.loads(Path(res.summary_path).read_text())
    assert summary["cap_hit"] == "wall_clock"


def test_memory_cap_counts_only_the_run_own_peak(tmp_path):
    # an earlier, higher peak of the same interpreter is not this run's:
    # raise the process peak 160 MiB above the current RSS, free it, and
    # a cap in between must not trip on kuhn_consistency
    current = experiments._current_rss_bytes()
    if current is None:
        pytest.skip("needs /proc/self/statm")
    block = np.ones(160 * 2 ** 20 // 8)
    del block
    current = experiments._current_rss_bytes()
    max_rss = experiments._max_rss_bytes()
    assert max_rss >= current + 100 * 2 ** 20
    cfg = ExperimentConfig("kuhn_consistency", seed=0,
                           output_dir=str(tmp_path))
    res = run(cfg, rss_cap_bytes=current + 50 * 2 ** 20)
    assert res.cap_hit is None and res.passed
    manifest = json.loads(Path(res.manifest_path).read_text())
    assert manifest["peak_rss_bytes"] < max_rss


def test_invariant_violation_detected(tmp_path):
    def bad_runner(params, seed, budget):
        rows = [Row(7, lower=2.0, upper=1.0), Row(8, lower=0.5, upper=1.0)]
        return rows, {"checks": {"always": True}}

    _EXPERIMENTS["broken_for_test"] = (bad_runner, {})
    try:
        res = run(ExperimentConfig("broken_for_test",
                                   output_dir=str(tmp_path)))
        assert res.invariant_violations == [7]
        assert not res.passed
    finally:
        del _EXPERIMENTS["broken_for_test"]


def test_rows_to_csv_blank_cells():
    text = rows_to_csv([Row(3, lower=1.0), Row(4, heuristic=0.5, ratio=2.0)])
    lines = text.splitlines()
    assert lines[1] == "3,1.0,,,,"
    assert lines[2] == "4,,,0.5,,2.0"


def test_resource_budget_thresholds():
    b = ResourceBudget()
    assert b.exceeded() is None
    assert ResourceBudget(wall_cap_s=-1.0).exceeded() == "wall_clock"
    assert ResourceBudget(rss_cap_bytes=1).exceeded() == "memory"


# -- per-experiment smoke runs (downsized parameters) --------------------------


def test_schuett_regimes_structure(tmp_path):
    cfg = ExperimentConfig(
        "schuett_regimes",
        params={"nu": 8, "samples": 512, "cover_k_cap": 8},
        seed=1, output_dir=str(tmp_path))
    res = run(cfg)
    assert res.invariant_violations == []
    # dense grid 1..16 plus the coarse grid 24..80 step 8
    assert [r.n_or_k for r in res.rows] == \
        list(range(1, 17)) + list(range(24, 81, 8))
    assert all(r.lower is not None and r.reference is not None
               for r in res.rows)
    assert res.summary["max_decay_deviation"] <= 0.15


def test_partition_stress_small_pass(tmp_path):
    cfg = ExperimentConfig(
        "partition_stress",
        params={"n_trees": 10, "max_vertices": 500},
        seed=2, output_dir=str(tmp_path))
    res = run(cfg)
    assert res.passed
    assert res.summary["violations"] == 0
    assert res.summary["worst_mass_ratio"] <= 1.0


def test_hardy_consistency_small_pass(tmp_path):
    cfg = ExperimentConfig(
        "hardy_consistency",
        params={"j_values": [4, 8, 16], "height": 5, "restarts": 4},
        seed=0, output_dir=str(tmp_path))
    res = run(cfg)
    assert res.passed
    assert res.summary["envelope_slope"] == pytest.approx(-0.25, abs=1e-9)
    assert all(r.lower <= r.upper for r in res.rows)


def test_critical_scaling_power_small(tmp_path):
    cfg = ExperimentConfig(
        "critical_scaling_power",
        params={"depth": 7, "per_level_cap": 32, "samples": 256,
                "n_min": 3, "n_max": 6},
        seed=0, output_dir=str(tmp_path))
    res = run(cfg)
    assert res.invariant_violations == []
    assert [r.n_or_k for r in res.rows] == [3, 4, 5, 6]
    # the budget identity is exact at any scale
    assert res.summary["max_c_budget"] <= res.summary["c_guarantee"]
    assert all(r.lower <= r.upper for r in res.rows)


def test_critical_scaling_pool_too_small(tmp_path):
    cfg = ExperimentConfig(
        "critical_scaling_power",
        params={"depth": 3, "per_level_cap": 2, "samples": 0, "n_max": 10},
        seed=0, output_dir=str(tmp_path))
    with pytest.raises(ValueError, match="witness pool"):
        run(cfg)


def test_critical_scaling_pool_counts_basis_and_sample_rows(tmp_path):
    # depth 3 with two basis columns per level: 1 + 2 + 2 + 2 = 7 basis
    # rows; packing at n = 4 needs 9 points
    params = {"depth": 3, "per_level_cap": 2, "n_min": 3, "n_max": 4}
    with pytest.raises(ValueError, match="7 basis and 1 sample points"):
        run(ExperimentConfig("critical_scaling_power",
                             params={**params, "samples": 1}, seed=0,
                             output_dir=str(tmp_path / "short")))
    res = run(ExperimentConfig("critical_scaling_power",
                               params={**params, "samples": 2}, seed=0,
                               output_dir=str(tmp_path / "exact")))
    assert [r.n_or_k for r in res.rows] == [3, 4]


@pytest.mark.parametrize("name, params, message", [
    ("critical_scaling_power", {"n_min": 0}, "n_min must be >= 1, got 0"),
    ("critical_scaling_power", {"n_min": 0, "n_max": 0},
     "n_min must be >= 1, got 0"),
    ("critical_scaling_log", {"n_max": 2}, "n_max must be >= 3, got 2"),
    ("critical_scaling_power", {"samples": -1},
     "samples must be >= 0, got -1"),
    ("critical_scaling_log", {"samples": -1}, "samples must be >= 0, got -1"),
    ("schuett_regimes", {"samples": 0}, "samples must be >= 1, got 0"),
    ("schuett_regimes", {"samples": -2}, "samples must be >= 1, got -2"),
    ("schuett_regimes", {"nu": -3}, "nu must be >= 1, got -3"),
    ("schuett_regimes", {"cover_k_cap": 0}, "cover_k_cap must be >= 1, got 0"),
    ("critical_scaling_power", {"per_level_cap": -1},
     "per_level_cap must be >= 0, got -1"),
    ("critical_scaling_log", {"per_level_cap": -1},
     "per_level_cap must be >= 0, got -1"),
    # (p, q) outside a stage's range is refused before the first stage
    ("schuett_regimes", {"p": 0}, "need 1 <= p <= q, got p=0.0, q=2.0"),
    ("schuett_regimes", {"p": 3.0, "q": 2.0},
     "need 1 <= p <= q, got p=3.0, q=2.0"),
    ("critical_scaling_power", {"q": 1.5},
     "need 1 < p <= q < inf, got p=2.0, q=1.5"),
    ("critical_scaling_log", {"q": 1.5},
     "need 1 < p <= q < inf, got p=2.0, q=1.5"),
    ("partition_stress", {"n_trees": 0}, "n_trees must be >= 1, got 0"),
    ("partition_stress", {"max_vertices": 1},
     "max_vertices must be >= 2, got 1"),
    ("partition_stress", {"max_branching": 0},
     "max_branching must be >= 1, got 0"),
    ("kuhn_consistency", {"n_min": 5, "n_max": 2},
     "n_max must be >= 5, got 2"),
    ("kuhn_consistency", {"n_min": -1}, "n_min must be >= 0, got -1"),
    ("hardy_consistency", {"height": -1}, "height must be >= 0, got -1"),
    ("hardy_consistency", {"restarts": -3}, "restarts must be >= 0, got -3"),
    ("certificate_growth", {"depth": -1}, "depth must be >= 0, got -1"),
    ("certificate_growth", {"arity": 0}, "arity must be >= 1, got 0"),
    ("critical_scaling_power", {"depth": -1}, "depth must be >= 0, got -1"),
    ("critical_scaling_power", {"arity": 0}, "arity must be >= 1, got 0"),
    ("critical_scaling_log", {"depth": -1}, "depth must be >= 0, got -1"),
    ("critical_scaling_log", {"tree_seed": -1},
     "tree_seed must be >= 0, got -1"),
])
def test_count_params_below_their_least_value_are_named(
        tmp_path, monkeypatch, name, params, message):
    built = []
    for builder in ("full_tree", "generate_hset_tree", "random_tree",
                    "cover_profile", "kuhn_value"):
        monkeypatch.setattr(experiments, builder,
                            lambda *a, **k: built.append(1))
    with pytest.raises(ValueError, match=message):
        run(ExperimentConfig(name, params=params, seed=0,
                             output_dir=str(tmp_path)))
    # refused before any tree, pool or traversal is built
    assert built == []
    assert not (tmp_path / f"{name}.csv").exists()


@pytest.mark.parametrize("name, index", [
    ("critical_scaling_power", [3, 36, 5, 62, 79, 90, 9, 121]),
    ("critical_scaling_log", [3, 4, 5, 6, 7, 8, 104, 121]),
    ("certificate_growth", [90, 203, 811, 908]),
])
def test_summary_records_each_certificate_index(tmp_path, name, index):
    # K(n), the index of the entropy number each row's upper bound
    # bounds, one entry per certified row in row order
    res = run(ExperimentConfig(name, seed=0, output_dir=str(tmp_path)))
    assert res.summary["certificate_index"] == index
    assert len(index) == sum(r.upper is not None for r in res.rows)


@pytest.mark.parametrize("params", [{"m_star": 2}, {"depth": 255}])
def test_critical_scaling_log_configs_past_the_factored_float_range(
        tmp_path, params):
    # max u_v is 2^258 and min w_x 2^-259 here: unscaled, |u_v|^4 and
    # |w_x|^4 leave the float range, though every image entry is at most 1
    res = run(ExperimentConfig("critical_scaling_log", params=params, seed=0,
                               output_dir=str(tmp_path)))
    assert res.passed


@pytest.mark.parametrize("kind, depth", [("power", 7), ("log", 31)])
def test_critical_scaling_manifest_counts_the_distance_evaluations(
        tmp_path, kind, depth):
    # a basis center reaches the basis rows through the closed form and
    # the dense sample rows through the kernel; a sample center reaches
    # both through the kernel; the counts stay out of the byte-stable
    # summary
    params = {"depth": depth, "per_level_cap": 32, "samples": 256,
              "n_min": 3, "n_max": 6}
    n_basis = []

    def basis(*args):
        out = _basis_vertices(*args)
        n_basis.append(out.size)
        return out

    with mock.patch.object(experiments, "_basis_vertices", basis):
        res = run(ExperimentConfig(f"critical_scaling_{kind}",
                                   params=params, seed=0,
                                   output_dir=str(tmp_path)))
    assert res.passed
    counters = json.loads(Path(res.manifest_path).read_text())["counters"]
    assert sorted(counters) == ["closed_form_evals", "dense_evals",
                                "gram_products"]
    assert counters["gram_products"] == 0  # q = 4: no Gram filter
    centers = 2 ** (6 - 1) + 1
    basis_centers, rest = divmod(counters["closed_form_evals"], n_basis[0])
    assert rest == 0 and 0 < basis_centers <= centers
    assert counters["dense_evals"] == \
        centers * 256 + (centers - basis_centers) * n_basis[0]
    assert "counters" not in Path(res.summary_path).read_text()


def test_critical_scaling_packs_with_the_running_minimum_radius(tmp_path):
    # radii rounded down per pair need not be nonincreasing; the first
    # 2^(n-1) + 1 centers are only as far apart as the least radius so far
    def traversal(points, q, n_select, start, *, basis=None, poll=None,
                  counts=None):
        radii = [1.0] * (n_select - 1)
        radii[2] = 0.25
        return list(range(n_select)), radii

    with mock.patch.object(experiments, "_farthest_point_run", traversal):
        res = run(ExperimentConfig(
            "critical_scaling_power",
            params={"depth": 7, "per_level_cap": 32, "samples": 256,
                    "n_min": 3, "n_max": 6},
            seed=0, output_dir=str(tmp_path)))
    assert [r.lower for r in res.rows] == [0.125] * 4


def test_critical_scaling_cap_trips_inside_the_traversal(tmp_path,
                                                       monkeypatch):
    params = {"depth": 7, "per_level_cap": 32, "samples": 256,
              "n_min": 3, "n_max": 6}
    full = run(ExperimentConfig("critical_scaling_power", params=params,
                                seed=0, output_dir=str(tmp_path / "full")))
    polls = []

    def exceeded(self):
        # one poll before the pool and one after it (the 256 samples are
        # one block, so none in between), then one per center: 12 pass,
        # so the traversal reaches 11 centers, enough for n = 3 and n = 4
        polls.append(1)
        return "wall_clock" if len(polls) > 12 else None

    monkeypatch.setattr(ResourceBudget, "exceeded", exceeded)
    res = run(ExperimentConfig("critical_scaling_power", params=params,
                               seed=0, output_dir=str(tmp_path / "cut")))
    assert res.cap_hit == "wall_clock" and not res.passed
    # the tripped poll, the certificate sweep's first and run()'s own
    assert len(polls) == 15
    assert [r.n_or_k for r in res.rows] == [3, 4]
    assert [r.lower for r in res.rows] == [r.lower for r in full.rows[:2]]
    assert all(r.upper is None for r in res.rows)
    summary = json.loads(Path(res.summary_path).read_text())
    assert summary["cap_hit"] == "wall_clock" and summary["rows"] == 2
    assert summary["pass"] is False
    lines = Path(res.csv_path).read_text().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 3


def _trip_on_poll(monkeypatch, trip_at):
    """Make ResourceBudget.exceeded report a wall-clock cap from poll
    number trip_at on; returns the list the polls are counted in."""
    polls = []

    def exceeded(self):
        polls.append(1)
        return "wall_clock" if len(polls) >= trip_at else None

    monkeypatch.setattr(ResourceBudget, "exceeded", exceeded)
    return polls


def test_hardy_consistency_cap_trips_inside_the_oracle(tmp_path, monkeypatch):
    params = {"j_values": [4, 8, 16], "height": 5, "restarts": 4}
    iterations = []
    oracle = experiments.norm_oracle

    def counted(*args, **kwargs):
        est = oracle(*args, **kwargs)
        iterations.append(est.meta["iterations"])
        return est

    monkeypatch.setattr(experiments, "norm_oracle", counted)
    full = run(ExperimentConfig("hardy_consistency", params=params, seed=0,
                                output_dir=str(tmp_path / "full")))
    assert full.passed and iterations[1] > 3
    # one poll per start depth and one per oracle iteration: trip before
    # the fourth iteration of the second oracle; then the poll before the
    # third start depth stops the run, and run() polls once more
    trip_at = 1 + iterations[0] + 1 + 4
    polls = _trip_on_poll(monkeypatch, trip_at)
    res = run(ExperimentConfig("hardy_consistency", params=params, seed=0,
                               output_dir=str(tmp_path / "cut")))
    assert res.cap_hit == "wall_clock" and not res.passed
    assert len(polls) == trip_at + 2 and iterations[-1] == 3
    assert [r.n_or_k for r in res.rows] == [4, 8]
    assert res.rows[0] == full.rows[0]
    cut = res.rows[1]
    assert cut.lower <= cut.upper and cut.upper == full.rows[1].upper
    summary = json.loads(Path(res.summary_path).read_text())
    assert summary["cap_hit"] == "wall_clock" and summary["rows"] == 2
    assert summary["invariant_violations"] == []
    lines = Path(res.csv_path).read_text().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 3


def test_schuett_regimes_cap_trips_inside_the_cover_traversal(tmp_path,
                                                            monkeypatch):
    params = {"nu": 8, "samples": 512, "cover_k_cap": 8}
    full = run(ExperimentConfig("schuett_regimes", params=params, seed=1,
                                output_dir=str(tmp_path / "full")))
    # one poll before the traversal, then one per center after the first:
    # the sixth traversal poll trips with 6 centers, enough for k <= 3
    polls = _trip_on_poll(monkeypatch, 7)
    res = run(ExperimentConfig("schuett_regimes", params=params, seed=1,
                               output_dir=str(tmp_path / "cut")))
    assert res.cap_hit == "wall_clock" and not res.passed
    assert len(polls) == 8  # the tripped poll and run()'s own
    assert [r.n_or_k for r in res.rows] == [r.n_or_k for r in full.rows]
    assert res.rows[:3] == full.rows[:3]
    assert all(r.heuristic is not None for r in full.rows[:8])
    assert all(r.heuristic is None for r in res.rows[3:])
    assert [r.lower for r in res.rows] == [r.lower for r in full.rows]
    summary = json.loads(Path(res.summary_path).read_text())
    assert summary["cap_hit"] == "wall_clock"
    assert summary["rows"] == len(full.rows)


def test_critical_scaling_cap_trips_inside_the_witness_pool(tmp_path,
                                                           monkeypatch):
    # 255 vertices in 16-row blocks: the 256 samples are 16 blocks, with a
    # poll after each of the first 15; one poll comes before the pool
    params = {"depth": 7, "per_level_cap": 32, "samples": 256,
              "n_min": 3, "n_max": 6}
    mapped, traversals = [], []
    inner = experiments.apply

    def counted(tree, *args):
        out = inner(tree, *args)
        mapped.append(out.shape[1])
        return out

    monkeypatch.setattr(experiments, "apply", counted)
    monkeypatch.setattr(experiments, "_farthest_point_run",
                        lambda *a, **k: traversals.append(1))
    monkeypatch.setattr(entropy, "_BLOCK_BYTES", 8 * 255 * 16)
    threads = threading.active_count()
    polls = _trip_on_poll(monkeypatch, 5)
    res = run(ExperimentConfig("critical_scaling_power", params=params,
                               seed=0, output_dir=str(tmp_path)))
    assert threading.active_count() == threads
    # four blocks mapped; the tripped poll, the one that skips the
    # traversal and run()'s own (no row, so no certificate is polled for)
    assert mapped == [16] * 4 and len(polls) == 7 and not traversals
    assert res.cap_hit == "wall_clock" and not res.passed
    assert res.rows == []
    summary = json.loads(Path(res.summary_path).read_text())
    assert summary["cap_hit"] == "wall_clock" and summary["rows"] == 0


def _reference_witness_pool(tree, u, w, p, samples, per_level_cap, seed):
    """One-shot pool: full identity basis, full-width images, concatenate."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x706f6f6c]))
    per_level = []
    for d in range(tree.height + 1):
        sl = tree.levels()[d].ids
        ids = np.arange(sl.start, sl.stop)
        if ids.size > per_level_cap:
            ids = np.sort(rng.choice(ids, per_level_cap, replace=False))
        per_level.append(ids)
    cols = np.concatenate(per_level)
    basis = np.zeros((tree.n, cols.size))
    basis[cols, np.arange(cols.size)] = 1.0
    pool = apply(tree, u, w, basis).T
    if samples > 0:
        sph = sample_lp_sphere(tree.n, p, samples, seed)
        pool = np.concatenate([pool, apply(tree, u, w, sph.T).T])
    return pool


def _built_pool(tree, u, w, p, samples, per_level_cap, seed):
    """The witness pool as the critical-scaling runner builds it: the
    basis rows, as the traversal builds them densely, ahead of the sample
    rows."""
    vs = _basis_vertices(tree, per_level_cap, seed)
    basis = entropy._BasisRows(tree, u, w, vs, 2.0).dense(np.arange(vs.size))
    return basis, _witness_pool(tree, u, w, p, samples, seed)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 120), branching=st.integers(1, 4),
       p=st.sampled_from([1.0, 1.5, 2.0, 4.0, math.inf]),
       samples=st.integers(0, 30),
       per_level_cap=st.integers(1, 9), block_rows=st.integers(0, 9),
       seed=st.integers(0, 2 ** 32 - 1))
def test_witness_pool_matches_one_shot_reference(n, branching, p, samples,
                                                  per_level_cap, block_rows,
                                                  seed):
    tree = random_tree(n, branching, seed=seed)
    rng = np.random.default_rng(seed)
    u, w = rng.uniform(0.1, 2.0, n), rng.uniform(0.1, 2.0, n)
    with mock.patch.object(entropy, "_BLOCK_BYTES",
                           max(1, 8 * n * block_rows)):
        basis, sample_rows = _built_pool(tree, u, w, p, samples,
                                         per_level_cap, seed)
    ref = _reference_witness_pool(tree, u, w, p, samples, per_level_cap, seed)
    assert sample_rows.shape == (samples, n)
    assert np.array_equal(np.concatenate([basis, sample_rows]), ref)


def test_witness_pools_built_side_by_side_match_the_reference():
    # more pool builds than cores, on threads, under a short switch
    # interval: a build that shared state with another breaks equality
    # with the one-shot pool
    tree = random_tree(300, 3, seed=11)
    rng = np.random.default_rng(11)
    u, w = rng.uniform(0.1, 2.0, tree.n), rng.uniform(0.1, 2.0, tree.n)
    ref = _reference_witness_pool(tree, u, w, 1.5, 20, 64, 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(entropy, "_BLOCK_BYTES", 8 * tree.n * 3), \
                ThreadPoolExecutor(4) as builders:
            futures = [builders.submit(_built_pool, tree, u, w, 1.5, 20, 64,
                                       3) for _ in range(8)]
            pools = [np.concatenate(f.result(timeout=60)) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(pool, ref) for pool in pools)


@pytest.mark.parametrize("p", [1.5, 2.0, math.inf])
def test_no_thread_outlives_a_witness_pool_build(monkeypatch, p):
    tree = random_tree(200, 3, seed=5)
    u, w = np.full(tree.n, 0.5), np.full(tree.n, 2.0)
    monkeypatch.setattr(entropy, "_BLOCK_BYTES", 8 * tree.n * 4)
    # per_level_cap 0: the reference holds the 40 sample rows alone
    ref = _reference_witness_pool(tree, u, w, p, 40, 0, 7)
    threads = threading.active_count()
    # a normal build: ten blocks
    assert np.array_equal(_witness_pool(tree, u, w, p, 40, 7), ref)
    assert threading.active_count() == threads
    # a build stopped by the poll after its second block
    polls = []
    cut = _witness_pool(tree, u, w, p, 40, 7,
                        poll=lambda: polls.append(1) or
                        ("wall_clock" if len(polls) == 2 else None))
    assert np.array_equal(cut, ref[:8]) and len(polls) == 2
    assert threading.active_count() == threads
    # a build whose apply raises on its third block
    calls = []
    inner = experiments.apply

    def failing(*args):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("apply failed")
        return inner(*args)

    monkeypatch.setattr(experiments, "apply", failing)
    with pytest.raises(RuntimeError, match="apply failed"):
        _witness_pool(tree, u, w, p, 40, 7)
    assert len(calls) == 3
    assert threading.active_count() == threads


def test_witness_pool_peaks_near_its_own_size():
    # numpy reports its buffers to tracemalloc: besides the sample rows,
    # only block-sized scratch and a few vertex-sized temporaries may be
    # live; the basis rows keep a few numbers each, where dense ones
    # would take over 6 MB here
    tree = random_tree(1500, 3, seed=4)
    u, w = np.full(tree.n, 0.5), np.full(tree.n, 2.0)
    tracemalloc.start()
    try:
        vs = _basis_vertices(tree, 64, 0)
        rows = entropy._BasisRows(tree, u, w, vs, 2.0)
        pool = _witness_pool(tree, u, w, 2.0, 1000, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pool.shape == (1000, tree.n) and rows.vs.size > 500
    assert rows.vs.size * tree.n * 8 > 6e6
    assert peak - pool.nbytes <= 64 * 8 * tree.n + 4 * entropy._BLOCK_BYTES


def test_certificate_growth_small(tmp_path):
    cfg = ExperimentConfig(
        "certificate_growth",
        params={"depth": 8, "n_values": [4, 8, 16]},
        seed=0, output_dir=str(tmp_path))
    res = run(cfg)
    assert res.summary["checks"]["budgets_linear_in_n"]
    assert res.summary["normalized_band"] >= 1.0
    assert all(r.upper is not None for r in res.rows)


def test_certificate_growth_polls_before_each_certificate(tmp_path,
                                                         monkeypatch):
    params = {"depth": 8, "n_values": [4, 8, 16]}
    polls = _trip_on_poll(monkeypatch, 99)
    full = run(ExperimentConfig("certificate_growth", params=params,
                                seed=0, output_dir=str(tmp_path / "full")))
    assert len(polls) == 4 and full.cap_hit is None  # 3 and run()'s own
    # the third poll comes before n = 16: the first two rows stand
    polls = _trip_on_poll(monkeypatch, 3)
    res = run(ExperimentConfig("certificate_growth", params=params,
                               seed=0, output_dir=str(tmp_path / "cut")))
    assert len(polls) == 4 and res.cap_hit == "wall_clock"
    assert res.rows == full.rows[:2]
    assert res.summary["budget_constants"] == \
        full.summary["budget_constants"][:2]


def test_critical_scaling_polls_after_each_certificate(tmp_path,
                                                       monkeypatch):
    params = {"depth": 7, "per_level_cap": 32, "samples": 256,
              "n_min": 3, "n_max": 6}
    polls = _trip_on_poll(monkeypatch, 10 ** 6)
    full = run(ExperimentConfig("critical_scaling_power", params=params,
                                seed=0, output_dir=str(tmp_path / "full")))
    total = len(polls)
    # the last four polls follow the certificates of n = 3, 4, 5 and 6
    # (the last is run()'s own): tripping the one after n = 4 leaves
    # n = 5 and n = 6 uncertified
    polls = _trip_on_poll(monkeypatch, total - 2)
    res = run(ExperimentConfig("critical_scaling_power", params=params,
                               seed=0, output_dir=str(tmp_path / "cut")))
    assert len(polls) == total - 1 and res.cap_hit == "wall_clock"
    assert [r.upper for r in res.rows] == \
        [r.upper for r in full.rows[:2]] + [None, None]
    assert [r.lower for r in res.rows] == [r.lower for r in full.rows]
    # a trip at the last poll keeps every row certified but still reports
    polls = _trip_on_poll(monkeypatch, total)
    res = run(ExperimentConfig("critical_scaling_power", params=params,
                               seed=0, output_dir=str(tmp_path / "last")))
    assert res.cap_hit == "wall_clock" and res.rows == full.rows


@pytest.mark.parametrize("name, params, kernel, items", [
    ("partition_stress", {"n_trees": 6, "max_vertices": 200},
     "dyadic_family", 6),
    ("hardy_consistency", {"j_values": [4, 8, 16], "height": 5,
                           "restarts": 4}, "norm_oracle", 3),
    ("certificate_growth", {"depth": 8, "n_values": [4, 8, 16]},
     "entropy_certificate", 3),
    ("kuhn_consistency", {"n_min": 1, "n_max": 5}, "kuhn_value", 5),
])
def test_cap_crossed_in_the_last_work_item_is_reported(
        tmp_path, monkeypatch, name, params, kernel, items):
    full = run(ExperimentConfig(name, params=params, seed=0,
                                output_dir=str(tmp_path / "full")))
    assert full.cap_hit is None and len(full.rows) == items
    # the cap is crossed while the last work item runs: no poll inside
    # the runner can see it, only the one run() makes afterwards
    calls = []
    inner = getattr(experiments, kernel)

    def counted(*args, **kwargs):
        out = inner(*args, **kwargs)
        calls.append(1)
        return out

    monkeypatch.setattr(experiments, kernel, counted)
    monkeypatch.setattr(ResourceBudget, "exceeded", lambda self: (
        "wall_clock" if len(calls) >= items else None))
    res = run(ExperimentConfig(name, params=params, seed=0,
                               output_dir=str(tmp_path / "cut")))
    assert len(calls) == items
    assert res.cap_hit == "wall_clock" and not res.passed
    assert res.rows == full.rows
    manifest = json.loads(Path(res.manifest_path).read_text())
    assert manifest["cap_hit"] == "wall_clock"


def test_kuhn_consistency_pass(tmp_path):
    cfg = ExperimentConfig("kuhn_consistency", seed=0,
                           output_dir=str(tmp_path))
    res = run(cfg)
    assert res.passed
    assert res.summary["max_rel_err"] <= 1e-12
    assert [r.n_or_k for r in res.rows] == list(range(1, 21))
