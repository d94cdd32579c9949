import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import entropy_lab
from entropy_lab.cli import main
from entropy_lab.experiments import _EXPERIMENTS, ResourceBudget, Row
from entropy_lab.trees import Tree


def test_run_subcommand_pass(tmp_path, capsys):
    rc = main(["run", "--experiment", "kuhn_consistency",
               "--seed", "3", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "kuhn_consistency: pass" in out
    assert (tmp_path / "kuhn_consistency.csv").exists()
    assert (tmp_path / "kuhn_consistency_summary.json").exists()
    assert (tmp_path / "kuhn_consistency_manifest.json").exists()


def test_run_with_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "kuhn_consistency",
                               "params": {"n_max": 5}, "seed": 11}))
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "kuhn_consistency.csv").read_text().splitlines()
    assert len(lines) == 1 + 5


def test_run_usage_errors(tmp_path, capsys):
    # argparse rejection (bad flag value) must exit 1, not argparse's 2
    assert main(["run", "--experiment", "no_such_thing"]) == 1
    capsys.readouterr()
    # bad config content is also usage
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"experiment": "kuhn_consistency",
                               "params": {"bogus": 1}}))
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    # missing experiment entirely
    assert main(["run", "--out", str(tmp_path)]) == 1


def test_run_invariant_violation_exits_2(tmp_path):
    def bad_runner(params, seed, budget):
        return [Row(1, lower=2.0, upper=1.0)], {"checks": {"ok": True}}

    _EXPERIMENTS["broken_for_cli_test"] = (bad_runner, {})
    try:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "broken_for_cli_test"}))
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 2
    finally:
        del _EXPERIMENTS["broken_for_cli_test"]


def test_run_resource_cap_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ResourceBudget, "exceeded",
                        lambda self: "wall_clock")
    rc = main(["run", "--experiment", "kuhn_consistency",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "resource cap" in capsys.readouterr().err


def test_gen_tree_and_norm_roundtrip(tmp_path, capsys):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({
        "theta": 1.0, "m_star": 1, "seed": 4,
        "scheme": {"kind": "power-critical", "kappa": 1.0,
                   "alpha_u": 0.125, "alpha_w": 0.125}}))
    tree_file = tmp_path / "tree.json"
    rc = main(["gen-tree", "--profile", str(profile),
               "--depth", "6", "--out", str(tree_file)])
    assert rc == 0
    assert "weights embedded" in capsys.readouterr().out

    tree, u, w = Tree.from_json(tree_file.read_text())
    assert tree.height == 6 and u is not None and w is not None

    rc = main(["norm", "--tree", str(tree_file), "--p", "2", "--q", "4"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert 0 < report["lower"] <= report["upper"]
    assert report["vertices"] == tree.n


def test_gen_tree_without_scheme_defaults_weights(tmp_path, capsys):
    profile = tmp_path / "p.json"
    profile.write_text(json.dumps({"theta": 1.0, "seed": 0}))
    tree_file = tmp_path / "t.json"
    assert main(["gen-tree", "--profile", str(profile),
                 "--depth", "4", "--out", str(tree_file)]) == 0
    capsys.readouterr()
    assert main(["norm", "--tree", str(tree_file),
                 "--p", "2", "--q", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["lower"] > 1.0  # unweighted path sums exceed the identity


def test_gen_tree_rejects_unknown_profile_field(tmp_path, capsys):
    profile = tmp_path / "p.json"
    profile.write_text(json.dumps({"theta": 1.0, "colour": "green"}))
    rc = main(["gen-tree", "--profile", str(profile),
               "--depth", "3", "--out", str(tmp_path / "t.json")])
    assert rc == 1
    assert "colour" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_norm_rejects_non_finite_weights(tmp_path, capsys, token):
    # json reads NaN and Infinity, so a tree file can carry them
    tree_file = tmp_path / "t.json"
    tree_file.write_text(f'{{"parent": [-1, 0, 0], "u": [1.0, {token}, 1.0]}}')
    rc = main(["norm", "--tree", str(tree_file), "--p", "2", "--q", "4"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and "finite" in err


@pytest.mark.parametrize("token", ["NaN", "Infinity"])
def test_gen_tree_rejects_non_finite_explicit_weights(tmp_path, capsys,
                                                       token):
    profile = tmp_path / "p.json"
    profile.write_text(
        '{"theta": 1.0, "scheme": {"kind": "explicit", '
        f'"u": [1.0, {token}, 1.0], "w": [1.0, 1.0, 1.0]}}}}')
    tree_file = tmp_path / "t.json"
    rc = main(["gen-tree", "--profile", str(profile),
               "--depth", "2", "--out", str(tree_file)])
    assert rc == 1
    assert "finite" in capsys.readouterr().err
    assert not tree_file.exists()


@pytest.mark.parametrize("parent, message", [
    ([-1, 0, 0, 2, 1], "BFS order"),
    ([-1, 0.9, 1.5], "parent must hold integers"),
    ([-1, 0, True], "JSON boolean")])
def test_norm_refuses_a_parent_array_it_cannot_take_as_is(
        tmp_path, capsys, parent, message):
    tree_file = tmp_path / "t.json"
    tree_file.write_text(json.dumps({"parent": parent}))
    rc = main(["norm", "--tree", str(tree_file), "--p", "2", "--q", "4"])
    assert rc == 1
    out, err = capsys.readouterr()
    lines = err.splitlines()
    assert out == "" and len(lines) == 1, err
    assert lines[0].startswith("error: ") and message in lines[0]


def test_norm_missing_file_is_usage_error(tmp_path, capsys):
    rc = main(["norm", "--tree", str(tmp_path / "nope.json"),
               "--p", "2", "--q", "2"])
    assert rc == 1
    capsys.readouterr()


def test_module_invocation_works(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "entropy_lab.cli", "run",
         "--experiment", "kuhn_consistency", "--out", str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "kuhn_consistency.csv").exists()


def _cli_under_memory_limit(args, cwd):
    """The CLI in a fresh interpreter limited to 3 GB of address space and
    60 s, so a tree built past the vertex cap fails instead of filling the
    machine."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    src = str(Path(entropy_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "entropy_lab.cli", *args],
                          cwd=cwd, env=env, preexec_fn=limit,
                          capture_output=True, text=True, timeout=60)


def test_gen_tree_past_the_vertex_cap_exits_1_before_building(tmp_path):
    # theta = 1 doubles each level: depth 40 is 2^41 - 1 vertices
    (tmp_path / "p.json").write_text(json.dumps({"theta": 1.0}))
    proc = _cli_under_memory_limit(
        ["gen-tree", "--profile", "p.json", "--depth", "40",
         "--out", "t.json"], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and "cap" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "t.json").exists()


def test_run_past_the_vertex_cap_exits_1_before_building(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps({
        "experiment": "critical_scaling_power", "params": {"depth": 40}}))
    proc = _cli_under_memory_limit(
        ["run", "--config", "cfg.json", "--out", "out"], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and "cap" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_run_with_n_min_zero_exits_1_naming_it(tmp_path):
    (tmp_path / "cfg.json").write_text(json.dumps({
        "experiment": "critical_scaling_power", "params": {"n_min": 0}}))
    proc = _cli_under_memory_limit(
        ["run", "--config", "cfg.json", "--out", "out"], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "error: param n_min must be >= 1, got 0\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, params", [
    ("hardy_consistency", {"m_star": 1.5}),
    ("hardy_consistency", {"j_values": [16, 32.5]}),
    ("partition_stress", {"n_trees": 2.5}),
    ("kuhn_consistency", {"n_max": float("inf")}),
])
def test_run_rejects_non_integral_integer_params(tmp_path, capsys,
                                                  experiment, params):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": experiment, "params": params}))
    rc = main(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert "must be an integer" in capsys.readouterr().err
    assert not (tmp_path / f"{experiment}.csv").exists()


def test_run_accepts_integral_floats_and_rejects_a_fractional_seed(
        tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "kuhn_consistency",
                               "params": {"n_max": 3.0}, "seed": 1.5}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    assert "seed must be an integer" in capsys.readouterr().err
    cfg.write_text(json.dumps({"experiment": "kuhn_consistency",
                               "params": {"n_max": 3.0}, "seed": 2.0}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("field", ["m_star", "seed", "start_depth"])
def test_gen_tree_rejects_non_integral_integer_fields(tmp_path, capsys,
                                                      field):
    profile = tmp_path / "p.json"
    profile.write_text(json.dumps({"theta": 1.0, field: 1.5}))
    tree_file = tmp_path / "t.json"
    rc = main(["gen-tree", "--profile", str(profile),
               "--depth", "3", "--out", str(tree_file)])
    assert rc == 1
    assert f"{field} must be an integer" in capsys.readouterr().err
    assert not tree_file.exists()


def test_gen_tree_past_float_range_prints_only_the_cap_error(tmp_path):
    # theta = 1 at depth 2000: the level targets overflow to inf
    (tmp_path / "p.json").write_text(json.dumps({"theta": 1.0}))
    proc = _cli_under_memory_limit(
        ["gen-tree", "--profile", "p.json", "--depth", "2000",
         "--out", "t.json"], tmp_path)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: ")
    assert lines[0].endswith("cap is 4194304")
