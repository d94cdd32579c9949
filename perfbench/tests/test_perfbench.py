"""Checks of the benchmark itself: run with `python3 -m pytest perfbench/tests`.

The tiny plans keep each workload's experiments and shrink their sizes, so
every span fires within seconds.  A refactor that moves a layer boundary
makes these fail instead of letting a layer silently report 0.
"""

import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, plan  # noqa: E402

TINY = {
    "critical_scaling_log": {"depth": 24, "per_level_cap": 8, "samples": 64,
                             "n_max": 5},
    "schuett_regimes": {"nu": 8, "samples": 256, "cover_k_cap": 5},
    "hardy_consistency": {"height": 5, "restarts": 2, "j_values": [16, 32, 64]},
    "partition_stress": {"n_trees": 6, "max_vertices": 300},
    "certificate_growth": {"depth": 8, "n_values": [8, 16, 32]},
}

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((HERE / "layer_map.json").read_text())["layers"]


def tiny_plan(workload, seed=1):
    return [{**exp, "params": {**exp["params"], **TINY[exp["experiment"]]}}
            for exp in plan(workload, seed)]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced and one untraced tiny execution of every workload."""
    env = dict(os.environ)
    out = {}
    for workload in WORKLOADS:
        base = tmp_path_factory.mktemp(workload)
        out[workload] = [
            run._execute(tiny_plan(workload), trace, base / str(trace), env,
                         120.0)
            for trace in (True, False)]
    return out


def test_every_span_fires_on_its_workload(traced):
    fired = {w: {s[tracing.NAME] for s in ex[0]["spans"]}
             for w, ex in traced.items()}
    for group in LAYER_MAP:
        spans = {m.rpartition(".")[0] for m in group["metrics"]}
        for workload in group.get("fires_on", []):
            missing = spans - fired[workload]
            assert not missing, f"{sorted(missing)} never ran on {workload}"
    assert set().union(*fired.values()) == set(tracing.SPAN_NAMES)
    assert "entropy.traverse" not in fired["oracle_partition"]


def test_wrappers_reach_every_import_site(traced):
    sites = traced["scaling_log"][0]["sites"]
    assert {"entropy_lab.summation", "entropy_lab.experiments",
            "entropy_lab.certificate"} <= set(sites["summation.apply"])
    assert {"entropy_lab.entropy", "entropy_lab.experiments"} <= \
        set(sites["entropy.traverse"])


def test_tiny_runs_pass_the_output_checks(traced):
    for workload, (t, u) in traced.items():
        for rec in t["checked"] + u["checked"]:
            assert rec["failures"] == [], (workload, rec)
        # tracing must not change what the program computes
        assert [r["csv_sha256"] for r in t["checked"]] == \
            [r["csv_sha256"] for r in u["checked"]]
        assert run.determinism_problems([t, u]) == []


def test_metric_names_match_benchmark_json(traced):
    mapped = [m for g in LAYER_MAP for m in g["metrics"]]
    assert mapped == [m["name"] for m in BENCH["per_layer"]]
    stream = {"gbps": 10.0}
    for workload, executions in traced.items():
        values = run.per_layer(executions, mapped, stream)
        assert set(values) == set(mapped)
        e2e = run.end_to_end(executions)
        assert set(e2e) == {m["name"] for m in BENCH["end_to_end"]}
        assert all(v > 0 for v in e2e.values()), (workload, e2e)


def test_self_time_subtracts_direct_children_only():
    spans = [["a", 0.0, 10.0, -1, 0, None],
             ["b", 1.0, 4.0, 0, 0, {"n": 2}],
             ["c", 2.0, 3.0, 1, 0, None],
             ["b", 5.0, 6.0, 0, 0, {"n": 3}]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    for s, name in zip(spans, ("cli.main", "summation.apply",
                               "trees.build", "summation.apply")):
        s[tracing.NAME] = name
    tot = tracing.layer_totals(spans)
    assert tot["summation.apply"] == {"self_s": 3.0, "calls": 2, "n": 5}
    assert tot["entropy.traverse"] == {"self_s": 0.0, "calls": 0}


def test_budget_gap_counts_from_run_start_to_end():
    spans = [["experiments.run", 0.0, 10.0, -1, 0, None],
             ["experiments.budget", 1.0, 1.1, 0, 0, None],
             ["experiments.budget", 7.0, 7.1, 0, 0, None]]
    assert tracing.max_budget_gap(spans) == pytest.approx(6.0)


def _write_reports(out_dir, name, csv_text, **summary):
    out_dir.mkdir()
    (out_dir / f"{name}.csv").write_text(csv_text)
    (out_dir / f"{name}_summary.json").write_text(json.dumps(
        {"rows": csv_text.count("\n") - 1, "cap_hit": None,
         "invariant_violations": [], "checks": {"x": False}, **summary}))


def _run(rc, error=None):
    return {"rc": rc, "error": error, "wall_s": 1.0}


def test_report_check_counts_failures(tmp_path):
    exp = {"experiment": "hardy_consistency", "seed": 1}
    ok = run.CSV_HEADER + "\n16,0.5,0.6,,0.4,1.25\n"
    _write_reports(tmp_path / "ok", "hardy_consistency", ok)
    rec = run.check_reports(tmp_path / "ok", exp, _run(2))
    assert rec["failures"] == [] and rec["lower"] == [0.5]
    assert rec["checks"] == {"x": False}  # named checks are not failures

    # the summary claims no violation; the benchmark reads the CSV itself
    bad = run.CSV_HEADER + "\n16,0.7,0.6,,0.4,1.25\n"
    _write_reports(tmp_path / "bad", "hardy_consistency", bad)
    rec = run.check_reports(tmp_path / "bad", exp, _run(0))
    assert any("lower > upper" in f for f in rec["failures"])

    garbled = run.CSV_HEADER + "\n16,nan,0.6,,0.4\n"
    _write_reports(tmp_path / "garbled", "hardy_consistency", garbled)
    rec = run.check_reports(tmp_path / "garbled", exp, _run(0))
    assert any("malformed" in f for f in rec["failures"])

    _write_reports(tmp_path / "cap", "hardy_consistency", ok,
                   cap_hit="wall_clock")
    rec = run.check_reports(tmp_path / "cap", exp, _run(1))
    assert len(rec["failures"]) == 2

    rec = run.check_reports(tmp_path / "none", exp,
                            _run(None, "Traceback\nKeyError: 'x'"))
    assert rec["failures"][0] == "raised KeyError: 'x'"
