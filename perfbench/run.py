"""entropy-lab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs src/entropy_lab and
BENCHMARK.json).  A run is a closed loop with one caller: it starts one
fresh interpreter at a time (perfbench/child.py), each executing the whole
workload once through entropy_lab.cli.main, until S seconds have passed
and at least MIN_EXECUTIONS executions are done.  BLAS/OpenMP threads are
capped at nproc.  The benchmark checks every experiment's reports itself.

--trace 0 reports the end-to-end metrics: medians over executions of
run_s and setup_s, the median peak RSS, the share of experiment runs that
passed, and the geometric mean of the certified lower bounds.
--trace 1 alternates traced and untraced executions and reports the
per-layer metrics from the spans perfbench/tracing.py records; the
traced-minus-untraced run_s is trace.overhead_s.
--workload all runs every workload in turn.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Before it, each workload prints one JSON
`detail` line (seed, per-experiment seeds, timings, CSV digests,
named-check verdicts, environment) and one line per metric with its unit.
"""

import argparse
import compileall
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import tracing
from workloads import CERTIFIED_LOWER, WORKLOADS, plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_EXECUTIONS = 3        # per run without tracing, so medians mean something
MIN_TRACED_EXECUTIONS = 4  # alternating traced / untraced
HARD_LIMIT_S = 150.0      # start no execution expected to end past this
CSV_HEADER = "n_or_k,lower,upper,heuristic,reference,ratio"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


# -- one execution ------------------------------------------------------------


def _execute(experiments, trace, workdir, env, timeout_s):
    """Run child.py once; returns its result plus peak RSS and checks."""
    workdir.mkdir()
    spec_path, result_path = workdir / "spec.json", workdir / "result.json"
    spec_path.write_text(json.dumps({
        "src": str(ROOT / "src"), "workdir": str(workdir), "trace": trace,
        "experiments": experiments}))
    with open(workdir / "log.txt", "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path),
             str(result_path), repr(t_spawn)],
            stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
            env=env, cwd=ROOT)
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = (workdir / "log.txt").read_text()[-2000:]
        raise BenchError(f"execution exited with {proc.returncode}:\n{tail}")
    result = json.loads(result_path.read_text())
    result["traced"] = trace
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["checked"] = [check_reports(workdir / f"out_{i}", exp, run)
                         for i, (exp, run) in enumerate(zip(experiments,
                                                            result["runs"]))]
    return result


def _cell(text):
    return None if text == "" else float(text)


def check_reports(out_dir, exp, run):
    """Failures of one experiment run, read from its exit and reports.

    A run fails if it raised, exited with 1, hit a resource cap, or has a
    row whose certified lower exceeds its certified upper (checked here on
    the CSV, and against the summary's own invariant_violations).  Named
    science checks are recorded, not counted as failures.
    """
    name = exp["experiment"]
    rec = {"experiment": name, "seed": exp["seed"], "rc": run["rc"],
           "wall_s": run["wall_s"], "failures": [], "csv_sha256": None,
           "checks": None, "lower": []}
    fail = rec["failures"].append
    if run["error"] is not None:
        fail("raised " + run["error"].strip().splitlines()[-1])
    elif run["rc"] not in (0, 2):
        fail(f"exit code {run['rc']}")
    try:
        csv_bytes = (out_dir / f"{name}.csv").read_bytes()
        summary = json.loads((out_dir / f"{name}_summary.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"reports unreadable: {exc}")
        return rec
    rec["csv_sha256"] = hashlib.sha256(csv_bytes).hexdigest()
    rec["checks"] = summary.get("checks")
    if summary.get("cap_hit") is not None:
        fail(f"cap hit: {summary['cap_hit']}")
    lines = csv_bytes.decode().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        fail("CSV header differs from " + CSV_HEADER)
        return rec
    violations = []
    for line in lines[1:]:
        try:
            cells = [_cell(c) for c in line.split(",")]
        except ValueError:
            cells = []
        if (len(cells) != 6 or cells[0] is None or not all(
                math.isfinite(v) for v in cells if v is not None)):
            fail(f"malformed CSV row {line!r}")
            continue
        n, lower, upper = cells[:3]
        if lower is not None and upper is not None and not lower <= upper:
            violations.append(int(n))
        if lower is not None and name in CERTIFIED_LOWER:
            rec["lower"].append(lower)
    if violations or summary.get("invariant_violations"):
        fail(f"certified lower > upper at {violations}, summary reports "
             f"{summary.get('invariant_violations')}")
    if summary.get("rows") != len(lines) - 1:
        fail(f"summary counts {summary.get('rows')} rows, "
             f"CSV has {len(lines) - 1}")
    return rec


# -- one run --------------------------------------------------------------------


def measure(workload, experiments, seconds, trace, workdir, env):
    """Executions of one workload, one at a time, for about `seconds`."""
    minimum = MIN_TRACED_EXECUTIONS if trace else MIN_EXECUTIONS
    done = []
    t0 = time.monotonic()
    while True:
        elapsed = time.monotonic() - t0
        if len(done) >= minimum and elapsed >= seconds:
            break
        longest = max((d["wall_s"] for d in done), default=0.0)
        # a traced run needs one execution of each kind
        if len(done) >= 1 + trace and elapsed + longest > HARD_LIMIT_S:
            break
        t = time.monotonic()
        traced = trace and len(done) % 2 == 0
        res = _execute(experiments, traced, workdir / f"{workload}_{len(done)}",
                       env, max(10.0, HARD_LIMIT_S + 25.0 - elapsed))
        res["wall_s"] = time.monotonic() - t
        done.append(res)
        shutil.rmtree(workdir / f"{workload}_{len(done) - 1}")
    return done


def _gmean(values):
    if not values or min(values) <= 0:
        return 0.0
    return math.exp(math.fsum(map(math.log, values)) / len(values))


def failures(executions):
    """(experiment runs attempted, runs that failed) over all executions."""
    checked = [r for e in executions for r in e["checked"]]
    return len(checked), sum(bool(r["failures"]) for r in checked)


def end_to_end(executions):
    plain = [e for e in executions if not e["traced"]]
    attempted, failed = failures(executions)
    lower = [v for r in executions[0]["checked"] for v in r["lower"]]
    return {
        "run_s": statistics.median(e["run_s"] for e in plain),
        "setup_s": statistics.median(e["setup_s"] for e in plain),
        "peak_rss_mb": statistics.median(e["peak_rss_mb"] for e in plain),
        "ops_ok_frac": 1.0 - failed / attempted,
        "certified_lower_gmean": _gmean(lower),
    }


def layer_metrics(execution, stream):
    """Per-layer values of one traced execution."""
    spans = execution["spans"]
    out = {}
    for name, tot in tracing.layer_totals(spans).items():
        for key, val in tot.items():
            out[f"{name}.{key}"] = val
    trav = out["entropy.traverse.self_s"]
    coords = out.get("entropy.traverse.coords", 0)
    gbytes = out.get("entropy.traverse.gbytes_computed", 0.0)
    out["entropy.traverse.ns_per_coord"] = trav * 1e9 / coords if coords else 0.0
    out["entropy.traverse.bw_frac"] = (gbytes / trav / stream["gbps"]
                                       if trav > 0 else 0.0)
    out["experiments.budget.polls"] = out["experiments.budget.calls"]
    out["experiments.budget.max_gap_s"] = tracing.max_budget_gap(spans)
    out["process.cpu_s"] = execution["cpu_s"]
    out["process.cpu_util"] = execution["cpu_s"] / execution["run_s"]
    out["trace.spans"] = len(spans)
    out["trace.accounted_frac"] = (
        math.fsum(tracing.self_times(spans)) / execution["run_s"])
    out["machine.stream_gbps"] = stream["gbps"]
    return out


def per_layer(executions, names, stream):
    traced = [layer_metrics(e, stream) for e in executions if e["traced"]]
    plain = [e["run_s"] for e in executions if not e["traced"]]
    values = {}
    for name in names:
        if name == "trace.overhead_s":
            values[name] = (statistics.median(t["run_s"] for t in executions
                                              if t["traced"])
                            - statistics.median(plain))
        elif name in traced[0]:
            values[name] = statistics.median(t[name] for t in traced)
        elif name.rpartition(".")[0] in tracing.SPAN_NAMES:
            values[name] = 0  # the layer never ran on this workload
        else:
            raise BenchError(f"no layer metric {name!r} is measured")
    return values


def determinism_problems(executions):
    """Executions of one seed must write byte-identical CSVs."""
    problems = []
    for i, first in enumerate(executions[0]["checked"]):
        digests = {e["checked"][i]["csv_sha256"] for e in executions}
        if len(digests) != 1:
            problems.append(f"{first['experiment']}: CSV digests differ "
                            f"between executions: {sorted(map(str, digests))}")
    return problems


# -- environment ------------------------------------------------------------------


def _llc_bytes():
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    best = 0
    for index in base.glob("index*"):
        try:
            if (index / "level").read_text().strip() != "3":
                continue
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 2 ** 10, "M": 2 ** 20}.get(size[-1], 1)
        best = max(best, int(size.rstrip("KM")) * scale)
    return best


def _mem_available():
    for line in Path("/proc/meminfo").read_text().splitlines():
        if line.startswith("MemAvailable:"):
            return int(line.split()[1]) * 1024
    return 0


def measure_stream(llc_bytes):
    """Single-thread copy bandwidth, counting read plus write bytes.

    Arrays are 4x the LLC so the copy streams from memory, unless that
    would take more than half the available memory; then the largest
    size that fits is used and recorded.
    """
    import numpy as np

    want = 4 * max(llc_bytes, 2 ** 24)
    size = min(want, _mem_available() // 4) // 2 ** 20 * 2 ** 20
    src = np.ones(size // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(3):
        t = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t)
    gbps = 2 * src.nbytes / statistics.median(times) / 1e9
    return {"gbps": gbps, "array_bytes": int(src.nbytes),
            "at_least_4x_llc": src.nbytes >= want}


def environment(nproc, executions):
    return {
        "nproc": nproc,
        "thread_caps": {var: str(nproc) for var in THREAD_VARS},
        "versions": executions[0]["versions"],
        "llc_bytes": _llc_bytes(),
        "note": "the scaling_log pool (226 MB) may be partly resident in "
                "an LLC of this size",
    }


# -- entry point --------------------------------------------------------------------


def run_workload(workload, seed, seconds, trace, bench, workdir, env, nproc):
    experiments = plan(workload, seed)
    executions = measure(workload, experiments, seconds, trace, workdir, env)
    problems = determinism_problems(executions)
    detail = {
        "workload": workload, "seed": seed, "trace": trace,
        "environment": environment(nproc, executions),
        "executions": [{
            "traced": e["traced"], "setup_s": e["setup_s"],
            "run_s": e["run_s"], "cpu_s": e["cpu_s"],
            "peak_rss_mb": e["peak_rss_mb"],
            "runs": [{k: r[k] for k in ("experiment", "seed", "rc", "wall_s",
                                        "csv_sha256", "checks", "failures")}
                     for r in e["checked"]]} for e in executions],
        "problems": problems,
    }
    if trace:
        stream = measure_stream(detail["environment"]["llc_bytes"])
        detail["stream"] = stream
        detail["sites"] = executions[0]["sites"]
        specs = bench["per_layer"]
        values = per_layer(executions, [m["name"] for m in specs], stream)
    else:
        specs = bench["end_to_end"]
        values = end_to_end(executions)
    attempted, failed = failures(executions)
    detail["ops_failed_frac"] = failed / attempted
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in specs}
    correct = failed == 0 and not problems
    return detail, correct, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "entropy_lab" / "__init__.py").is_file():
        print(f"error: no entropy_lab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    nproc = len(os.sched_getaffinity(0))
    env = {**os.environ, **{var: str(nproc) for var in THREAD_VARS}}
    compileall.compile_dir(str(ROOT / "src"), quiet=1)

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in workloads:
            detail, correct, attempted, failed, metrics = run_workload(
                workload, args.seed, args.seconds, bool(args.trace), bench,
                workdir, env, nproc)
            print(json.dumps({"detail": detail}))
            for name, m in metrics.items():
                print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
            total["correct"] &= correct
            total["attempted"] += attempted
            total["failed"] += failed
            prefix = "" if len(workloads) == 1 else workload + "."
            total["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
