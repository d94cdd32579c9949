"""Run one workload execution in a fresh interpreter.

    python3 perfbench/child.py SPEC.json RESULT.json T_SPAWN

SPEC holds "src" (the directory that contains entropy_lab), "workdir",
"trace" and "experiments" (the list workloads.plan returns).  T_SPAWN is
the parent's time.monotonic() just before it started this process, so
setup_s covers interpreter start, the imports of numpy, scipy and
entropy_lab, and writing the configs.  Each experiment then runs through
entropy_lab.cli.main, the way a user runs it.
"""

import sys
import time


def main(spec_path, result_path, t_spawn):
    import json
    import os
    import resource
    import traceback

    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import numpy
    import scipy
    import entropy_lab
    import entropy_lab.cli

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(entropy_lab.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported {entropy_lab.__file__}, not from {src}")

    configs = []
    for i, exp in enumerate(spec["experiments"]):
        path = os.path.join(spec["workdir"], f"config_{i}.json")
        with open(path, "w") as fh:
            json.dump({**exp, "output_dir": os.path.join(spec["workdir"],
                                                         f"out_{i}")}, fh)
        configs.append(path)

    recorder = sites = None
    if spec["trace"]:
        import tracing
        recorder = tracing.Recorder()
        sites = tracing.install(recorder)

    runs = []
    cpu0 = resource.getrusage(resource.RUSAGE_SELF)
    t_first = time.monotonic()
    for i, path in enumerate(configs):
        if recorder is not None:
            recorder.run_id = i
        rc = error = None
        t = time.monotonic()
        try:
            rc = entropy_lab.cli.main(["run", "--config", path])
        except Exception:
            error = traceback.format_exc()
        runs.append({"rc": rc, "error": error, "wall_s": time.monotonic() - t})
    t_end = time.monotonic()
    cpu1 = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "setup_s": t_first - t_spawn,
        "run_s": t_end - t_first,
        "cpu_s": (cpu1.ru_utime - cpu0.ru_utime
                  + cpu1.ru_stime - cpu0.ru_stime),
        "runs": runs,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "sites": sites,
        "spans": recorder.spans if recorder is not None else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], float(sys.argv[3]))
