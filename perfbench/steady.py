"""Spread of the end-to-end metrics over several seeds.

    python3 perfbench/steady.py --workload NAME --seeds 1 2 3 ... [--out FILE]

Runs BENCHMARK.json's command once per seed (run_seconds, --trace 0) and
prints, per metric, the median and the quartile spread (Q3 - Q1) / median
as statistics.quantiles(values, n=4) gives it, next to the metric's bound.
A benchmark is steady when every spread but setup_s's stays below a third
of its bound.  --out keeps the raw result lines as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    results = []
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=True)
        lines = proc.stdout.splitlines()
        last = json.loads(lines[-1])
        detail = next(json.loads(line) for line in lines
                      if line.startswith('{"detail"'))
        results.append({"seed": seed, **last, **detail})
        print(seed, json.dumps({k: v["value"]
                                for k, v in last["metrics"].items()}),
              "correct" if last["correct"] else "INCORRECT", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    if len(results) < 2:
        return 0
    for m in bench["end_to_end"]:
        med, rel = spread([r["metrics"][m["name"]]["value"] for r in results])
        flag = "ok" if rel < m["bound"] / 3 else "WIDE"
        print(f"{m['name']:24s} median {med:.6g} {m['unit']:5s} "
              f"spread {rel:.4f}  bound {m['bound']}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
