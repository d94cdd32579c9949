"""Command line front end: run experiments, generate trees, query norms.

Exit codes: 0 when the requested work passed, 2 when a run finished but
an invariant or threshold check failed, 1 for usage, config, or resource
errors.
"""

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .experiments import (EXPERIMENT_NAMES, ExperimentConfig, _number,
                          _whole, run)
from .hset import HProfile, generate_hset_tree
from .summation import WeightScheme, norm_oracle, weights_for_tree
from .trees import Tree

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

_PROFILE_FIELDS = {"theta", "gamma", "c3", "m_star", "seed", "start_depth",
                   "scheme"}
# m_star comes from the profile: the tree reads it too
_SCHEME_FIELDS = {f.name for f in fields(WeightScheme)} - {"m_star"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entropy-lab",
        description="Summation operators on trees: experiments, tree "
                    "generation, and operator norm queries.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="run one experiment and write CSV/JSON reports")
    p_run.add_argument("--experiment", choices=EXPERIMENT_NAMES,
                       help="experiment name (may also come from --config)")
    p_run.add_argument("--config", metavar="FILE",
                       help="JSON file with experiment/params/seed/output_dir")
    p_run.add_argument("--seed", type=int, metavar="U64",
                       help="RNG seed (overrides the config file)")
    p_run.add_argument("--out", metavar="DIR",
                       help="output directory (overrides the config file)")

    p_gen = sub.add_parser(
        "gen-tree", help="generate a tree with a prescribed branching "
                         "profile and write it as JSON")
    p_gen.add_argument("--profile", required=True, metavar="FILE",
                       help="JSON profile: theta, gamma, c3, m_star, seed, "
                            "start_depth, and an optional scheme block "
                            "whose weights get embedded in the output")
    p_gen.add_argument("--depth", required=True, type=int, metavar="N")
    p_gen.add_argument("--out", required=True, metavar="FILE")

    p_norm = sub.add_parser(
        "norm", help="certified two-sided l_p -> l_q norm of the summation "
                     "operator on a tree file")
    p_norm.add_argument("--tree", required=True, metavar="FILE",
                        help="tree JSON, optionally carrying u/w weights "
                             "(missing weights default to 1)")
    p_norm.add_argument("--p", required=True, type=float)
    p_norm.add_argument("--q", required=True, type=float)
    return parser


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_file(
        args.config, experiment=args.experiment, seed=args.seed,
        output_dir=args.out)
    result = run(config)
    print(f"{result.experiment}: {'pass' if result.passed else 'FAIL'} "
          f"({result.summary['rows']} rows, checks {result.summary['checks']})")
    print(f"reports: {result.csv_path} {result.summary_path}")
    if result.cap_hit is not None:
        print(f"resource cap hit: {result.cap_hit}; partial results flushed",
              file=sys.stderr)
        return EXIT_USAGE
    if not result.passed:
        return EXIT_VIOLATION
    return EXIT_PASS


def _scheme(spec, m_star: int) -> WeightScheme:
    """A profile's scheme block as a WeightScheme of the profile's m_star:
    an object with a string kind, numbers for its other fields, and lists
    of numbers for u and w; ValueError naming the field otherwise."""
    if not (isinstance(spec, dict) and isinstance(spec.get("kind"), str)):
        raise ValueError(f"scheme must be an object with a string kind, "
                         f"got {spec!r}")
    unknown = sorted(set(spec) - _SCHEME_FIELDS)
    if unknown:
        raise ValueError(f"unknown scheme fields: {unknown}; "
                         f"allowed: {sorted(_SCHEME_FIELDS)}")
    weights = {}
    for name, value in spec.items():
        if name in ("u", "w"):
            if not isinstance(value, list):
                raise ValueError(f"scheme field {name} must be a list of "
                                 f"numbers, got {value!r}")
            weights[name] = tuple(_number(f"scheme field {name}", v)
                                  for v in value)
        elif name != "kind":
            weights[name] = _number(f"scheme field {name}", value)
    return WeightScheme(spec["kind"], m_star=m_star, **weights)


def _cmd_gen_tree(args) -> int:
    profile = json.loads(Path(args.profile).read_text())
    if not isinstance(profile, dict):
        raise ValueError("profile file must hold a JSON object")
    unknown = sorted(set(profile) - _PROFILE_FIELDS)
    if unknown:
        raise ValueError(f"unknown profile fields: {unknown}; "
                         f"allowed: {sorted(_PROFILE_FIELDS)}")
    h = HProfile(theta=float(_number("theta", profile.get("theta", 0.0))),
                 gamma=float(_number("gamma", profile.get("gamma", 0.0))),
                 c3=float(_number("c3", profile.get("c3", 4.0))))
    m_star = _whole("m_star", profile.get("m_star", 1))
    start_depth = _whole("start_depth", profile.get("start_depth", 0))
    tree = generate_hset_tree(h, m_star, args.depth,
                              seed=_whole("seed", profile.get("seed", 0)),
                              start_depth=start_depth)
    u = w = None
    if "scheme" in profile:
        scheme = _scheme(profile["scheme"], m_star)
        u, w = weights_for_tree(scheme, tree, start_depth=start_depth)
    with open(args.out, "w") as out:
        tree.to_json(out, u, w)
    print(f"wrote {args.out}: {tree.n} vertices, height {tree.height}, "
          f"weights {'embedded' if u is not None else 'default'}")
    return EXIT_PASS


def _cmd_norm(args) -> int:
    tree, u, w = Tree.from_json(Path(args.tree).read_text())
    ones = np.ones(tree.n)
    est = norm_oracle(tree, ones if u is None else u,
                      ones if w is None else w, args.p, args.q)
    print(json.dumps({"vertices": tree.n, "p": args.p, "q": args.q,
                      "lower": est.lower, "upper": est.upper}))
    return EXIT_PASS


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; 2 is reserved for invariant
        # violations here, so usage problems map to 1
        return EXIT_PASS if exc.code == 0 else EXIT_USAGE
    handler = {"run": _cmd_run, "gen-tree": _cmd_gen_tree,
               "norm": _cmd_norm}[args.command]
    try:
        return handler(args)
    except (ValueError, TypeError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
