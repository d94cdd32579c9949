"""The benchmark's workloads: which experiments run, with which parameters.

Each workload is a list of (experiment, params) run in one interpreter
through `entropy_lab.cli.main(["run", "--config", ...])`.  The params are
overrides of the experiment defaults, chosen so one execution takes a few
seconds while keeping the regime that makes the workload worth having
(see BENCHMARK.json for the one-line reasons, perfbench/README.md for more).
"""

import hashlib

WORKLOADS = {
    # the full 226 MB witness pool (6436 x 4388, q=4) with a 17-center
    # traversal: few passes, each memory-bound
    "scaling_log": [
        ("critical_scaling_log", {"n_max": 5}),
    ],
    # cover_profile on l_1^32 -> l_2^32: a 4 MB pool and 1025 tiny passes,
    # bound by per-call overhead; no summation at all
    "regimes_cover": [
        ("schuett_regimes", {"cover_k_cap": 11}),
    ],
    # no traversal: norm_oracle iterations, pure-Python tree and partition
    # loops, and the certificate at larger K(n).  How many iterations an
    # oracle run needs depends on its random restarts, so the seed moves
    # the work; 16 start depths (and no j=16, whose count is bimodal) and
    # 800 small trees keep the total within a few percent across seeds.
    "oracle_partition": [
        ("hardy_consistency", {
            "height": 11, "restarts": 8,
            "j_values": [32, 40, 48, 64, 80, 96, 128, 160, 192, 256, 320,
                         384, 512, 640, 768, 1024]}),
        ("partition_stress", {"n_trees": 800, "max_vertices": 1000}),
        ("certificate_growth", {"depth": 14,
                                "n_values": [8, 16, 32, 64, 128, 256]}),
    ],
}

# Experiments whose `lower` column is a certified bound (packing radii,
# oracle lower bounds, volumetric bounds).  partition_stress puts a
# partition ratio there and is left out.
CERTIFIED_LOWER = frozenset({"critical_scaling_log", "critical_scaling_power",
                             "schuett_regimes", "hardy_consistency"})


def experiment_seed(seed, workload, experiment):
    """Seed passed to one experiment, derived from the benchmark seed."""
    digest = hashlib.sha256(f"{seed}/{workload}/{experiment}".encode())
    return int.from_bytes(digest.digest()[:4], "big")


def plan(workload, seed):
    """[{"experiment", "params", "seed"}] for one execution of a workload."""
    return [{"experiment": name, "params": params,
             "seed": experiment_seed(seed, workload, name)}
            for name, params in WORKLOADS[workload]]
