"""Spans around entropy_lab's cross-module calls, recorded from outside the package.

A span is [name, start, end, parent index, run id, counts]: it is kept in
memory while the workload runs and dumped with the child's result.  The
wrappers live here, not in `src/`, so the program under test is unchanged;
`install` puts each one at the function's defining module and at every
module attribute that still names the original (every `from .x import name`
site), so a call cannot bypass its span by going through another import.
If a target is renamed or moves to another module, `install` raises instead
of letting its layer read 0.

This module imports entropy_lab only inside `install`, so the aggregation
helpers run in the parent without the package on the path.
"""

import functools
import importlib
import pkgutil
import time

NAME, START, END, PARENT, RUN, COUNTS = range(6)


def _vertex_cols(args, kwargs, out):
    return {"vertex_cols": int(out.size)}


def _traverse_counts(args, kwargs, out):
    """One l_q distance pass over the whole pool per selected center."""
    points = args[0] if args else kwargs["points"]
    centers = int(args[2] if len(args) > 2 else kwargs["n_select"])
    rows, cols = points.shape
    return {"centers": centers, "dist_evals": centers * rows,
            "coords": centers * rows * cols,
            "gbytes_computed": centers * points.nbytes / 1e9}


# (span name, defining module, attribute, counts(args, kwargs, result) or None)
TARGETS = (
    ("cli.main", "cli", "main", None),
    ("experiments.run", "experiments", "run", None),
    ("experiments.budget", "experiments", "ResourceBudget.exceeded", None),
    ("experiments.witness_pool", "experiments", "_witness_pool",
     lambda a, k, out: {"mb": out.nbytes / 2 ** 20}),
    ("entropy.traverse", "entropy", "_farthest_point_run", _traverse_counts),
    ("entropy.sample", "entropy", "sample_lp_sphere",
     lambda a, k, out: {"draws": int(out.shape[0])}),
    ("entropy.cover_profile", "entropy", "cover_profile", None),
    ("summation.apply", "summation", "apply", _vertex_cols),
    ("summation.apply_adjoint", "summation", "apply_adjoint", _vertex_cols),
    ("summation.norm_oracle", "summation", "norm_oracle",
     lambda a, k, out: {"iterations": int(out.meta["iterations"])}),
    ("summation.hardy_bound", "summation", "hardy_bound", None),
    ("hset.generate_hset_tree", "hset", "generate_hset_tree",
     lambda a, k, out: {"vertices": int(out.n)}),
    ("trees.build", "trees", "Tree.__init__",
     lambda a, k, out: {"vertices": int(a[0].n)}),
    ("trees.partition_validate", "trees", "SubtreePartition.validate", None),
    ("partition.balanced_partition", "partition", "balanced_partition",
     lambda a, k, out: {"parts": int(out.n_parts())}),
    ("partition.dyadic_family", "partition", "dyadic_family",
     lambda a, k, out: {"levels": int(out.n_levels())}),
    ("partition.family_validate", "partition", "PartitionFamily.validate",
     None),
    ("certificate.entropy_certificate", "certificate", "entropy_certificate",
     lambda a, k, out: {"k_total": int(out.k_total),
                        "layers": len(out.meta["layers"])}),
)

SPAN_NAMES = tuple(t[0] for t in TARGETS)


class Recorder:
    """Collects spans of one single-threaded process; `run_id` tags the
    spans of the current cli.main call."""

    def __init__(self):
        self.spans = []
        self.run_id = -1
        self._stack = []

    def wrap(self, name, fn, counts):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id,
                    None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counts is not None:
                span[COUNTS] = counts(args, kwargs, out)
            return out

        return traced


def install(recorder):
    """Wrap every target; returns {span name: [modules rebound]}."""
    import entropy_lab

    modules = {info.name: importlib.import_module(f"entropy_lab.{info.name}")
               for info in pkgutil.iter_modules(entropy_lab.__path__)}
    everywhere = [entropy_lab, *modules.values()]
    sites = {}
    for name, mod, attr, counts in TARGETS:
        home = modules[mod]
        owner, _, member = attr.rpartition(".")
        target = getattr(home, owner) if owner else home
        orig = vars(target)[member]
        defined_in = (target if owner else orig).__module__
        if defined_in != home.__name__:
            raise LookupError(f"{attr} is defined in {defined_in}, "
                              f"not {home.__name__}")
        wrapped = recorder.wrap(name, orig, counts)
        if owner:
            # a method: the class object is shared by every importer
            setattr(target, member, wrapped)
            sites[name] = [home.__name__]
            continue
        sites[name] = []
        for module in everywhere:
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, wrapped)
                    sites[name].append(module.__name__)
    return sites


# -- aggregation (parent side) ----------------------------------------------


def self_times(spans):
    """Span duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def layer_totals(spans):
    """{span name: {"self_s", "calls", <summed counts>...}} for one process."""
    out = {name: {"self_s": 0.0, "calls": 0} for name in SPAN_NAMES}
    for span, own in zip(spans, self_times(spans)):
        tot = out[span[NAME]]
        tot["self_s"] += own
        tot["calls"] += 1
        for key, val in (span[COUNTS] or {}).items():
            tot[key] = tot.get(key, 0) + val
    return out


def max_budget_gap(spans):
    """Longest stretch of an experiments.run span with no budget poll."""
    marks = {}
    for s in spans:
        if s[NAME] == "experiments.run":
            marks.setdefault(s[RUN], []).extend((s[START], s[END]))
        elif s[NAME] == "experiments.budget":
            marks.setdefault(s[RUN], []).append(s[START])
    gap = 0.0
    for times in marks.values():
        times.sort()
        gap = max([gap] + [b - a for a, b in zip(times, times[1:])])
    return gap
