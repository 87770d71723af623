"""Per-layer accounting for the traced run.

Spans: each public function is wrapped at the module attribute its caller
looks it up through, so the wrapper sees exactly the calls that caller
makes. A span's self time is its duration minus the time its child spans
cover. Spans stay in memory until the run writes them out.

Counts: cProfile runs during each traced operation, and the benchmark reads
the call counts and self times of a few internal functions by qualified
name. A function that a later change removes reads 0 and is reported as
gone, not as a gain.

The layers are minreach's modules: cli, netgen, numkit, reachcore,
selector and reductions.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import time
from collections import defaultdict

#: (module a caller looks the function up through, attribute, span name).
WRAPPED = (
    ("minreach.cli", "main", "cli.main"),
    ("minreach.cli", "erdos_renyi", "netgen.erdos_renyi"),
    ("minreach.cli", "star", "netgen.star"),
    ("minreach.netgen", "random_target", "netgen.random_target"),
    ("minreach.cli", "transfer_vector", "reachcore.transfer_vector"),
    ("minreach.reachcore", "mat_exp", "numkit.mat_exp"),
    ("minreach.cli", "residual", "reachcore.residual"),
    ("minreach.reductions", "is_controllable", "reachcore.is_controllable"),
    ("minreach", "epsilon_a", "reachcore.epsilon_a"),
    ("minreach.cli", "bisection_exact", "selector.bisection_exact"),
    ("minreach.cli", "greedy_eps", "selector.greedy_eps"),
    ("minreach.selector", "greedy_eps", "selector.greedy_eps"),
    ("minreach.cli", "subset_reach", "selector.subset_reach"),
    ("minreach.cli", "brute_force_opt", "selector.brute_force_opt"),
    ("minreach.reductions", "brute_force_opt", "selector.brute_force_opt"),
    ("minreach.reductions", "min_hitting_set", "selector.min_hitting_set"),
    ("minreach.cli", "verify_reduction", "reductions.verify_reduction"),
    ("minreach.reductions", "build_lemma1", "reductions.build"),
    ("minreach.reductions", "build_lemma2", "reductions.build"),
    ("minreach.reductions", "build_lemma3", "reductions.build"),
)

#: (module file, qualified name) of the internal functions cProfile counts.
PROFILED = {
    "span_add": ("numkit.py", "_SpanBuilder.add"),
    "index_closure": ("reachcore.py", "_index_closure"),
    "trial_copy": ("reachcore.py", "_ReachAccumulator.copy"),
    "greedy_core": ("selector.py", "_greedy_core"),
}

#: Per-layer metric -> (source, key, statistic, unit); the source is a span
#: name or a PROFILED key, the statistic "self_ms" or "calls".
METRICS = {
    "cli.self_ms": ("span", "cli.main", "self_ms", "ms"),
    "numkit.mat_exp_ms": ("span", "numkit.mat_exp", "self_ms", "ms"),
    "numkit.span_adds": ("profile", "span_add", "calls", "count"),
    "numkit.span_add_self_ms": ("profile", "span_add", "self_ms", "ms"),
    "reachcore.closures_built": ("profile", "index_closure", "calls", "count"),
    "reachcore.closure_self_ms": ("profile", "index_closure", "self_ms", "ms"),
    "reachcore.trial_copies": ("profile", "trial_copy", "calls", "count"),
    "reachcore.transfer_vector_ms": ("span", "reachcore.transfer_vector", "self_ms", "ms"),
    "reachcore.residual_ms": ("span", "reachcore.residual", "self_ms", "ms"),
    "reachcore.residual_calls": ("span", "reachcore.residual", "calls", "count"),
    "reachcore.is_controllable_ms": ("span", "reachcore.is_controllable", "self_ms", "ms"),
    "reachcore.epsilon_a_ms": ("span", "reachcore.epsilon_a", "self_ms", "ms"),
    "selector.greedy_runs": ("profile", "greedy_core", "calls", "count"),
    "selector.greedy_self_ms": ("profile", "greedy_core", "self_ms", "ms"),
    "selector.bisection_ms": ("span", "selector.bisection_exact", "self_ms", "ms"),
    "selector.greedy_eps_ms": ("span", "selector.greedy_eps", "self_ms", "ms"),
    "selector.greedy_eps_calls": ("span", "selector.greedy_eps", "calls", "count"),
    "selector.subset_reach_ms": ("span", "selector.subset_reach", "self_ms", "ms"),
    "selector.brute_force_ms": ("span", "selector.brute_force_opt", "self_ms", "ms"),
    "selector.min_hitting_set_ms": ("span", "selector.min_hitting_set", "self_ms", "ms"),
    "reductions.verify_ms": ("span", "reductions.verify_reduction", "self_ms", "ms"),
    "reductions.build_ms": ("span", "reductions.build", "self_ms", "ms"),
}


class Tracer:
    """Records spans around the wrapped functions and cProfile counts per
    operation. Install once per process; nothing is undone."""

    def __init__(self):
        self.spans: list[dict] = []
        self.profiles: dict[int, dict] = {}
        self.op = -1
        self._stack: list[dict] = []
        self.missing = [f"{m}.{attr}" for m, attr, name in WRAPPED if not self._wrap(m, attr, name)]

    def _wrap(self, module_name: str, attr: str, name: str) -> bool:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            return False
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"op": self.op, "name": name, "start": time.perf_counter(),
                    "end": None, "child_s": 0.0,
                    "parent": stack[-1]["id"] if stack else None, "id": len(spans)}
            spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1]["child_s"] += span["end"] - span["start"]

        setattr(module, attr, traced)
        return True

    def run(self, op_index: int, call):
        """Run ``call()`` as operation `op_index` under spans and cProfile."""
        self.op = op_index
        profile = cProfile.Profile()
        profile.enable()
        try:
            return call()
        finally:
            profile.disable()
            self.op = -1
            self.profiles[op_index] = _profiled_stats(profile)

    def span_totals(self, ops) -> dict[str, dict[str, float]]:
        """Summed self time (ms) and call count per span name over `ops`."""
        ops = set(ops)
        totals: dict[str, dict[str, float]] = defaultdict(lambda: {"self_ms": 0.0, "calls": 0})
        for span in self.spans:
            if span["op"] in ops:
                entry = totals[span["name"]]
                entry["self_ms"] += (span["end"] - span["start"] - span["child_s"]) * 1e3
                entry["calls"] += 1
        return totals

    def profile_totals(self, ops) -> dict[str, dict[str, float]]:
        totals: dict[str, dict[str, float]] = defaultdict(lambda: {"self_ms": 0.0, "calls": 0})
        for op in ops:
            for key, entry in self.profiles.get(op, {}).items():
                totals[key]["self_ms"] += entry["self_ms"]
                totals[key]["calls"] += entry["calls"]
        return totals

    def per_op(self, ops) -> dict[str, float]:
        """Every per-layer metric of METRICS as a mean over `ops`."""
        ops = list(ops)
        spans = self.span_totals(ops)
        profiles = self.profile_totals(ops)
        out = {}
        for metric, (source, key, stat, _) in METRICS.items():
            table = spans if source == "span" else profiles
            total = table[key][stat] if key in table else 0.0
            out[metric] = total / len(ops) if ops else 0.0
        return out


def _profiled_stats(profile: cProfile.Profile) -> dict[str, dict[str, float]]:
    wanted = {v: k for k, v in PROFILED.items()}
    out = {}
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):
            continue
        qualname = getattr(code, "co_qualname", code.co_name)
        key = wanted.get((code.co_filename.rsplit("/", 1)[-1], qualname))
        if key is not None and "minreach" in code.co_filename:
            out[key] = {"calls": entry.callcount, "self_ms": entry.inlinetime * 1e3}
    return out


def gone() -> list[str]:
    """Profiled functions that no longer exist in the package."""
    missing = []
    for module_file, qualname in PROFILED.values():
        obj = importlib.import_module(f"minreach.{module_file[:-3]}")
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(f"{module_file[:-3]}.{qualname}")
    return missing
