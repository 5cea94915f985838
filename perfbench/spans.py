"""Span tracing from outside the package, for the per-layer metrics.

Every public function of every ``spiked_tensor`` module is wrapped at every
name a caller imports it under (``montecarlo.contract``,
``thresholds.rate_function_for`` ...), plus ``RngSeed.generator`` and the
``eval`` / ``eval_batch`` members of each returned ``RateFunction``.  Spans
are kept in memory (name, start, end, parent, task id) and written when the
run ends.  The package itself is not modified; ``install`` / ``uninstall``
swap the module attributes.

Self time is a span's duration minus the time its child spans cover.  Tasks
run at one thread, so child spans never overlap and their durations add.

Exact work counts are computed from the inputs or the returned results of
the wrapped calls, never from timers.
"""

from __future__ import annotations

import dataclasses
import gzip
import inspect
import math
import sys
import time
from array import array
from collections import defaultdict

PACKAGE = "spiked_tensor"
MODULES = ("rng", "tensors", "rates", "solvers", "thresholds", "replica", "montecarlo",
           "output", "parallel", "cli")

# Layer groups whose share of round time the traced run reports; a span
# counts once even when spans of its own group are nested inside it.
SHARE_GROUPS = {
    "share.rate_eval": ("rates.eval", "rates.eval_batch"),
    "share.replica": ("replica.rademacher_replica_thresholds", "replica.spherical_replica_threshold",
                      "replica.rademacher_fixed_points", "replica.spherical_fixed_points"),
    "share.enumeration": ("montecarlo.mle_statistic",),
    "share.symmetrize": ("tensors.symmetrize",),
    "share.power_iteration": ("montecarlo.injective_norm_estimate", "montecarlo.matrix_top_eigenpair"),
}

# Per-layer metrics reported by every traced run.  Names follow
# <module>.<function>.<stat>; calls and named counts are exact.
TIMED = (
    "rates.eval", "rates.eval_batch", "solvers.golden_min", "solvers.golden_min_vec",
    "solvers.bisect_root", "replica.rademacher_fixed_points", "replica.spherical_fixed_points",
    "thresholds.spiked_norm_lower_Ld", "rates.exact_overlap_tail", "montecarlo.mle_statistic",
    "tensors.sample_wigner", "montecarlo.injective_norm_estimate", "tensors.contract",
    "tensors.rank_one_inner", "rng.generator",
)
SELF_ONLY = (
    "thresholds.lower_bound_lambda", "replica.rademacher_replica_thresholds",
    "replica.spherical_replica_threshold", "thresholds.threshold_report",
    "thresholds.injective_norm_mu", "thresholds.upper_bound_spherical",
    "thresholds.spherical_tangency", "tensors.symmetrize", "tensors.rank_one",
    "montecarlo.matrix_top_eigenpair", "tensors.sample_spike_batch",
    "montecarlo.overlap_tail_experiment", "cli.main", "output.write_table",
)
COUNTS = (
    "rates.eval_batch.points", "solvers.bisect_root.iterations",
    "montecarlo.mle_statistic.candidates", "tensors.symmetrize.bytes_computed",
    "montecarlo.injective_norm_estimate.restarts",
)


def _half_support(prior, n: int) -> int:
    if prior.kind == "rademacher":
        return 2 ** (n - 1)
    k = prior.nonzeros(n)
    return math.comb(n, k) * 2 ** (k - 1)


def _counters() -> dict:
    """span name -> (args, kwargs, result) -> {count name: value}."""

    def arg(args, kwargs, i, name):
        return args[i] if len(args) > i else kwargs[name]

    def eval_batch(args, kwargs, result):
        import numpy as np

        return {"points": int(np.size(arg(args, kwargs, 0, "ts")))}

    def bisect(args, kwargs, result):
        return {"iterations": result.iterations}

    def mle(args, kwargs, result):
        return {"candidates": _half_support(arg(args, kwargs, 1, "prior"), arg(args, kwargs, 2, "n"))}

    def symmetrize(args, kwargs, result):
        return {"bytes_computed": math.factorial(result.d) * result.n ** result.d * 8}

    def restarts(args, kwargs, result):
        from spiked_tensor.montecarlo import PowerIterationSettings

        settings = args[1] if len(args) > 1 else kwargs.get("settings", PowerIterationSettings())
        spike = args[3] if len(args) > 3 else kwargs.get("spike_start")
        return {"restarts": settings.restarts + (spike is not None)}

    return {
        "rates.eval_batch": eval_batch,
        "solvers.bisect_root": bisect,
        "montecarlo.mle_statistic": mle,
        "tensors.symmetrize": symmetrize,
        "montecarlo.injective_norm_estimate": restarts,
    }


class Tracer:
    """Records spans of wrapped package calls while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task = array("i")
        self.counts: dict[int, dict[str, int]] = {}  # span index -> counts
        self.task_id = -1
        self._stack: list[int] = []
        self._swaps: list[tuple[object, str, object, object]] = []
        self._counters = _counters()

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str):
        nid = self._id(name)
        counter = self._counters.get(name)
        stack = self._stack
        rec = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(rec.start)
            rec.name_id.append(nid)
            rec.parent.append(stack[-1] if stack else -1)
            rec.task.append(rec.task_id)
            rec.start.append(0.0)
            rec.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                rec.start[idx] = t0
                rec.end[idx] = t1
            if counter is not None:
                rec.counts[idx] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation ------------------------------------------------------

    def plan(self) -> None:
        """Compute every (owner, attribute, original, wrapper) swap once."""
        modules = {m: sys.modules[f"{PACKAGE}.{m}"] for m in MODULES}
        owners = [sys.modules[PACKAGE], *modules.values()]
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                if short == "rates" and attr == "rate_function_for":
                    wrappers[id(obj)] = (obj, self._wrap_rate_function_for(obj))
                else:
                    wrappers[id(obj)] = (obj, self.wrap(obj, f"{short}.{attr}"))
        for owner in owners:
            for attr, obj in vars(owner).items():
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._swaps.append((owner, attr, obj, wrappers[id(obj)][1]))
        seed_cls = modules["rng"].RngSeed
        gen = seed_cls.__dict__["generator"]
        self._swaps.append((seed_cls, "generator", gen, self.wrap(gen, "rng.generator")))

    def _wrap_rate_function_for(self, fn):
        inner = self.wrap(fn, "rates.rate_function_for")
        eval_name, batch_name = "rates.eval", "rates.eval_batch"

        def rate_function_for(prior):
            rate = inner(prior)
            return dataclasses.replace(
                rate, eval=self.wrap(rate.eval, eval_name), eval_batch=self.wrap(rate.eval_batch, batch_name)
            )

        rate_function_for.__wrapped__ = fn
        return rate_function_for

    def install(self) -> None:
        for owner, attr, _orig, wrapper in self._swaps:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig, _wrapper in self._swaps:
            setattr(owner, attr, orig)

    # -- analysis ----------------------------------------------------------

    def aggregate(self, tasks: set[int]) -> dict:
        """Per-name calls, inclusive and self seconds and counts over ``tasks``."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        group_of = {name: g for g, names in SHARE_GROUPS.items() for name in names}
        calls = defaultdict(int)
        self_s = defaultdict(float)
        incl = defaultdict(float)
        counts = defaultdict(int)
        shares = defaultdict(float)
        contract_steps = inner_calls = 0
        for i in range(n):
            if self.task[i] not in tasks:
                continue
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            incl[name] += dur
            self_s[name] += dur - child[i]
            for key, value in self.counts.get(i, {}).items():
                counts[f"{name}.{key}"] += value
            group = group_of.get(name)
            under_power = False
            p = self.parent[i]
            nested = False
            while p >= 0:
                pname = self.names[self.name_id[p]]
                if group is not None and group_of.get(pname) == group:
                    nested = True
                if pname == "montecarlo.injective_norm_estimate":
                    under_power = True
                p = self.parent[p]
            if group is not None and not nested:
                shares[group] += dur
            if under_power and name == "tensors.contract":
                contract_steps += 1
            if under_power and name == "tensors.rank_one_inner":
                inner_calls += 1
        return {
            "calls": calls, "self_s": self_s, "incl_s": incl, "counts": counts,
            "shares": shares, "power_steps": contract_steps, "power_inner_calls": inner_calls,
        }

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\ttask\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.task[i]}\n"
                )


def layer_metrics(agg: dict, task_seconds: float) -> dict:
    """Per-layer metric values (no units) from one ``Tracer.aggregate``."""
    out = {}
    for name in TIMED:
        out[f"{name}.calls"] = agg["calls"].get(name, 0)
        out[f"{name}.self_s"] = agg["self_s"].get(name, 0.0)
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = agg["self_s"].get(name, 0.0)
    for key in COUNTS:
        out[key] = agg["counts"].get(key, 0)
    mle_s = agg["incl_s"].get("montecarlo.mle_statistic", 0.0)
    out["montecarlo.mle_statistic.candidates_per_s"] = (
        out["montecarlo.mle_statistic.candidates"] / mle_s if mle_s > 0 else 0.0
    )
    steps = agg["power_steps"]
    attempts = agg["power_inner_calls"] - out["montecarlo.injective_norm_estimate.restarts"]
    power_s = agg["incl_s"].get("montecarlo.injective_norm_estimate", 0.0)
    out["montecarlo.power.steps"] = steps
    out["montecarlo.power.steps_per_s"] = steps / power_s if power_s > 0 else 0.0
    out["montecarlo.power.accept_ratio"] = steps / attempts if attempts > 0 else 0.0
    for group in SHARE_GROUPS:
        out[group] = agg["shares"].get(group, 0.0) / task_seconds if task_seconds > 0 else 0.0
    return out


def import_times(stderr: str) -> dict:
    """``<module>.import_s`` (cumulative) from ``python -X importtime`` output.

    A module that set-up did not import reads 0.
    """
    out = {f"{name}.import_s": 0.0 for name in (PACKAGE, *MODULES)}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if len(parts) != 3 or not parts[1].isdigit():
            continue
        mod = parts[2]
        if mod == PACKAGE:
            out["spiked_tensor.import_s"] = int(parts[1]) / 1e6
        elif mod.startswith(PACKAGE + ".") and mod[len(PACKAGE) + 1:] in MODULES:
            out[f"{mod[len(PACKAGE) + 1:]}.import_s"] = int(parts[1]) / 1e6
    return out
