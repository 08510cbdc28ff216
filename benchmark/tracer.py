"""Layer trace of amppath, taken from outside the program.

The tracer swaps the public functions of each amppath module for timing
wrappers, in every module namespace that holds them, because callers look
functions up by the name they imported (``experiments`` calls its own
``amp_run`` global, ``psi_map`` reaches ``risk`` through the ``priors``
globals).  Nothing inside ``src/`` changes, and ``uninstall`` puts every
original back.

Each wrapped call records its calls, total time and self time (total minus
the time of wrapped calls made inside it).  Calls of the coarse functions
are also kept as spans ``(name, start, end, parent)`` in memory.  The hot
functions below run hundreds of thousands of times per round; they are
only aggregated, so memory stays flat.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time

# The public functions on the workloads' call paths: (module, attribute, span name, hot)
TARGETS = (
    ("amppath.rng", "open_uniform", "rng.open_uniform", False),
    ("amppath.rng", "standard_normal", "rng.standard_normal", False),
    ("amppath.instances", "sample_instance", "instances.sample_instance", False),
    ("amppath.instances", "compute_observables", "instances.compute_observables", False),
    ("amppath.amp", "amp_run", "amp.amp_run", False),
    ("amppath.amp", "fixed_detection_tau", "amp.fixed_detection_tau", True),
    ("amppath.priors", "psi_map", "priors.psi_map", True),
    ("amppath.priors", "risk", "priors.risk", True),
    ("amppath.priors", "detection_prob", "priors.detection_prob", True),
    ("amppath.state_evolution", "beta_of_lambda", "state_evolution.beta_of_lambda", False),
    ("amppath.state_evolution", "solve_sigma_for_beta", "state_evolution.solve_sigma_for_beta", True),
    ("amppath.state_evolution", "brentq", "state_evolution.brentq", True),
    ("amppath.lasso", "lasso_solve", "lasso.lasso_solve", False),
    ("amppath.lasso", "power_iteration_sq_norm", "lasso.power_iteration_sq_norm", False),
    ("amppath.experiments", "phase_transition_grid", "experiments.phase_transition_grid", False),
    ("amppath.experiments", "rho_of_delta", "experiments.rho_of_delta", False),
    ("amppath.experiments", "model_for_instance", "experiments.model_for_instance", False),
    ("amppath.cli", "main", "cli.main", False),
)


def _argument(fn, name: str):
    """Value of parameter ``name`` in a call of ``fn``, defaults applied."""
    sig = inspect.signature(fn)

    def get(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]

    return get


def _on_amp_run(fn):
    max_iter = _argument(fn, "max_iter")

    def hook(counts, args, kwargs, result):
        state = result[0]
        n, N = args[0].A.shape
        cap = max_iter(args, kwargs)
        counts["amp.iters"] += state.t
        counts["amp.cap_hit_runs"] += state.t >= cap
        counts["amp.converged_runs"] += state.t < cap
        counts["amp.bytes"] += 2 * n * N * 8 * state.t  # two matvecs per iteration

    return hook


def _on_lasso_solve(fn):
    def hook(counts, args, kwargs, result):
        n, N = args[0].A.shape
        counts["lasso.iters"] += result.iterations
        counts["lasso.bytes"] += 3 * n * N * 8 * result.iterations  # three GEMVs per iteration

    return hook


HOOKS = {"amp.amp_run": _on_amp_run, "lasso.lasso_solve": _on_lasso_solve}
COUNT_KEYS = (
    "amp.iters", "amp.cap_hit_runs", "amp.converged_runs", "amp.bytes", "lasso.iters", "lasso.bytes",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent span index]
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self.missing: list[str] = []
        self._stack: list[float] = []  # child time of each open wrapped call
        self._open = [-1]  # index of the innermost open span
        self._patches: list[tuple] = []

    def install(self):
        if self._patches:
            return
        self.missing = []
        for module_name, attr, span, hot in TARGETS:
            module = sys.modules.get(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            hook = HOOKS.get(span)
            wrapper = self._wrap(fn, span, hot, hook(fn) if hook else None)
            # amppath's own functions are patched wherever amppath holds them;
            # a foreign one (brentq) only in the module named.
            if getattr(fn, "__module__", "").startswith("amppath"):
                holders = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "amppath"]
            else:
                holders = [module]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, wrapper)
                        self._patches.append((holder, key, fn))

    def uninstall(self):
        for holder, key, fn in reversed(self._patches):
            setattr(holder, key, fn)
        self._patches.clear()

    def _wrap(self, fn, name, hot, hook):
        stack, spans, stats, counts, open_ = self._stack, self.spans, self.stats, self.counts, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            if not hot:
                index, parent = len(spans), open_[0]
                spans.append([name, start, None, parent])
                open_[0] = index
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                child = stack.pop()
                duration = end - start
                if stack:
                    stack[-1] += duration
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - child
                if not hot:
                    spans[index][2] = end
                    open_[0] = parent
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def segment(self, label: str, body):
        """Run ``body()`` as one top-level span and return (result, figures),
        where figures holds the calls, times and counts made inside it."""
        before_stats = {k: list(v) for k, v in self.stats.items()}
        before_counts = dict(self.counts)
        result = self._wrap(body, label, False, None)()
        figures = {"counts": {k: self.counts[k] - before_counts[k] for k in COUNT_KEYS}, "stats": {}}
        for key, (calls, total, self_s) in self.stats.items():
            c0, t0, s0 = before_stats.get(key, (0, 0.0, 0.0))
            if calls > c0:
                figures["stats"][key] = (calls - c0, total - t0, self_s - s0)
        return result, figures

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "names": names,
            "spans": [[index[n], start, end, parent] for n, start, end, parent in self.spans],
            "aggregates": {k: {"calls": c, "total_s": t, "self_s": s} for k, (c, t, s) in self.stats.items()},
            "missing": self.missing,
        }


def work_counts(figures: dict) -> dict:
    """Everything in a segment that must repeat exactly: calls per function
    and the iteration and byte counters."""
    out = {k: v[0] for k, v in figures["stats"].items()}
    out.update(figures["counts"])
    return out


def layer_metrics(setup: dict, rounds: list[dict], overhead_s: float) -> dict:
    """Per-layer figures of one pass of the workload's fixed work: building
    its inputs (``setup``) plus one round.  Times are medians over the traced
    rounds; counts are identical in every round."""

    def calls(name):
        return sum(f["stats"].get(name, (0, 0, 0))[0] for f in (setup, rounds[0]))

    def count(key):
        return setup["counts"][key] + rounds[0]["counts"][key]

    def seconds(name, field):
        pick = lambda f: f["stats"].get(name, (0, 0.0, 0.0))[field]
        return pick(setup) + statistics.median(pick(r) for r in rounds)

    total = lambda name: seconds(name, 1)
    self_time = lambda name: seconds(name, 2)
    per = lambda a, b: a / b if b else 0.0

    amp_runs = calls("amp.amp_run")
    amp_iters = count("amp.iters")
    lasso_iters = count("lasso.iters")
    names = {n for f in [setup, *rounds] for n in f["stats"]}
    experiments_self = sum(self_time(n) for n in names if n.startswith("experiments."))
    round_total = statistics.median(r["stats"]["bench.round"][1] for r in rounds)
    round_self = statistics.median(r["stats"]["bench.round"][2] for r in rounds)
    figures = {
        "rng.uniform_ms": (total("rng.open_uniform") * 1e3, "ms"),
        "rng.ndtri_ms": (self_time("rng.standard_normal") * 1e3, "ms"),
        "instances.sample_ms": (total("instances.sample_instance") * 1e3, "ms"),
        "instances.calls": (calls("instances.sample_instance"), "count"),
        "amp.runs": (amp_runs, "count"),
        "amp.iters": (amp_iters, "count"),
        "amp.cap_hit_runs": (count("amp.cap_hit_runs"), "count"),
        "amp.converged_ratio": (per(count("amp.converged_runs"), amp_runs), "ratio"),
        "amp.us_per_iter": (per(total("amp.amp_run"), amp_iters) * 1e6, "us"),
        "amp.self_us_per_iter": (per(self_time("amp.amp_run"), amp_iters) * 1e6, "us"),
        "amp.threshold_us": (per(total("amp.fixed_detection_tau"), calls("amp.fixed_detection_tau")) * 1e6, "us"),
        "amp.computed_gb_per_s": (per(count("amp.bytes"), total("amp.amp_run")) / 1e9, "GB/s"),
        "state_evolution.points": (calls("state_evolution.beta_of_lambda"), "count"),
        "state_evolution.us_per_point": (
            per(total("state_evolution.beta_of_lambda"), calls("state_evolution.beta_of_lambda")) * 1e6, "us"),
        "state_evolution.psi_evals": (calls("priors.psi_map"), "count"),
        "state_evolution.brentq_calls": (calls("state_evolution.brentq"), "count"),
        "priors.risk_evals": (calls("priors.risk"), "count"),
        "priors.detection_evals": (calls("priors.detection_prob"), "count"),
        "priors.us_per_risk": (per(total("priors.risk"), calls("priors.risk")) * 1e6, "us"),
        "lasso.solves": (calls("lasso.lasso_solve"), "count"),
        "lasso.iters": (lasso_iters, "count"),
        "lasso.us_per_iter": (per(total("lasso.lasso_solve"), lasso_iters) * 1e6, "us"),
        "lasso.power_iteration_ms": (
            per(total("lasso.power_iteration_sq_norm"), calls("lasso.power_iteration_sq_norm")) * 1e3, "ms"),
        "lasso.computed_gb_per_s": (per(count("lasso.bytes"), total("lasso.lasso_solve")) / 1e9, "GB/s"),
        "experiments.self_s": (experiments_self, "s"),
        "cli.self_ms": (self_time("cli.main") * 1e3, "ms"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.coverage": (1.0 - per(round_self, round_total), "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in figures.items()}
