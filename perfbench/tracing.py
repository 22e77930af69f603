"""Outside-in per-layer trace of mcpa.

The tracer wraps public functions of each mcpa module from the benchmark's
own files and changes nothing under ``src/``. Every attribute of every
loaded ``mcpa`` module that is bound to a wrapped function is rebound, so a
name one module took with ``from .x import y`` is traced as well, and
``uninstall`` restores each binding.

* Layer entry points get spans: calls, self time (duration minus the time
  of traced calls made inside it) and per-call durations.
* Hot inner calls (``surrogate_total``, ``project_feasible``, ``grade``,
  ``sinr_vector`` and a few more) are only counted, because a span around
  each would cost more than the call.
* Three harness internals (``_prepare_run``, ``_allocate``,
  ``_score_allocation``) are timed inclusively for the baseline table and
  stay out of the self-time accounting. A name missing from the program is
  skipped and listed in ``missing``, so a refactor does not crash the trace.

Spans assume one thread, which holds while ``remote.max_concurrency`` is 1
(its default and the benchmark's setting).
"""
from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("config", "world", "channel", "gae", "remote", "qom", "solver",
          "baselines", "harness", "cli")

SPANS = {
    "config": ("load_config", "build_scenario"),
    "world": ("build_world",),
    "channel": ("draw_channels",),
    "gae": ("run_gae",),
    "remote": ("chat_completion",),
    "qom": ("pilot_overhead",),
    "solver": ("solve_mcpa",),
    "baselines": ("allocate_fairness", "allocate_max_cov", "allocate_greedy",
                  "allocate_remember", "allocate_uniform"),
    "harness": ("run_campaign", "run_sweep", "write_csv"),
    "cli": ("main",),
}

COUNTED = {
    "channel": ("sinr_vector",),
    "qom": ("qom_weights", "frames_uploaded", "qom_objective"),
    "solver": ("surrogate_total", "project_feasible"),
}

STAGES = {"_prepare_run": "prepare", "_allocate": "allocate", "_score_allocation": "score"}

TAIL_SAMPLES = 10   # a percentile is reported only with this many samples beyond it


def tail_percentile(values, q: float):
    """Nearest-rank percentile, or None without TAIL_SAMPLES values beyond it."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    if len(ordered) - rank < TAIL_SAMPLES:
        return None
    return ordered[rank - 1]


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.durations: defaultdict = defaultdict(list)   # seconds per span or stage
        self.counts: Counter = Counter()
        self.converged_with_caps: Counter = Counter()      # (solve, cap hits, inner solves)
        self.missing: set[str] = set()
        self._open: list[float] = []                       # child time per open span
        self._patches: list[tuple[object, str, object]] = []
        self._unit_params = None

    # -- wrappers -------------------------------------------------------

    def _span(self, fn, name_of, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            self._open.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
                self.calls[name] += 1
                self.self_s[name] += elapsed - child
                self.durations[name].append(elapsed)
            if after is not None:
                after(name, args, kwargs, result)
            return result
        return wrapper

    def _counted(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _stage(self, fn, name_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.durations[name_of(args, kwargs)].append(perf_counter() - start)
        return wrapper

    # -- per-layer hooks --------------------------------------------------

    def _solve_name(self, args, kwargs):
        params, state = args[0], args[1]
        label = "max_rate" if params is self._unit_params else "mcpa"
        return f"solver.solve_mcpa.{label}.K{state.num_robots}"

    def _after_solve(self, name, args, kwargs, trace):
        opts = kwargs.get("opts", args[4] if len(args) > 4 else None)
        if opts is None:
            opts = importlib.import_module("mcpa.solver").SolverOptions()
        inner = list(trace.inner_iterations)
        hits = sum(count >= opts.max_inner for count in inner)
        self.counts["solver.outer_iters"] += trace.outer_iterations
        self.counts["solver.inner_iters"] += sum(inner)
        self.counts["solver.inner_cap_hits"] += hits
        self.counts[f"solver.stop.{trace.stop_reason}"] += 1
        if trace.stop_reason == "converged" and hits:
            self.counts["solver.converged_with_cap_hits"] += 1
            self.converged_with_caps[(name, hits, len(inner))] += 1

    def _after_world(self, name, args, kwargs, world):
        self.counts["world.frames"] += sum(len(d) for d in world.datasets)

    def _after_gae(self, name, args, kwargs, report):
        self.counts["gae.questions"] += sum(len(exam) for exam in report.exams)

    def _mark_unit_params(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._unit_params = fn(*args, **kwargs)
            return self._unit_params
        return wrapper

    # -- install / uninstall ----------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "mcpa" and not mod_name.startswith("mcpa."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _patch_method(self, cls, attr, make) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.add(f"{cls.__module__}.{cls.__name__}.{attr}")
            return
        self._patches.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def install(self) -> None:
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"mcpa.{layer}")
            except ImportError:
                self.missing.add(f"mcpa.{layer}")

        def target(layer, attr):
            fn = getattr(modules.get(layer), attr, None)
            if fn is None:
                self.missing.add(f"mcpa.{layer}.{attr}")
            return fn

        hooks = {"build_world": self._after_world, "run_gae": self._after_gae,
                 "solve_mcpa": self._after_solve}
        for layer, attrs in SPANS.items():
            for attr in attrs:
                fn = target(layer, attr)
                if fn is None:
                    continue
                fixed = f"{layer}.{attr}"
                name_of = self._solve_name if attr == "solve_mcpa" else \
                    (lambda args, kwargs, fixed=fixed: fixed)
                self._rebind(fn, self._span(fn, name_of, hooks.get(attr)))
        for layer, attrs in COUNTED.items():
            for attr in attrs:
                fn = target(layer, attr)
                if fn is not None:
                    self._rebind(fn, self._counted(fn, f"{layer}.{attr}.calls"))
        fn = target("baselines", "unit_rate_params")
        if fn is not None:
            self._rebind(fn, self._mark_unit_params(fn))
        for attr, stage in STAGES.items():
            fn = target("harness", attr)
            if fn is None:
                continue
            if stage == "allocate":
                def name_of(args, kwargs):
                    method = kwargs.get("method", args[2] if len(args) > 2 else "?")
                    return f"harness.allocate.{getattr(method, 'kind', method)}"
            else:
                def name_of(args, kwargs, stage=stage):
                    return f"harness.{stage}"
            self._rebind(fn, self._stage(fn, name_of))

        gae = modules.get("gae")
        if gae is not None:
            self._patch_method(gae.SyntheticBackend, "grade",
                               lambda fn: self._counted(fn, "gae.grade.calls"))
            self._patch_method(gae.MemoryIndex, "extend", self._counted_extend)

    def _counted_extend(self, fn):
        @functools.wraps(fn)
        def wrapper(index, items):
            if not hasattr(items, "__len__"):
                items = list(items)
            self.counts["gae.index_items"] += len(items)
            return fn(index, items)
        return wrapper

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def per_run_values(setup: Tracer, passes: Tracer, num_passes: int) -> dict:
    """Per-layer values for one set-up plus one pass.

    Counts and self times are the set-up's plus the passes' mean; duration
    percentiles pool every call. Inclusive harness stages are left out.
    """
    values = {}
    for name in set(setup.calls) | set(passes.calls):
        values[f"{name}.calls"] = setup.calls[name] + passes.calls[name] / num_passes
        values[f"{name}.self_s"] = setup.self_s[name] + passes.self_s[name] / num_passes
        ms = [1e3 * d for d in setup.durations[name] + passes.durations[name]]
        values[f"{name}.ms_p50"] = statistics.median(ms)
        p90 = tail_percentile(ms, 0.9)
        if p90 is not None:
            values[f"{name}.ms_p90"] = p90
    for name in set(setup.counts) | set(passes.counts):
        values[name] = setup.counts[name] + passes.counts[name] / num_passes
    return values
