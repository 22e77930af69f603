"""Seeded Monte-Carlo experiment harness: runs, campaigns, sweeps, CSV.

One run draws a world and a channel realization, scores memories with the
GAE pipeline, allocates power with the requested method, materializes the
uploads and grades the ground-truth question set with the synthetic oracle.
Runs are isolated: each seed is staged once (:func:`prepare_seed`), and
every method and power budget of that seed sees the same world, channels
and GAE scores; only the pilot overhead and the QoM weights depend on the
budget. :func:`_run_seed` makes a seed's rows at every budget with one call
per layer: pilot overhead, weights, fairness and scoring, each row exactly as
it would be alone; a failed run is a row of NaNs with its reason. Rates,
frames and QoM come from :mod:`mcpa.qom`, as for any other caller.
"""
from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

import numpy as np

from . import baselines
from .channel import ChannelState, RobotGeometry, draw_channels
from .config import ConfigError, Scenario
from .gae import GaeError, MemoryIndex, SyntheticBackend, run_gae
from .qom import (PilotPhaseInfeasible, frames_uploaded, log_rate, pilot_overhead, qom_terms,
                  qom_weights)
from .solver import SolveTrace, solve_mcpa
from .world import WorldInstance, build_world

__all__ = [
    "METHODS",
    "CSV_COLUMNS",
    "ExternalWeights",
    "RunMetrics",
    "SeedContext",
    "prepare_seed",
    "run_method",
    "run_campaign",
    "run_sweep",
    "write_csv",
    "aggregate",
]

CSV_COLUMNS = ("method", "seed", "p_sum_mw", "eqa_accuracy", "qom",
               "sum_rate_mbps", "connected_drones", "solver_iters", "wall_ms")


@dataclass(frozen=True)
class ExternalWeights:
    """Externally supplied per-robot value weights (e.g. a semantic-similarity
    scorer) run through the same MM machinery as the native allocator: one
    finite, nonnegative weight per robot."""

    weights: tuple
    name: str = "external"


@dataclass(frozen=True)
class RunMetrics:
    """Everything one (scenario, method, seed) run reports.

    ``power_mw`` keeps the allocation behind the metrics; it is not part of
    the CSV schema but lets callers re-derive qom / rates exactly. A failed
    run is a row of NaNs whose ``failure`` says why, and ``stop_reason`` is
    the MM solve's, "" for a fixed rule (neither is a CSV column).
    """

    method: str
    seed: int
    p_sum_mw: float
    eqa_accuracy: float
    qom: float
    sum_rate_mbps: float
    connected_drones: int
    solver_iters: int
    wall_ms: float
    power_mw: tuple = ()
    failure: str = ""
    stop_reason: str = ""

    def row(self) -> list:
        return [self.method, self.seed, repr(self.p_sum_mw), repr(self.eqa_accuracy),
                repr(self.qom), repr(self.sum_rate_mbps), self.connected_drones,
                self.solver_iters, f"{self.wall_ms:.3f}"]


def _default_cov_threshold(scenario: Scenario, effective_time_s: float) -> np.ndarray:
    """Each robot's rate that uploads just over half its dataset in the effective time.

    The margin compensates the zero-interference sizing so admitted robots
    actually cross the more-than-half mark once interference is charged.
    """
    meta = scenario.dataset
    half_bits = 0.5 * (1.0 + scenario.coverage_margin) * meta.item_volume_bits * meta.num_items
    return half_bits / effective_time_s


@dataclass(frozen=True)
class SeedContext:
    """Budget-independent stage of one seed, shared by every method and budget.

    ``base_answers[q]`` says whether the base memory answers world question
    ``q``; ``first_frames[q, k]`` is the index of robot ``k``'s first frame
    that answers it (``len`` of its dataset if none does). Uploads are
    prefixes of each robot's frames, so grading needs nothing else.
    ``pilot_sizes[k]`` is the number of frames |D~_k| in robot ``k``'s GAE
    pilot, the frames the pilot overhead charges.
    """

    seed: int
    world: WorldInstance
    state: ChannelState
    gae_scores: np.ndarray
    pilot_sizes: np.ndarray
    base_answers: np.ndarray
    first_frames: np.ndarray

    def accuracy_with(self, frame_counts) -> float | np.ndarray:
        """Ground-truth accuracy of the base memory joined with the first
        ``frame_counts[k]`` frames of every robot ``k``, as the synthetic
        oracle grades it; stacked counts ``(..., K)`` give one per row."""
        uploaded = np.asarray(frame_counts)[..., None, :] > self.first_frames
        answered = self.base_answers | uploaded.any(axis=-1)
        accuracy = answered.sum(axis=-1) / answered.shape[-1]
        return float(accuracy) if accuracy.ndim == 0 else accuracy


def prepare_seed(scenario: Scenario, seed: int, backend=None) -> SeedContext:
    """Stage one seed: build the world, draw the channel, run the GAE exams
    and tabulate which frames answer each world question."""
    backend = backend or SyntheticBackend()
    world = build_world(scenario, np.random.default_rng(
        [scenario.seeds["placement"], seed]))

    rng_geom = np.random.default_rng([scenario.seeds["channel"], seed, 0])
    distances = rng_geom.uniform(scenario.distance_min_m, scenario.distance_max_m,
                                 size=scenario.num_robots)
    state = draw_channels(scenario.radio, RobotGeometry(distance_m=distances),
                          seed=[scenario.seeds["channel"], seed, 1])

    report = run_gae(world.datasets, world.base_memory, scenario.pilot_ratio,
                     scenario.questions_per_robot, backend,
                     seed=[scenario.seeds["pilot"], seed])

    # one index over the hosts, the datasets holding an asked tag; any other answers nothing
    columns = world.questions
    asked = set(columns[1])
    hosts = [k for k, frames in enumerate(world.datasets) if not asked.isdisjoint(frames.tags)]
    lengths = np.array([len(frames) for frames in world.datasets])
    first = np.tile(lengths, (len(columns[0]), 1))
    first[:, hosts] = MemoryIndex([world.datasets[k] for k in hosts],
                                  columns[1]).first_frames(columns)
    # the base memory is the base robots' datasets, and a world question asks
    # no presence question answered NO: a base robot's frame answers it or none does
    base = list(world.base_robots)
    return SeedContext(seed=seed, world=world, state=state, gae_scores=report.scores,
                       base_answers=(first[:, base] < lengths[base]).any(axis=1),
                       pilot_sizes=report.pilot_sizes, first_frames=first)


@dataclass(frozen=True)
class _RunContext:
    """A staged seed at one power budget: T minus its dT, and the QoM weights."""

    stage: SeedContext
    power_w: float
    effective_time_s: float
    weights: np.ndarray


def _solve(ctx: _RunContext, scenario: Scenario, weights) -> tuple[np.ndarray, SolveTrace]:
    """The MM solve behind mcpa, max_rate and external weights."""
    trace = solve_mcpa(weights, ctx.stage.state, ctx.power_w,
                       scenario.radio.noise_power_w, scenario.solver)
    return trace.final, trace


# Each method's allocator: (run context, scenario) -> (powers, solve trace or
# None). Entries look up ``baselines.*`` and ``solve_mcpa`` when called, so a
# rebinding of those names (a tracer, a test) reaches every run. Fairness has
# none: :func:`_run_seed` makes one call per seed over all its budgets.
_ALLOCATORS = {
    "mcpa": lambda ctx, scenario: _solve(ctx, scenario, ctx.weights),
    "max_rate": lambda ctx, scenario: _solve(
        ctx, scenario, baselines.unit_rate_params(ctx.stage.state.num_robots)),
    "max_cov": lambda ctx, scenario: (baselines.allocate_max_cov(
        ctx.stage.state, ctx.power_w, scenario.radio.noise_power_w,
        _default_cov_threshold(scenario, ctx.effective_time_s),
        scenario.radio.bandwidth_hz), None),
    "fairness": None,
    "greedy": lambda ctx, scenario: (baselines.allocate_greedy(
        ctx.stage.state, ctx.stage.gae_scores, scenario.dataset, ctx.power_w,
        scenario.radio.noise_power_w, ctx.effective_time_s,
        scenario.radio.bandwidth_hz), None),
    "remember": lambda ctx, scenario: (baselines.allocate_remember(
        ctx.stage.state.num_robots, ctx.power_w), None),
    "uniform": lambda ctx, scenario: (baselines.allocate_uniform(
        ctx.stage.state.num_robots, ctx.power_w), None),
}

METHODS = tuple(_ALLOCATORS)


def _check_methods(methods) -> list[str]:
    """The names of ``methods``. Raise :class:`ConfigError`, before anything
    is staged, on an empty list, on a method that is neither a name in
    :data:`METHODS` nor an :class:`ExternalWeights`, or on a name that
    appears twice."""
    if not methods:
        raise ConfigError("methods: no method given")
    for method in methods:
        if not isinstance(method, ExternalWeights) and method not in METHODS:
            raise ConfigError(f"methods: unknown method {method!r} (choose from {METHODS})")
    names = [m.name if isinstance(m, ExternalWeights) else m for m in methods]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigError(f"methods: {repeated} named more than once")
    return names


def _allocate(ctx: _RunContext, scenario: Scenario,
              method) -> tuple[np.ndarray, SolveTrace | None]:
    """A checked method's powers and solve trace (None for a fixed rule); not
    fairness, which :func:`_run_seed` allocates per seed."""
    if isinstance(method, ExternalWeights):
        return _solve(ctx, scenario, method.weights)
    return _ALLOCATORS[method](ctx, scenario)


def _checked_allocation(p: np.ndarray, k: int, budget: float) -> None:
    """Raise ValueError unless ``p`` is K finite, nonnegative powers that
    spend at most the budget (up to a relative 1e-9)."""
    if p.shape != (k,):
        raise ValueError(f"allocation has shape {p.shape}, expected ({k},)")
    if not np.isfinite(p).all():
        raise ValueError("non-finite powers: every power must be a finite number")
    if (p < 0.0).any():
        raise ValueError("powers must be nonnegative")
    if p.sum() > budget * (1.0 + 1e-9):
        raise ValueError(f"sum power {p.sum():.6g} exceeds budget {budget:.6g}")


def _score_allocation(stage: SeedContext, scenario: Scenario, powers: np.ndarray,
                      effective_time_s: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, ...]:
    """Graded accuracy, QoM, sum rate (Mbit/s) and connected robots of each row
    of an ``(M, K)`` block of checked allocations, with its own effective time
    (an ``(M, 1)`` column) and QoM weights. Only whole frames are uploaded."""
    radio, meta = scenario.radio, scenario.dataset
    rate = log_rate(stage.state, powers, radio.noise_power_w)
    frames = np.floor(frames_uploaded(rate, meta, effective_time_s, radio.bandwidth_hz))
    connected = (frames / meta.num_items > 0.5).sum(axis=1)
    return (stage.accuracy_with(frames), qom_terms(weights, rate).sum(axis=1),
            (radio.bandwidth_hz * rate).sum(axis=1) / 1e6, connected)


def _run_seed(stage: SeedContext, scenario: Scenario, budgets_mw, methods, names,
              caught=(ValueError, ArithmeticError, GaeError, PilotPhaseInfeasible)
              ) -> list[list[RunMetrics]]:
    """Every method on a staged seed at each of ``budgets_mw``: one list of
    rows per budget, in method order; rows echo a budget as given and the
    allocators see it in watts. A budget whose pilot phase overruns (``not
    dT < T``, NaN included) raises :class:`PilotPhaseInfeasible`; a ``caught``
    error there fails that budget's rows, one in a method's allocation or its
    :func:`_checked_allocation` right after fails that row. One fairness call
    serves the budgets that fit, each row timed at an equal share of it; with
    no such budget there is no call."""
    rows = [[None] * len(names) for _ in budgets_mw]
    time_s = scenario.time_budget_s
    budgets = [budget_mw / 1e3 for budget_mw in budgets_mw]
    delta_t = pilot_overhead(stage.state, scenario.dataset.item_volume_bits * stage.pilot_sizes,
                             scenario.radio, np.array(budgets))
    fits = []                           # the budgets whose pilot phase fits
    for i, (budget, needs) in enumerate(zip(budgets_mw, delta_t.tolist())):
        try:
            if not needs < time_s:
                raise PilotPhaseInfeasible(
                    f"pilot phase needs {needs:.3f} s but the time budget is {time_s:.3f} s")
            fits.append(i)
        except caught as exc:
            rows[i] = [_failed_run(name, stage.seed, budget, exc) for name in names]
    effective_time_s = time_s - delta_t[fits]
    weights = qom_weights(stage.gae_scores, scenario.dataset, effective_time_s[:, None],
                          scenario.radio.bandwidth_hz)
    contexts = [(i, _RunContext(stage, budgets[i], t, w))
                for i, t, w in zip(fits, effective_time_s.tolist(), weights)]
    allocated = []          # (budget index, method position, context, powers, trace, wall ms)
    for j, (method, name) in enumerate(zip(methods, names)):
        fair, share_ms, started = None, 0.0, time.perf_counter()
        if method == "fairness" and contexts:   # not an ExternalWeights so named
            try:
                fair = iter(baselines.allocate_fairness(stage.state, np.array(
                    [ctx.power_w for _, ctx in contexts]), scenario.radio.noise_power_w))
            except caught as exc:
                for i, ctx in contexts:
                    rows[i][j] = _failed_run(name, stage.seed, budgets_mw[i], exc)
                continue
            share_ms = (time.perf_counter() - started) * 1e3 / len(contexts)
        for i, ctx in contexts:
            started = time.perf_counter()
            try:
                powers, trace = ((next(fair), None) if fair is not None
                                 else _allocate(ctx, scenario, method))
                _checked_allocation(powers, scenario.num_robots, ctx.power_w)
            except caught as exc:
                rows[i][j] = _failed_run(name, stage.seed, budgets_mw[i], exc)
                continue
            allocated.append((i, j, ctx, powers, trace,
                              share_ms + (time.perf_counter() - started) * 1e3))
    block = np.array([powers for *_, powers, _, _ in allocated], dtype=float).reshape(
        len(allocated), scenario.num_robots)
    scores = _score_allocation(
        stage, scenario, block,
        np.array([ctx.effective_time_s for _, _, ctx, *_ in allocated]).reshape(-1, 1),
        np.array([ctx.weights for _, _, ctx, *_ in allocated]).reshape(block.shape))
    for (i, j, ctx, _, trace, wall_ms), powers, accuracy, qom, sum_rate, connected in zip(
            allocated, block.tolist(), *(column.tolist() for column in scores)):
        rows[i][j] = RunMetrics(
            method=names[j], seed=stage.seed, p_sum_mw=budgets_mw[i], eqa_accuracy=accuracy,
            qom=qom, sum_rate_mbps=sum_rate, connected_drones=connected,
            solver_iters=trace.outer_iterations if trace is not None else 0,
            wall_ms=wall_ms, power_mw=tuple(p * 1e3 for p in powers),
            stop_reason=trace.stop_reason if trace is not None else "")
    return rows


def run_method(stage: SeedContext, scenario: Scenario, method) -> RunMetrics:
    """Run one method, a name in :data:`METHODS` or an :class:`ExternalWeights`,
    on a staged seed at the scenario's power budget; a failure raises."""
    [name] = _check_methods([method])
    return _run_seed(stage, scenario, [scenario.power_budget_mw], [method], [name],
                     caught=())[0][0]


def _failed_run(name: str, seed: int, budget_mw: float, error: Exception) -> RunMetrics:
    nan = float("nan")
    return RunMetrics(method=name, seed=seed,
                      p_sum_mw=budget_mw, eqa_accuracy=nan,
                      qom=nan, sum_rate_mbps=nan, connected_drones=0,
                      solver_iters=0, wall_ms=0.0,
                      failure=f"{type(error).__name__}: {error}")


def _run_grid(scenario: Scenario, methods, budgets_mw, num_seeds: int,
              backend) -> tuple[list[RunMetrics], dict]:
    """Stage each seed once, then run every budget on it (:func:`_run_seed`).
    A run that fails with a domain error (an infeasible pilot phase, a
    numerical failure, a GAE error) is a row of NaNs with its reason; any
    other exception propagates. Rows come out budget-major, then seed, then
    method; no stage is kept once its seed is done.
    """
    if num_seeds < 1:
        raise ConfigError(f"num_seeds: {num_seeds} is not an integer >= 1")
    names = _check_methods(methods)
    per_budget: list[list[RunMetrics]] = [[] for _ in budgets_mw]
    for i in range(num_seeds):
        stage = prepare_seed(scenario, scenario.seeds["run"] + i, backend)
        seed_rows = _run_seed(stage, scenario, budgets_mw, methods, names)
        for rows, budget_rows in zip(per_budget, seed_rows):
            rows.extend(budget_rows)
    rows = [row for budget_rows in per_budget for row in budget_rows]
    return rows, aggregate(rows)


def run_campaign(scenario: Scenario, methods, num_seeds: int,
                 backend=None) -> tuple[list[RunMetrics], dict]:
    """Run every method over the seed schedule seed_i = base + i.

    Each seed is staged once and shared by every method, so the method list's
    order cannot affect any result; a failed run is a row of NaNs.
    """
    return _run_grid(scenario, methods, [scenario.power_budget_mw], num_seeds, backend)


def run_sweep(scenario: Scenario, methods, budgets_mw, num_seeds: int,
              backend=None) -> tuple[list[RunMetrics], dict]:
    """run_campaign at every power budget (default grid 100..300 mW), each
    seed staged once for all budgets, rows in campaign-after-campaign order."""
    if not (budgets_mw := [float(budget_mw) for budget_mw in budgets_mw]):   # read once
        raise ConfigError("budgets_mw: no budget given")
    if not all(0.0 < budget_mw < math.inf for budget_mw in budgets_mw):
        raise ConfigError(f"budgets_mw: {budgets_mw} must all be finite and positive")
    if repeated := sorted({b for b in budgets_mw if budgets_mw.count(b) > 1}):
        raise ConfigError(f"budgets_mw: {repeated} given more than once")
    return _run_grid(scenario, methods, budgets_mw, num_seeds, backend)


DEFAULT_SWEEP_MW = (100.0, 150.0, 200.0, 250.0, 300.0)


def aggregate(rows) -> dict:
    """Per-(method, budget) means and standard errors of each metric. A failed
    row, or one with a NaN metric, is skipped in every metric."""
    metrics = ("eqa_accuracy", "qom", "sum_rate_mbps", "connected_drones")
    table = np.array([[getattr(row, metric) for row in rows] for metric in metrics], dtype=float)
    skipped = np.isnan(table).any(axis=0).tolist()
    groups: dict[tuple[str, float], list[int]] = {}
    for i, row in enumerate(rows):
        members = groups.setdefault((row.method, row.p_sum_mw), [])
        if not (row.failure or skipped[i]):
            members.append(i)
    summary = {}
    for key, members in groups.items():
        n = len(members)
        block = table.take(members, axis=1)   # contiguous: each row sums as a 1-D array
        means = block.mean(axis=1).tolist() if n else [math.nan] * len(metrics)
        ses = (block.std(axis=1, ddof=1) / np.sqrt(n)).tolist() if n > 1 else [0.0] * len(metrics)
        summary[key] = {metric: {"mean": mean, "stderr": se, "count": n}
                        for metric, mean, se in zip(metrics, means, ses)}
    return summary


def write_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(row.row())
