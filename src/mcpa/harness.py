"""Seeded Monte-Carlo experiment harness: runs, campaigns, sweeps, CSV.

One run draws a world and a channel realization, scores memories with the
GAE pipeline, allocates power with the requested method, materializes the
uploads and grades the ground-truth question set with the synthetic oracle.
Runs are isolated: each seed is staged once (:func:`prepare_seed`), and
every method and power budget of that seed sees the same world, channels
and GAE scores; only the pilot overhead and the QoM weights depend on the
budget.
"""
from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

import numpy as np

from . import baselines
from .channel import ChannelState, RobotGeometry, draw_channels, sinr_vector
from .config import Scenario
from .gae import GaeError, MemoryIndex, SyntheticBackend, run_gae
from .qom import (PilotPhaseInfeasible, PowerVector, QomParams,
                  frames_uploaded, pilot_overhead, qom_objective, qom_weights)
from .solver import solve_mcpa
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

METHODS = ("mcpa",) + baselines.BASELINE_KINDS

CSV_COLUMNS = ("method", "seed", "p_sum_mw", "eqa_accuracy", "qom",
               "sum_rate_mbps", "connected_drones", "solver_iters", "wall_ms")


@dataclass(frozen=True)
class ExternalWeights:
    """Externally supplied per-robot value weights (e.g. a semantic-similarity
    scorer) run through the same MM machinery as the native allocator."""

    weights: tuple
    name: str = "external"


@dataclass(frozen=True)
class RunMetrics:
    """Everything one (scenario, method, seed) run reports.

    ``power_mw`` keeps the allocation behind the metrics; it is not part of
    the CSV schema but lets callers re-derive qom / rates exactly. A failed
    run is a row of NaNs whose ``failure`` says why (also not a CSV column).
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

    def row(self) -> list:
        return [self.method, self.seed, repr(self.p_sum_mw), repr(self.eqa_accuracy),
                repr(self.qom), repr(self.sum_rate_mbps), self.connected_drones,
                self.solver_iters, f"{self.wall_ms:.3f}"]


def _method_name(method) -> str:
    return getattr(method, "name", method)


def _check_methods(methods) -> None:
    """Raise, before anything is staged, on a method that is neither a name
    in :data:`METHODS` nor an :class:`ExternalWeights`."""
    for method in methods:
        if not isinstance(method, ExternalWeights) and method not in METHODS:
            raise ValueError(f"unknown method {method!r} (choose from {METHODS})")


def _default_cov_threshold(scenario: Scenario, effective_time_s: float) -> float:
    """Rate that uploads just over half a dataset within the effective time.

    The margin compensates the zero-interference sizing so admitted robots
    actually cross the more-than-half mark once interference is charged.
    """
    half_bits = 0.5 * (1.0 + scenario.coverage_margin) \
        * scenario.dataset.item_volume_bits[0] * scenario.dataset.num_items[0]
    return half_bits / effective_time_s


@dataclass(frozen=True)
class SeedContext:
    """Budget-independent stage of one seed, shared by every method and budget.

    ``base_answers[q]`` says whether the base memory answers world question
    ``q``; ``first_frames[q, k]`` is the index of robot ``k``'s first frame
    that answers it (``len`` of its dataset if none does). Uploads are
    prefixes of each robot's frames, so grading needs nothing else.
    """

    seed: int
    world: WorldInstance
    state: ChannelState
    gae_scores: np.ndarray
    base_answers: np.ndarray
    first_frames: np.ndarray

    def accuracy_with(self, frame_counts) -> float:
        """Ground-truth accuracy of the base memory joined with the first
        ``frame_counts[k]`` frames of every robot ``k``, as the synthetic
        oracle grades it."""
        uploaded = np.asarray(frame_counts)[None, :] > self.first_frames
        answered = self.base_answers | uploaded.any(axis=1)
        return int(answered.sum()) / len(answered)

    @property
    def base_accuracy(self) -> float:
        """Accuracy of the base memory alone."""
        return self.accuracy_with(np.zeros(len(self.world.datasets), dtype=int))


def prepare_seed(scenario: Scenario, seed: int, backend=None) -> SeedContext:
    """Stage one seed: build the world, draw the channel, run the GAE exams
    and tabulate which frames answer each world question."""
    backend = backend or SyntheticBackend()
    world = build_world(scenario, np.random.default_rng(
        [scenario.seeds["placement"], seed]))

    rng_geom = np.random.default_rng([scenario.seeds["channel"], seed, 0])
    distances = rng_geom.uniform(scenario.distance_min_m, scenario.distance_max_m,
                                 size=scenario.num_robots)
    geometry = RobotGeometry(distance_m=distances,
                             server_height_m=scenario.server_height_m)
    state = draw_channels(scenario.radio, geometry,
                          seed=[scenario.seeds["channel"], seed, 1])

    report = run_gae(world.datasets, world.base_memory, scenario.pilot_ratio,
                     scenario.questions_per_robot, backend,
                     seed=[scenario.seeds["pilot"], seed])

    indexes = [MemoryIndex(frames) for frames in (world.base_memory, *world.datasets)]
    first = np.array([[index.first_answering_frame(q) for index in indexes]
                      for q in world.questions])
    return SeedContext(seed=seed, world=world, state=state, gae_scores=report.scores,
                       base_answers=first[:, 0] < len(world.base_memory),
                       first_frames=first[:, 1:])


@dataclass(frozen=True)
class _RunContext:
    """A staged seed at one power budget; ``params`` carry T minus its dT."""

    stage: SeedContext
    power_w: float
    params: QomParams


def _at_budget(stage: SeedContext, scenario: Scenario, power_w: float) -> _RunContext:
    """Pilot overhead and QoM weights at ``power_w``; raises
    :class:`PilotPhaseInfeasible` when the pilot phase overruns the time budget."""
    delta_t = pilot_overhead(stage.state, scenario.dataset, scenario.radio, power_w,
                             time_budget_s=scenario.time_budget_s)
    params = qom_weights(stage.gae_scores, scenario.dataset,
                         scenario.time_budget_s - delta_t, scenario.radio.bandwidth_hz)
    return _RunContext(stage=stage, power_w=power_w, params=params)


def _allocate(ctx: _RunContext, scenario: Scenario, method) -> tuple[PowerVector, int]:
    """The allocation of a checked method (see :func:`_check_methods`) and its
    MM outer iterations, 0 for the fixed rules. mcpa, max_rate and external
    weights are the same MM solve with different weights."""
    state, budget = ctx.stage.state, ctx.power_w
    effective_time_s = ctx.params.effective_time_s
    noise = scenario.radio.noise_power_w
    params = None
    if isinstance(method, ExternalWeights):
        w = np.asarray(method.weights, dtype=float)
        params = QomParams(weights=w, effective_time_s=effective_time_s,
                           gae_scores=np.where(w > 0.0, 0.0, 1.0))
    elif method == "mcpa":
        params = ctx.params
    elif method == "max_rate":
        params = baselines.unit_rate_params(state.num_robots)
    if params is not None:
        trace = solve_mcpa(params, state, budget, noise, scenario.solver)
        return trace.final, trace.outer_iterations
    if method == "max_cov":
        return baselines.allocate_max_cov(
            state, budget, noise, _default_cov_threshold(scenario, effective_time_s),
            scenario.radio.bandwidth_hz), 0
    if method == "fairness":
        return baselines.allocate_fairness(state, budget, noise), 0
    if method == "greedy":
        return baselines.allocate_greedy(
            state, ctx.params.gae_scores, scenario.dataset, budget, noise,
            effective_time_s, scenario.radio.bandwidth_hz), 0
    if method == "remember":
        return baselines.allocate_remember(state.num_robots, budget), 0
    return baselines.allocate_uniform(state.num_robots, budget), 0


def _score_allocation(ctx: _RunContext, scenario: Scenario,
                      allocation: PowerVector) -> tuple[float, float, float, int]:
    noise = scenario.radio.noise_power_w
    bandwidth = scenario.radio.bandwidth_hz
    meta = scenario.dataset
    stage = ctx.stage

    # math.floor raises on NaN, so a broken allocation becomes a failed row
    frames = np.array([math.floor(f) for f in frames_uploaded(
        stage.state, allocation, meta, noise, ctx.params.effective_time_s, bandwidth)])
    accuracy = stage.accuracy_with(frames)

    qom = qom_objective(ctx.params, stage.state, allocation, noise)
    rates = bandwidth * np.log2(1.0 + sinr_vector(stage.state, allocation.powers, noise))
    connected = int(np.sum(frames / meta.num_items > 0.5))
    return accuracy, qom, float(rates.sum() / 1e6), connected


def run_method(stage: SeedContext, scenario: Scenario, method) -> RunMetrics:
    """Run one method, a name in :data:`METHODS` or an :class:`ExternalWeights`,
    on a staged seed at the scenario's power budget."""
    _check_methods([method])
    ctx = _at_budget(stage, scenario, scenario.power_budget_w)
    return _run_with_context(ctx, scenario, method)


def _run_with_context(ctx: _RunContext, scenario: Scenario, method) -> RunMetrics:
    started = time.perf_counter()
    allocation, iters = _allocate(ctx, scenario, method)
    accuracy, qom, sum_rate, connected = _score_allocation(ctx, scenario, allocation)
    wall_ms = (time.perf_counter() - started) * 1e3
    return RunMetrics(
        method=_method_name(method),
        seed=ctx.stage.seed,
        p_sum_mw=ctx.power_w * 1e3,
        eqa_accuracy=accuracy,
        qom=qom,
        sum_rate_mbps=sum_rate,
        connected_drones=connected,
        solver_iters=iters,
        wall_ms=wall_ms,
        power_mw=tuple(float(p) * 1e3 for p in allocation.powers),
    )


def _failed_run(method, seed: int, power_w: float, error: Exception) -> RunMetrics:
    nan = float("nan")
    return RunMetrics(method=_method_name(method), seed=seed,
                      p_sum_mw=power_w * 1e3, eqa_accuracy=nan,
                      qom=nan, sum_rate_mbps=nan, connected_drones=0,
                      solver_iters=0, wall_ms=0.0,
                      failure=f"{type(error).__name__}: {error}")


def _run_grid(scenario: Scenario, methods, budgets_w, num_seeds: int,
              backend) -> tuple[list[RunMetrics], dict]:
    """Stage each seed once, then run every budget and method on it. A run
    that fails with a domain error (an infeasible pilot phase, a numerical
    failure, a GAE error) is a row of NaNs with its reason; any other
    exception propagates. Rows come out budget-major, then seed, then method;
    no stage is kept once its seed is done.
    """
    if num_seeds < 1:
        raise ValueError("num_seeds must be >= 1")
    _check_methods(methods)
    per_budget: list[list[RunMetrics]] = [[] for _ in budgets_w]
    for i in range(num_seeds):
        stage = prepare_seed(scenario, scenario.seeds["run"] + i, backend)
        for rows, power_w in zip(per_budget, budgets_w):
            try:
                ctx = _at_budget(stage, scenario, power_w)
            except PilotPhaseInfeasible as exc:
                rows.extend(_failed_run(method, stage.seed, power_w, exc) for method in methods)
                continue
            for method in methods:
                try:
                    rows.append(_run_with_context(ctx, scenario, method))
                except (ValueError, ArithmeticError, GaeError) as exc:
                    rows.append(_failed_run(method, stage.seed, power_w, exc))
    rows = [row for budget_rows in per_budget for row in budget_rows]
    return rows, aggregate(rows)


def run_campaign(scenario: Scenario, methods, num_seeds: int,
                 backend=None) -> tuple[list[RunMetrics], dict]:
    """Run every method over the seed schedule seed_i = base + i.

    Each seed is staged once and shared by every method, so the method list's
    order cannot affect any result; a failed run is a row of NaNs.
    """
    return _run_grid(scenario, methods, [scenario.power_budget_w], num_seeds, backend)


def run_sweep(scenario: Scenario, methods, budgets_mw, num_seeds: int,
              backend=None) -> tuple[list[RunMetrics], dict]:
    """run_campaign at every power budget (default grid 100..300 mW), each
    seed staged once for all budgets, rows in campaign-after-campaign order."""
    if any(budget_mw <= 0 for budget_mw in budgets_mw):
        raise ValueError("sweep budgets must be strictly positive")
    return _run_grid(scenario, methods, [budget_mw / 1e3 for budget_mw in budgets_mw],
                     num_seeds, backend)


DEFAULT_SWEEP_MW = (100.0, 150.0, 200.0, 250.0, 300.0)


def aggregate(rows) -> dict:
    """Per-(method, budget) means and standard errors, NaN rows skipped."""
    groups: dict[tuple[str, float], list[RunMetrics]] = {}
    for row in rows:
        groups.setdefault((row.method, row.p_sum_mw), []).append(row)
    summary = {}
    for key, members in groups.items():
        stats = {}
        for metric in ("eqa_accuracy", "qom", "sum_rate_mbps", "connected_drones"):
            values = np.array([getattr(m, metric) for m in members], dtype=float)
            values = values[~np.isnan(values)]
            mean = float(values.mean()) if values.size else float("nan")
            se = float(values.std(ddof=1) / np.sqrt(values.size)) \
                if values.size > 1 else 0.0
            stats[metric] = {"mean": mean, "stderr": se, "count": int(values.size)}
        summary[key] = stats
    return summary


def write_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(row.row())
