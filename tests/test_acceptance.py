"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The comparative-trend
criteria (8, 9) run the shipped city-scale experiment config over its fixed
seed schedule, so their outcomes are deterministic.
"""
import csv
import subprocess
import sys
import time
from itertools import product

import numpy as np

from conftest import (BUDGET_W, CONFIG_DIR, NOISE_W, REPO_ROOT, cli_env,
                      orthogonal_state, random_feasible, random_params, random_state,
                      random_store)
from mcpa.config import build_scenario, load_config
from mcpa.gae import SyntheticBackend, sample_pilot, run_gae
from mcpa.harness import METHODS, run_campaign, run_sweep
from mcpa.qom import qom_objective
from mcpa.solver import SurrogateContext, solve_mcpa, waterfill
from mcpa.world import build_world
from reference_solver import surrogate_gradient, surrogate_total, surrogate_value

CITY = load_config(CONFIG_DIR / "city_desk.json")
STAGED = load_config(CONFIG_DIR / "staged_k5.json")
BASELINES = [m for m in METHODS if m != "mcpa"]


def report(criterion: int, description: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {criterion:02d}] {status}: {description}{suffix}")
    assert passed, f"criterion {criterion} failed: {description}{suffix}"


def instance_grid(count=200):
    """Random instances over K x N for the surrogate criteria."""
    rng = np.random.default_rng(2024)
    combos = list(product((2, 5, 10), (4, 16, 256)))
    instances = []
    for i in range(count):
        k, n = combos[i % len(combos)]
        state = random_state(rng, num_robots=k, num_antennas=n)
        params = random_params(rng, num_robots=k)
        anchor = random_feasible(rng, k)
        instances.append((SurrogateContext(anchor=anchor, weights=params,
                                           state=state, noise_power_w=NOISE_W), rng))
    return instances


def true_objective(ctx, p):
    return qom_objective(ctx.weights, ctx.state, p, NOISE_W)


def test_criterion_01_local_equivalence():
    started = time.perf_counter()
    worst_value, worst_grad = 0.0, 0.0
    for ctx, rng in instance_grid(200):
        p_star = ctx.anchor
        theta = true_objective(ctx, p_star)
        s_hat = surrogate_total(ctx, p_star)
        worst_value = max(worst_value, abs(s_hat - theta) / (1.0 + abs(theta)))
        step = 1e-6 * BUDGET_W
        numeric = np.zeros(p_star.size)
        for m in range(p_star.size):
            up, down = p_star.copy(), p_star.copy()
            up[m] += step
            down[m] -= step
            numeric[m] = (true_objective(ctx, up) - true_objective(ctx, down)) / (2 * step)
        analytic = surrogate_gradient(ctx, p_star)
        worst_grad = max(worst_grad,
                         np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric))
    elapsed = time.perf_counter() - started
    report(1, "surrogate equals objective and gradient at the anchor",
           worst_value <= 1e-12 and worst_grad <= 1e-4 and elapsed < 10.0,
           f"value err {worst_value:.2e}, grad err {worst_grad:.2e}, {elapsed:.1f}s")


def test_criterion_02_minorization_and_concavity():
    worst_bound, worst_concavity = -np.inf, -np.inf
    for ctx, rng in instance_grid(200):
        k = ctx.num_robots
        for _ in range(50):
            p = random_feasible(rng, k)
            q = random_feasible(rng, k)
            for idx in range(k):
                interf = ctx.coupling_offdiag[idx] @ p * NOISE_W
                theta = ctx.weights[idx] * np.log2(
                    1.0 + ctx.state.gains[idx] * p[idx] / (interf + NOISE_W))
                worst_bound = max(worst_bound, surrogate_value(ctx, p, idx) - theta)
            gap = 0.5 * (surrogate_total(ctx, p) + surrogate_total(ctx, q)) \
                - surrogate_total(ctx, 0.5 * (p + q))
            worst_concavity = max(worst_concavity, gap)
    report(2, "surrogate minorizes the objective and is midpoint concave",
           worst_bound <= 1e-12 and worst_concavity <= 1e-12,
           f"bound slack {worst_bound:.2e}, concavity slack {worst_concavity:.2e}")


def test_criterion_03_mm_ascent_and_convergence():
    converged = 0
    ascent_ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        state = random_state(rng, num_robots=10, num_antennas=256,
                             d_range=(2000.0, 5000.0))
        params = random_params(rng, 10, zero_fraction=0.3)
        trace = solve_mcpa(params, state, BUDGET_W, NOISE_W)
        objs = np.array([obj for _, obj, _ in trace.iterates])
        if not np.all(np.diff(objs) >= -1e-10 * (1.0 + np.abs(objs[:-1]))):
            ascent_ok = False
        converged += trace.stop_reason == "converged"
    report(3, "MM traces ascend and converge under default tolerances",
           ascent_ok and converged >= 95,
           f"{converged}/100 converged")


def test_criterion_04_waterfill_consistency():
    rng = np.random.default_rng(404)
    sca_gap = 0.0
    for _ in range(5):
        gains = rng.uniform(1e-10, 2e-8, 10)
        state = orthogonal_state(gains)
        params = random_params(rng, 10)
        trace = solve_mcpa(params, state, BUDGET_W, NOISE_W)
        reference, _ = waterfill(params, gains, NOISE_W, BUDGET_W)
        sca_gap = max(sca_gap, np.max(np.abs(trace.final - reference)))

    # budget tightness + KKT on random instances
    tight_ok, kkt_ok = True, True
    for _ in range(20):
        lam = rng.uniform(0.1, 1.0, 10)
        lam[rng.integers(10)] = 0.0
        gains = rng.uniform(1e-13, 1e-11, 10)
        result, nu = waterfill(lam, gains, NOISE_W, BUDGET_W)
        p, floors = result, NOISE_W / gains
        tight_ok &= abs(p.sum() - BUDGET_W) <= 1e-9 * BUDGET_W
        active = p > 0
        kkt_ok &= bool(np.all(np.abs(nu * lam[active] - floors[active] - p[active])
                              <= 1e-9 * BUDGET_W))
        kkt_ok &= bool(np.all(nu * lam[~active] <= floors[~active] + 1e-9 * BUDGET_W))

    # dense grid oracle over [0, (P_sum + sum floors) / min lambda]
    lam = rng.uniform(0.8, 1.0, 10)
    gains = rng.uniform(1e-6, 1e-5, 10)
    result, _ = waterfill(lam, gains, NOISE_W, BUDGET_W)
    floors = NOISE_W / gains
    hi = (BUDGET_W + floors.sum()) / lam.min()
    grid = np.linspace(0.0, hi, 1_000_000)
    spent = np.maximum(0.0, grid[:, None] * lam[None, :] - floors[None, :]).sum(axis=1)
    oracle = np.maximum(0.0, grid[np.argmin(np.abs(spent - BUDGET_W))] * lam - floors)
    grid_gap = float(np.max(np.abs(result - oracle)))

    report(4, "SCA matches water-filling; tightness, KKT and grid oracle hold",
           sca_gap <= 1e-3 * BUDGET_W and tight_ok and kkt_ok
           and grid_gap <= 1e-6 * BUDGET_W,
           f"sca gap {sca_gap:.2e}, grid gap {grid_gap:.2e}")


def test_criterion_05_zero_value_shutoff():
    rng = np.random.default_rng(505)
    wf_exact, sca_small = True, 0.0
    for _ in range(20):
        state = random_state(rng, num_robots=8, num_antennas=64,
                             d_range=(2000.0, 5000.0))
        gae = rng.uniform(0.0, 0.9, 8)
        dead = rng.choice(8, size=3, replace=False)
        gae[dead] = 1.0
        params = random_params(rng, 8)  # replaced below with exact scores
        from mcpa.qom import DatasetMeta, qom_weights
        params = qom_weights(gae, DatasetMeta.uniform(8), 500.0, 1e7)
        result, _ = waterfill(params, state.gains, NOISE_W, BUDGET_W)
        wf_exact &= bool(np.all(result[dead] == 0.0))
        trace = solve_mcpa(params, state, BUDGET_W, NOISE_W)
        sca_small = max(sca_small, float(trace.final[dead].max()))
    report(5, "perfect-score robots get exactly zero (waterfill) / <=1e-9 P (SCA)",
           wf_exact and sca_small <= 1e-9 * BUDGET_W,
           f"max SCA dead power {sca_small:.2e} W")


def test_criterion_06_self_test_identity():
    backend = SyntheticBackend()
    rng = np.random.default_rng(606)
    failures = 0
    for trial in range(1000):
        memory = random_store(rng, num_items=int(rng.integers(5, 60)),
                              num_tags=int(rng.integers(2, 12)))
        ratio = float(rng.uniform(0.05, 1.0))
        pilot = sample_pilot(memory, ratio, trial)
        _, scores = backend.run_exams([pilot], int(rng.integers(1, 20)), [trial],
                                      backend.prepare_memory(memory))
        if scores[0] != 1.0:
            failures += 1
    report(6, "exams generated from a memory score exactly 1.0 against it",
           failures == 0, f"{failures}/1000 failures")


def test_criterion_07_staged_gae_ordering():
    scenario = build_scenario(STAGED)
    backend = SyntheticBackend()
    hits = 0
    for seed in range(100):
        world = build_world(scenario, np.random.default_rng(
            [scenario.seeds["placement"], seed]))
        rep = run_gae(world.datasets, world.base_memory, scenario.pilot_ratio,
                      scenario.questions_per_robot, backend,
                      seed=[scenario.seeds["pilot"], seed])
        g = rep.scores
        if g[0] > g[1] > g[2] > g[3] and g[4] >= g[:4].max():
            hits += 1
    report(7, "staged scenario orders GAE scores by novelty",
           hits >= 95, f"{hits}/100 seeds ordered")


def test_criterion_08_comparative_trends():
    started = time.perf_counter()
    scenario = build_scenario(CITY)
    rows, summary = run_campaign(scenario, list(METHODS), 50)
    elapsed = time.perf_counter() - started
    stats = {m: summary[(m, 200.0)] for m in METHODS}
    mcpa_acc = stats["mcpa"]["eqa_accuracy"]["mean"]
    margins = {m: mcpa_acc - stats[m]["eqa_accuracy"]["mean"] for m in BASELINES}
    acc_ok = all(margin >= 0.02 for margin in margins.values())
    top_rate = max(METHODS, key=lambda m: stats[m]["sum_rate_mbps"]["mean"])
    top_drones = max(METHODS, key=lambda m: stats[m]["connected_drones"]["mean"])
    report(8, "MCPA leads accuracy by >=2 points; MaxRate top rate; MaxCov top drones",
           acc_ok and top_rate == "max_rate" and top_drones == "max_cov"
           and elapsed < 300.0,
           f"min margin {100 * min(margins.values()):.1f} pts vs "
           f"{min(margins, key=margins.get)}, rate leader {top_rate}, "
           f"drone leader {top_drones}, {elapsed:.0f}s")


def test_criterion_09_budget_sweep_trends():
    scenario = build_scenario(CITY)
    budgets = [100.0, 150.0, 200.0, 250.0, 300.0]
    rows, summary = run_sweep(scenario, list(METHODS), budgets, 50)

    def series(method, metric):
        means = np.array([summary[(method, b)][metric]["mean"] for b in budgets])
        errs = np.array([summary[(method, b)][metric]["stderr"] for b in budgets])
        return means, errs

    def nearly_monotone(means, errs):
        diffs = np.diff(means)
        bad = np.nonzero(diffs < 0)[0]
        if bad.size == 0:
            return True
        if bad.size > 1:
            return False
        i = bad[0]
        return abs(diffs[i]) <= max(errs[i], errs[i + 1])

    acc, acc_err = series("mcpa", "eqa_accuracy")
    qom, qom_err = series("mcpa", "qom")
    mono_ok = nearly_monotone(acc, acc_err) and nearly_monotone(qom, qom_err)
    dominance = all(
        summary[("mcpa", b)]["eqa_accuracy"]["mean"]
        >= summary[(m, b)]["eqa_accuracy"]["mean"]
        for b in budgets for m in BASELINES)
    report(9, "MCPA accuracy/QoM rise with the budget and dominate baselines",
           mono_ok and dominance,
           "acc " + "/".join(f"{a:.3f}" for a in acc))


def strip_wall_ms(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_ms")
    return [tuple(v for i, v in enumerate(row) if i != drop) for row in rows]


def test_criterion_10_cli_determinism(tmp_path):
    args = [sys.executable, "-m", "mcpa.cli", "simulate",
            "--config", str(CONFIG_DIR / "city_desk.json"),
            "--seeds", "3", "--methods", "mcpa,max_cov,remember"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for path in (first, second):
        result = subprocess.run(args + ["--out", str(path)], cwd=REPO_ROOT,
                                capture_output=True, text=True, env=cli_env())
        assert result.returncode == 0, result.stderr
    identical = strip_wall_ms(first) == strip_wall_ms(second)
    report(10, "repeated CLI runs emit byte-identical CSV (wall_ms aside)",
           identical)
