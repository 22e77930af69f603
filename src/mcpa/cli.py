"""Command-line entry point: solve / simulate / sweep / gae-test."""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .config import ConfigError, build_scenario, load_config
from .gae import GaeError, SyntheticBackend
from .harness import (DEFAULT_SWEEP_MW, METHODS, prepare_seed, run_campaign,
                      run_method, run_sweep, write_csv)
from .qom import PilotPhaseInfeasible
from .remote import RemoteBackend


def _load_scenario(args):
    config = load_config(args.config) if args.config else {}
    if args.backend:
        config.setdefault("gae", {})["backend"] = args.backend
    return build_scenario(config)


def _backend_for(scenario):
    if scenario.backend == "remote":
        return RemoteBackend.from_settings(scenario.remote)
    return SyntheticBackend()


def _methods(args):
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"methods: unknown method {m!r} (choose from {METHODS})")
    return methods


def _cmd_solve(args) -> int:
    scenario = _load_scenario(args)
    stage = prepare_seed(scenario, args.seed, _backend_for(scenario))
    metrics = run_method(stage, scenario, args.method)
    print(f"method={args.method} seed={args.seed} outer_iterations={metrics.solver_iters}")
    print(f"gae_scores={np.array2string(stage.gae_scores, precision=4)}")
    print("power_mw=" + np.array2string(np.array(metrics.power_mw), precision=6,
                                        floatmode="fixed"))
    print(f"qom={metrics.qom!r}")
    return 0


def _cmd_simulate(args) -> int:
    scenario = _load_scenario(args)
    return _report(args, *run_campaign(scenario, _methods(args), args.seeds,
                                       _backend_for(scenario)))


def _cmd_sweep(args) -> int:
    scenario = _load_scenario(args)
    budgets = [float(b) for b in args.budgets_mw.split(",")] if args.budgets_mw \
        else list(DEFAULT_SWEEP_MW)
    return _report(args, *run_sweep(scenario, _methods(args), budgets, args.seeds,
                                    _backend_for(scenario)))


def _cmd_gae_test(args) -> int:
    """Staged-scenario table: per-robot GAE score and merged-memory accuracy."""
    scenario = _load_scenario(args)
    backend = _backend_for(scenario)
    k = scenario.num_robots
    scores = np.zeros((args.seeds, k))
    merged_acc = np.zeros((args.seeds, k))
    for i in range(args.seeds):
        stage = prepare_seed(scenario, scenario.seeds["run"] + i, backend)
        scores[i] = stage.gae_scores
        # robot k's whole dataset uploaded, nothing from the others
        full = np.diag([len(dataset) for dataset in stage.world.datasets])
        merged_acc[i] = [stage.accuracy_with(counts) for counts in full]
    print(f"{'robot':>5}  {'GAE_k':>8}  {'accuracy(M0+Mk)':>16}")
    for robot in range(k):
        print(f"{robot + 1:>5}  {scores[:, robot].mean():>8.4f}  "
              f"{merged_acc[:, robot].mean():>16.4f}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("robot,gae_mean,accuracy_merged_mean\n")
            for robot in range(k):
                fh.write(f"{robot + 1},{float(scores[:, robot].mean())!r},"
                         f"{float(merged_acc[:, robot].mean())!r}\n")
        print(f"wrote {args.out}")
    return 0


def _report(args, rows, summary) -> int:
    write_csv(rows, args.out)
    _print_summary(summary)
    print(f"wrote {len(rows)} rows to {args.out}")
    failed = sum(1 for row in rows if row.failure)
    if failed:
        print(f"failed runs: {failed} of {len(rows)}", file=sys.stderr)
    return 1 if failed and failed == len(rows) else 0


def _print_summary(summary) -> None:
    print(f"{'method':<10} {'P_mW':>6} {'accuracy':>9} {'qom':>8} "
          f"{'Mbps':>8} {'#drones':>8}")
    for (method, p_mw), stats in sorted(summary.items()):
        print(f"{method:<10} {p_mw:>6.0f} "
              f"{stats['eqa_accuracy']['mean']:>9.4f} "
              f"{stats['qom']['mean']:>8.4f} "
              f"{stats['sum_rate_mbps']['mean']:>8.2f} "
              f"{stats['connected_drones']['mean']:>8.2f}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcpa", description="Memory-centric power allocation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (defaults otherwise)")
        p.add_argument("--backend", choices=["synthetic", "remote"],
                       help="override the exam backend")

    p_solve = sub.add_parser("solve", help="one allocation from a config")
    common(p_solve)
    p_solve.add_argument("--method", default="mcpa", choices=METHODS)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.set_defaults(func=_cmd_solve)

    p_sim = sub.add_parser("simulate", help="seeded campaign -> CSV")
    common(p_sim)
    p_sim.add_argument("--seeds", type=int, default=50, help="number of runs")
    p_sim.add_argument("--methods", default=",".join(METHODS))
    p_sim.add_argument("--out", default="campaign.csv")
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="campaign per power budget -> CSV")
    common(p_sweep)
    p_sweep.add_argument("--seeds", type=int, default=50)
    p_sweep.add_argument("--methods", default=",".join(METHODS))
    p_sweep.add_argument("--budgets-mw", dest="budgets_mw",
                         help="comma list, default 100,150,200,250,300")
    p_sweep.add_argument("--out", default="sweep.csv")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_gae = sub.add_parser("gae-test", help="per-robot GAE / accuracy table")
    common(p_gae)
    p_gae.add_argument("--seeds", type=int, default=50)
    p_gae.add_argument("--out", help="optional CSV path")
    p_gae.set_defaults(func=_cmd_gae_test)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GaeError, PilotPhaseInfeasible, FileNotFoundError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
