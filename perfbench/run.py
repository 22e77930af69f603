"""mcpa benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. mcpa is imported from ``src/`` as the
tier-1 suite does (the package need not be installed). Workloads and
metrics are declared in ``BENCHMARK.json``; ``perfbench/README.md`` says why.

``--trace 0`` times whole passes over the workload's fixed input until S
seconds have passed and reports the end-to-end metrics: ``wall_s`` (median
pass), ``setup_s`` (median of several fresh interpreters) and
``peak_rss_mb``. ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics, the baseline table and the tracing overhead.
Every pass, traced or not, is checked against the pinned reference. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import tomllib
import traceback
from collections import Counter
from pathlib import Path

from speed import Pass, probe, scale

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 9

BASELINE_ROWS = (("world build", "world.build_world"), ("prepare", "harness.prepare"),
                 ("allocate *", "harness.allocate."), ("scoring", "harness.score"),
                 ("run_gae", "gae.run_gae"), ("chat request", "remote.chat_completion"),
                 ("gae-test CLI call", "cli.main"))


def static_metrics() -> tuple[int, list[str]]:
    """Lines under src/mcpa and the runtime dependencies in pyproject.toml."""
    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "mcpa").rglob("*.py"))
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    deps = [re.match(r"[A-Za-z0-9_.-]+", d).group(0) for d in project.get("dependencies", [])]
    return lines, deps


def probe_setup(workload_cls) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to its finished set-up, as
    timed and at the reference speed of the workload's speed probe."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload_cls.probe_config,
            workload_cls.probe_module, "1" if workload_cls.probe_server else "0"]
    before = probe(workload_cls.speed_probe)
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    after = probe(workload_cls.speed_probe)
    return elapsed, scale(elapsed, workload_cls.speed_probe, (before, after))


def timed_pass(workload):
    """Run and check one pass. If mcpa raises, every unit of the pass fails
    and the run goes on, so the failure is counted rather than hidden."""
    timer = Pass(workload.speed_probe)
    try:
        with timer:
            out = workload.run_pass()
    except Exception as exc:
        traceback.print_exc()
        check = workload.check([])
        check.reasons.insert(0, f"pass raised {type(exc).__name__}: {exc}")
        return timer, check
    return timer, workload.check(out)


def untraced_run(workload, seconds: float, tally) -> list[Pass]:
    timers = []
    start = time.perf_counter()
    while True:
        timer, check = timed_pass(workload)
        timers.append(timer)
        tally.merge(check)
        if time.perf_counter() - start + timer.raw_s > seconds:
            return timers


def traced_run(workload, seconds: float, tally, tracer):
    """After one warm-up pass, alternate untraced and traced passes; returns
    both timer lists and the fake server's counters summed over the traced
    passes. Every pass is checked."""
    plain, traced, server = [], [], Counter()
    start = time.perf_counter()
    tally.merge(timed_pass(workload)[1])
    while True:
        timer, check = timed_pass(workload)
        plain.append(timer)
        tally.merge(check)
        before = workload.server_stats()
        with tracer:
            timer_traced, check = timed_pass(workload)
        traced.append(timer_traced)
        tally.merge(check)
        server.update({k: v - before[k] for k, v in workload.server_stats().items()})
        if time.perf_counter() - start + timer.raw_s + timer_traced.raw_s > seconds:
            return plain, traced, server


def layer_values(setup_tracer, tracer, passes: int, server: Counter, overhead: float) -> dict:
    from tracing import per_run_values
    values = per_run_values(setup_tracer, tracer, passes)
    chat_calls = tracer.calls["remote.chat_completion"]
    busy_s = server["busy_s"] / passes
    values["remote.request_bytes"] = server["request_bytes"] / passes
    values["remote.retries"] = (server["requests"] - chat_calls) / passes if server else 0
    values["remote.server_busy_s"] = busy_s
    values["remote.client_s"] = values.get("remote.chat_completion.self_s", 0.0) - busy_s
    values["trace.overhead_frac"] = overhead
    values["static.src_lines"], deps = static_metrics()
    values["static.runtime_deps"] = len(deps)
    return values


def print_layers(values: dict, spec: list[dict]) -> None:
    print("per-layer metrics (one set-up plus one pass):")
    for metric in spec:
        name = metric["name"]
        shown = "not reached" if name not in values else f"{values[name]:.6g}"
        print(f"  {name:<40} {shown:>14} {metric['unit']}")
    listed = {metric["name"] for metric in spec}
    for name in sorted(k for k in values if k.endswith(".ms_p90") and k not in listed):
        print(f"  {name:<40} {values[name]:>14.6g} ms")


def print_baseline(workload_name: str, tracer, passes: int) -> None:
    print(f"baseline rows for {workload_name} (per traced pass; ms per call):")
    print(f"  {'stage':<26} {'calls':>7} {'p50_ms':>10} {'total_ms':>11}")
    for label, key in BASELINE_ROWS:
        names = sorted(n for n in tracer.durations if n.startswith(key)) \
            if key.endswith(".") else [key]
        for name in names:
            samples = tracer.durations.get(name)
            if not samples:
                continue
            row = label.replace("*", name[len(key):]) if "*" in label else label
            print(f"  {row:<26} {len(samples) / passes:>7.0f} "
                  f"{1e3 * statistics.median(samples):>10.3f} "
                  f"{1e3 * sum(samples) / passes:>11.3f}")


def print_solver_findings(tracer, passes: int) -> None:
    if not tracer.converged_with_caps:
        print("solver: no solve reports 'converged' after an inner cap hit")
        return
    print("solver: solves that report 'converged' although inner solves hit max_inner:")
    for (name, hits, inner), count in sorted(tracer.converged_with_caps.items()):
        print(f"  {name}: {hits} of {inner} inner solves capped "
              f"(x{count / passes:g} per pass)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mcpa").is_dir() or not (ROOT / "configs").is_dir():
        print(f"perfbench: no mcpa sources under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    from tracing import Tracer
    from workloads import WORKLOADS, Check
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choose from {sorted(WORKLOADS)})")
    workload_cls = WORKLOADS[args.workload]

    if not args.trace:
        setups = [probe_setup(workload_cls) for _ in range(SETUP_PROBES)]
        setup_s = statistics.median(scaled for _, scaled in setups)
    setup_tracer, tally = Tracer(), Check()
    with contextlib.ExitStack() as stack:
        with setup_tracer if args.trace else contextlib.nullcontext():
            workload = stack.enter_context(workload_cls(args.seed))
        identity = workload.identity_failures()
        if args.trace:
            tracer = Tracer()
            plain, traced, server = traced_run(workload, args.seconds, tally, tracer)
        else:
            timers = untraced_run(workload, args.seconds, tally)
    correct = tally.failed == 0 and not identity

    print(f"workload {args.workload}, seed {args.seed}: {workload.describe()}")
    if args.trace:
        overhead = statistics.median(t.scaled_s for t in traced) \
            / statistics.median(t.scaled_s for t in plain) - 1.0
        values = layer_values(setup_tracer, tracer, len(traced), server, overhead)
        print(f"{len(traced)} traced and {len(plain)} untraced passes; "
              f"trace.overhead_frac = {overhead:.4f} ratio")
        print_layers(values, spec["per_layer"])
        print_baseline(args.workload, tracer, len(traced))
        print_solver_findings(tracer, len(traced))
        missing = sorted(setup_tracer.missing | tracer.missing)
        if missing:
            print("not traced (absent from the program): " + ", ".join(missing))
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        walls = [timer.scaled_s for timer in timers]
        values = {"wall_s": statistics.median(walls), "setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        lines, deps = static_metrics()
        samples = [p for timer in timers for p in timer.samples]
        print(f"  wall_s       {values['wall_s']:.4f} s    median of {len(walls)} passes "
              f"({min(walls):.4f}-{max(walls):.4f}) at the reference speed")
        print(f"  raw wall     {statistics.median(t.raw_s for t in timers):.4f} s    "
              f"as timed; {workload.speed_probe} probe {statistics.median(samples) * 1e3:.3f} "
              f"ms ({len(samples)} samples)")
        print(f"  setup_s      {setup_s:.4f} s    median of {SETUP_PROBES} fresh interpreters "
              f"at the reference speed (as timed {statistics.median(r for r, _ in setups):.4f})")
        print(f"  peak_rss_mb  {values['peak_rss_mb']:.1f} MiB  benchmark process")
        print(f"  failed_frac  {tally.failed / tally.attempted:g} ratio  "
              f"({tally.failed} of {tally.attempted} units)")
        print(f"  src_lines    {lines}  (src/mcpa, not gated)")
        print(f"  runtime_deps {len(deps)}  ({', '.join(deps)}; not gated)")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for reason in tally.reasons + identity:
        print(f"FAILED {reason}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
