"""The benchmark's workloads: fixed inputs, one timed pass, output check.

Each workload owns its inputs (config, scenario seeds, methods, budgets)
rather than reading mcpa's defaults, so a program change cannot silently
change what is measured. ``--seed`` sets the order in which units run
(mcpa's per-run isolation makes every result independent of it) and, for
``staged_remote_gae``, which pinned pair of scenario seeds runs.

Output rule, applied to every pass: a unit fails if its row is NaN, its
allocation is infeasible (p >= 0, sum p <= P_sum (1 + 1e-9)), it differs
from the pinned reference (eqa_accuracy, connected_drones and p_sum_mw,
which is part of the row key, exactly; qom and sum_rate_mbps within 1e-6 relative; solver_iters and
wall_ms are not compared) or, for gae-test, the CLI exits nonzero or its
table differs by a single character.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
WORK_DIR = BENCH_DIR / "out"

METHODS = ("mcpa", "max_rate", "max_cov", "fairness", "greedy", "remember", "uniform")
SWEEP_MW = (100.0, 150.0, 200.0, 250.0, 300.0)
RTOL = 1e-6


def _load(config_name: str, **overrides) -> dict:
    from mcpa.config import load_config
    config = load_config(ROOT / "configs" / config_name)
    for path, value in overrides.items():
        section, _, key = path.rpartition("__")
        (config.setdefault(section, {}) if section else config)[key] = value
    return config


def _row_failure(row, expected: dict) -> str | None:
    """Why one RunMetrics row fails the rule above, or None if it passes."""
    values = (row.eqa_accuracy, row.qom, row.sum_rate_mbps)
    if any(math.isnan(v) for v in values):
        return "NaN row"
    powers = row.power_mw
    if not powers or min(powers) < 0.0 or sum(powers) > row.p_sum_mw * (1.0 + 1e-9):
        return f"infeasible allocation {powers}"
    if row.eqa_accuracy != expected["eqa_accuracy"]:
        return f"eqa_accuracy {row.eqa_accuracy!r} != {expected['eqa_accuracy']!r}"
    if row.connected_drones != expected["connected_drones"]:
        return f"connected_drones {row.connected_drones} != {expected['connected_drones']}"
    for name in ("qom", "sum_rate_mbps"):
        got, want = getattr(row, name), expected[name]
        if abs(got - want) > RTOL * abs(want):
            return f"{name} {got!r} != {want!r} (rtol {RTOL})"
    return None


def row_record(row) -> dict:
    return {"eqa_accuracy": row.eqa_accuracy, "qom": row.qom,
            "sum_rate_mbps": row.sum_rate_mbps, "connected_drones": row.connected_drones}


class Check:
    """Tally of checked units: attempted, failed, the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def unit(self, key: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{key}: {reason}")

    def merge(self, other: "Check") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.extend(other.reasons[:10 - len(self.reasons)])

    def rows(self, rows, expected: dict, key_of) -> None:
        """Check campaign rows against the reference rows they should produce."""
        seen = set()
        for row in rows:
            key = key_of(row)
            if key not in expected or key in seen:
                self.unit(key, "unexpected or duplicate row")
                continue
            seen.add(key)
            self.unit(key, _row_failure(row, expected[key]))
        for key in expected.keys() - seen:
            self.unit(key, "row missing")


class Workload:
    """One workload: construction and ``with`` set it up, ``run_pass`` is
    what ``wall_s`` times, ``check`` grades a pass against the reference."""

    name = ""
    probe_config = ""        # config file the set-up probe parses
    probe_module = "mcpa"    # what the set-up probe imports
    probe_server = False     # the probe also waits for the fake server
    speed_probe = "numpy"    # which speed.PROBES entry scales its times

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        WORK_DIR.mkdir(exist_ok=True)

    @functools.cached_property
    def reference(self) -> dict:
        return json.loads((REFERENCE_DIR / f"{self.name}.json").read_text())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def identity_failures(self) -> list[str]:
        return []

    def server_stats(self) -> dict:
        return {}

    def shuffled(self, items) -> list:
        items = list(items)
        self.rng.shuffle(items)
        return items


class CitySweep(Workload):
    """run_sweep on city_desk as shipped: K=10, seven methods, 100..300 mW,
    scenario seeds 0-3 from seeds.run.

    The seeds are fixed because one max_rate solve that hits the inner cap
    makes a block of seeds 1.7x dearer than its neighbour. Seed 8 is the first
    whose pilot phase cannot finish at 100 mW (632 s of a 600 s budget).
    """

    name = "city_sweep"
    probe_config = "city_desk.json"
    SEEDS = 4

    def __init__(self, seed: int):
        super().__init__(seed)
        from mcpa.config import build_scenario
        self.scenario = build_scenario(_load("city_desk.json", seeds__run=0))
        self.methods = self.shuffled(METHODS)
        self.budgets = self.shuffled(SWEEP_MW)
        self.out = WORK_DIR / "city_sweep.csv"

    def describe(self) -> str:
        return (f"scenario seeds 0-{self.SEEDS - 1}, methods {','.join(self.methods)}, "
                f"budgets_mw {self.budgets}")

    def run_pass(self):
        from mcpa import harness
        rows, _ = harness.run_sweep(self.scenario, self.methods, self.budgets, self.SEEDS)
        harness.write_csv(rows, self.out)
        return rows

    @staticmethod
    def key(row) -> str:
        return f"{row.method}|{row.seed}|{row.p_sum_mw!r}"

    def check(self, rows) -> Check:
        check = Check()
        check.rows(rows, self.reference["rows"], self.key)
        return check

    def pinned(self, rows) -> dict:
        return {"rows": {self.key(row): row_record(row) for row in rows}}


class TownCampaign(Workload):
    """run_campaign on town at 200 mW: seeds 0-1 at K=10 and seed 0 at K=50.

    The scenario seeds are fixed because the MM solve time per town seed
    spans 0.03-11 s; ``--seed`` only reorders parts and methods.
    """

    name = "town_campaign"
    probe_config = "town.json"
    PARTS = ((10, 2), (50, 1))   # (K, number of seeds from seeds.run = 0)

    def __init__(self, seed: int):
        super().__init__(seed)
        from mcpa.config import build_scenario
        self.parts = [(k, n, build_scenario(_load("town.json", num_robots=k, seeds__run=0)))
                      for k, n in self.shuffled(self.PARTS)]
        self.methods = self.shuffled(METHODS)

    def describe(self) -> str:
        parts = ", ".join(f"K={k} x {n} seed(s)" for k, n, _ in self.parts)
        return f"{parts} from seed 0, 200 mW, methods {','.join(self.methods)}"

    def run_pass(self):
        from mcpa import harness
        out = []
        for k, num_seeds, scenario in self.parts:
            rows, _ = harness.run_campaign(scenario, self.methods, num_seeds)
            harness.write_csv(rows, WORK_DIR / f"town_campaign_K{k}.csv")
            out.append((k, rows))
        return out

    def check(self, parts) -> Check:
        check = Check()
        produced = {k: rows for k, rows in parts}
        for k, _ in self.PARTS:
            expected = {key: v for key, v in self.reference["rows"].items()
                        if key.startswith(f"K{k}|")}
            check.rows(produced.get(k, ()), expected, lambda row, k=k: self.key(k, row))
        return check

    @staticmethod
    def key(k: int, row) -> str:
        return f"K{k}|{row.method}|{row.seed}|{row.p_sum_mw!r}"

    def pinned(self, parts) -> dict:
        return {"rows": {self.key(k, row): row_record(row) for k, rows in parts for row in rows}}


class StagedRemoteGae(Workload):
    """``mcpa gae-test --backend remote`` on staged_k5 with 30 questions per
    robot against the fake chat server, one CLI call per scenario seed."""

    name = "staged_remote_gae"
    probe_config = "staged_k5.json"
    probe_module = "mcpa.cli"
    probe_server = True
    speed_probe = "memory"
    BLOCKS, SEEDS_PER_BLOCK = 8, 2
    QUESTIONS = 30

    def __init__(self, seed: int):
        super().__init__(seed)
        first = seed % self.BLOCKS * self.SEEDS_PER_BLOCK
        self.seeds = self.shuffled(range(first, first + self.SEEDS_PER_BLOCK))
        self.server = None
        self.calls = []

    def __enter__(self):
        from fake_chat import FakeChatProcess
        self.server = FakeChatProcess()
        try:
            for s in self.seeds:
                config = _load("staged_k5.json", gae__questions_per_robot=self.QUESTIONS,
                               remote__url=self.server.url, seeds__run=s)
                path = WORK_DIR / f"staged_remote_gae_seed{s}.json"
                path.write_text(json.dumps(config))
                out = WORK_DIR / f"staged_remote_gae_seed{s}.csv"
                self.calls.append((s, out, ["gae-test", "--config", str(path), "--backend",
                                            "remote", "--seeds", "1", "--out", str(out)]))
        except BaseException:
            self.server.close()
            raise
        return self

    def __exit__(self, *exc):
        self.server.close()

    def describe(self) -> str:
        return (f"scenario seeds {self.seeds}, {self.QUESTIONS} questions per robot, "
                f"fake server at {self.server.url}")

    def server_stats(self) -> dict:
        return self.server.stats()

    def run_pass(self):
        from mcpa import cli
        results = []
        for s, out, argv in self.calls:
            if out.exists():
                out.unlink()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            results.append((s, code, out.read_text() if out.exists() else None))
        return results

    def check(self, results) -> Check:
        check = Check()
        for s, code, table in results:
            if code != 0:
                reason = f"CLI exited {code}"
            elif table != self.reference["tables"][str(s)]:
                reason = f"GAE table differs: {table!r}"
            else:
                reason = None
            check.unit(f"seed {s}", reason)
        for s in set(self.seeds) - {s for s, _, _ in results}:
            check.unit(f"seed {s}", "seed missing")
        return check

    def pinned(self, results) -> dict:
        if any(code != 0 for _, code, _ in results):
            raise RuntimeError(f"gae-test failed while pinning: {results}")
        return {"tables": {str(s): table for s, _, table in results}}

    def identity_failures(self) -> list[str]:
        """GAE self-test identity through the remote path: with the memory
        equal to the dataset, every robot's exam scores exactly 1.0."""
        import numpy as np
        from mcpa.config import build_scenario
        from mcpa.gae import run_gae
        from mcpa.remote import RemoteBackend
        from mcpa.world import build_world
        scenario = build_scenario(_load("staged_k5.json"))
        backend = RemoteBackend(url=self.server.url, retries=1)
        failures = []
        for s in self.seeds:
            world = build_world(scenario, np.random.default_rng([scenario.seeds["placement"], s]))
            for k, dataset in enumerate(world.datasets):
                report = run_gae([dataset], dataset, scenario.pilot_ratio, 6, backend,
                                 seed=[scenario.seeds["pilot"], s, k])
                if report.scores[0] != 1.0:
                    failures.append(f"seed {s} robot {k}: score {report.scores[0]!r}")
        return failures


WORKLOADS = {w.name: w for w in (CitySweep, TownCampaign, StagedRemoteGae)}
