"""Golden outputs of small runs, pinned so that a change that must not alter
results can be checked against them (``tests/test_golden.py``).

Run from the repository root to rewrite the files beside this script:

    PYTHONPATH=src python tests/golden/regenerate.py

Only a change meant to alter results regenerates them, and says so.

- ``campaign_city_desk.csv``: ``run_campaign`` on city_desk, 4 seeds x 7 methods
- ``sweep_city_desk.csv``: ``run_sweep`` on city_desk, 2 seeds x {100, 200} mW
- ``gae_test_staged_k5.txt`` / ``.csv``: the ``mcpa gae-test`` table and its
  ``--out`` file on staged_k5, 3 seeds
- ``gae_scores.json``: per seed, the GAE scores as ``float.hex`` and the
  SHA-256 of ``repr(report.exams)``, staged_k5 seeds 0-2 and city_desk 0-3
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from mcpa import cli
from mcpa.config import build_scenario, load_config
from mcpa.gae import SyntheticBackend, run_gae
from mcpa.harness import METHODS, run_campaign, run_sweep, write_csv
from mcpa.world import build_world

GOLDEN_DIR = Path(__file__).resolve().parent
CONFIG_DIR = GOLDEN_DIR.parent.parent / "configs"


def without_wall_ms(text: str) -> list[list[str]]:
    """CSV rows less the ``wall_ms`` column, the one column a golden file
    does not pin."""
    rows = list(csv.reader(io.StringIO(text)))
    if rows and "wall_ms" in rows[0]:
        drop = rows[0].index("wall_ms")
        rows = [row[:drop] + row[drop + 1:] for row in rows]
    return rows


def _csv(rows) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        write_csv(rows, path)
        return path.read_text()


def _gae_test(config: Path, seeds: int) -> tuple[str, str]:
    """Stdout table (without the ``wrote`` line) and ``--out`` file."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "gae.csv"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["gae-test", "--config", str(config), "--seeds", str(seeds),
                             "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"gae-test exited {code}")
        table = stdout.getvalue().replace(f"wrote {out}\n", "")
        return table, out.read_text()


def _gae_digests(config: Path, seeds) -> dict:
    scenario = build_scenario(load_config(config))
    digests = {}
    for seed in seeds:
        world = build_world(scenario, np.random.default_rng(
            [scenario.seeds["placement"], seed]))
        report = run_gae(world.datasets, world.base_memory, scenario.pilot_ratio,
                         scenario.questions_per_robot, SyntheticBackend(),
                         seed=[scenario.seeds["pilot"], seed])
        digests[str(seed)] = {
            "gae_scores": [float(s).hex() for s in report.scores],
            "exams_sha256": hashlib.sha256(repr(report.exams).encode()).hexdigest(),
        }
    return digests


def produce() -> dict[str, str]:
    """Every golden file's name and content, computed by this checkout."""
    city = build_scenario(load_config(CONFIG_DIR / "city_desk.json"))
    table, out = _gae_test(CONFIG_DIR / "staged_k5.json", 3)
    digests = {"staged_k5": _gae_digests(CONFIG_DIR / "staged_k5.json", range(3)),
               "city_desk": _gae_digests(CONFIG_DIR / "city_desk.json", range(4))}
    return {
        "campaign_city_desk.csv": _csv(run_campaign(city, METHODS, 4)[0]),
        "sweep_city_desk.csv": _csv(run_sweep(city, METHODS, [100.0, 200.0], 2)[0]),
        "gae_test_staged_k5.txt": table,
        "gae_test_staged_k5.csv": out,
        "gae_scores.json": json.dumps(digests, indent=1, sort_keys=True) + "\n",
    }


def main() -> int:
    for name, text in produce().items():
        (GOLDEN_DIR / name).write_text(text)
        print(f"wrote {GOLDEN_DIR / name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
