import csv
import json
import subprocess
import sys

import pytest

from conftest import CONFIG_DIR, REPO_ROOT, cli_env
from golden.regenerate import GOLDEN_DIR, without_wall_ms
from mcpa import cli
from mcpa.config import load_config
from mcpa.harness import CSV_COLUMNS


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "mcpa.cli", *args],
                          capture_output=True, text=True, cwd=REPO_ROOT, env=cli_env())


def test_solve_prints_power_vector():
    out = run_cli("solve", "--config", str(CONFIG_DIR / "city_desk.json"),
                  "--method", "mcpa", "--seed", "0")
    assert out.returncode == 0
    assert "power_mw=" in out.stdout
    assert "qom=" in out.stdout


def test_simulate_writes_pinned_csv(tmp_path):
    path = tmp_path / "campaign.csv"
    out = run_cli("simulate", "--config", str(CONFIG_DIR / "city_desk.json"),
                  "--seeds", "2", "--methods", "remember,uniform",
                  "--out", str(path))
    assert out.returncode == 0, out.stderr
    golden = without_wall_ms((GOLDEN_DIR / "campaign_city_desk.csv").read_text())
    pinned = [golden[0]] + [row for row in golden[1:]
                            if row[0] in ("remember", "uniform") and row[1] in ("0", "1")]
    assert pinned[0] == [c for c in CSV_COLUMNS if c != "wall_ms"]
    assert len(pinned) == 1 + 2 * 2
    assert without_wall_ms(path.read_text()) == pinned


def test_sweep_row_count(tmp_path):
    path = tmp_path / "sweep.csv"
    out = run_cli("sweep", "--config", str(CONFIG_DIR / "city_desk.json"),
                  "--seeds", "1", "--methods", "remember",
                  "--budgets-mw", "100,200", "--out", str(path))
    assert out.returncode == 0, out.stderr
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert {r["p_sum_mw"] for r in rows} == {"100.0", "200.0"}


def test_gae_test_emits_table(tmp_path):
    path = tmp_path / "gae.csv"
    out = run_cli("gae-test", "--config", str(CONFIG_DIR / "staged_k5.json"),
                  "--seeds", "3", "--out", str(path))
    assert out.returncode == 0, out.stderr
    assert "GAE_k" in out.stdout
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    scores = [float(r["gae_mean"]) for r in rows]
    assert scores[0] > scores[1] > scores[2] > scores[3]
    assert scores[4] >= max(scores[:4])


def test_failed_runs_are_counted_on_stderr(tmp_path, capsys):
    # city seed 8 cannot finish its pilot phase at 100 mW but can at 200 mW
    config = tmp_path / "seed8.json"
    config.write_text(json.dumps({**load_config(CONFIG_DIR / "city_desk.json"),
                                  "seeds": {"run": 8}}))
    path = tmp_path / "sweep.csv"
    args = ["--config", str(config), "--seeds", "1", "--methods", "remember,uniform",
            "--out", str(path)]
    assert cli.main(["sweep", "--budgets-mw", "100,200", *args]) == 0
    out = capsys.readouterr()
    assert out.err == "failed runs: 2 of 4\n"
    assert "failed runs" not in out.out
    with open(path) as fh:
        assert next(csv.reader(fh)) == list(CSV_COLUMNS)
    assert cli.main(["simulate", *args]) == 0
    assert capsys.readouterr().err == ""


def test_a_run_where_every_row_failed_exits_nonzero(tmp_path, capsys):
    # city seed 8 cannot finish its pilot phase at 100 mW
    config = tmp_path / "seed8.json"
    config.write_text(json.dumps({**load_config(CONFIG_DIR / "city_desk.json"),
                                  "seeds": {"run": 8}}))
    path = tmp_path / "sweep.csv"
    args = ["--config", str(config), "--seeds", "1", "--methods", "remember,uniform",
            "--out", str(path)]
    assert cli.main(["sweep", "--budgets-mw", "100", *args]) == 1
    assert capsys.readouterr().err == "failed runs: 2 of 2\n"
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS) and len(rows) == 3
    config.write_text(json.dumps({**load_config(CONFIG_DIR / "city_desk.json"),
                                  "seeds": {"run": 8}, "budgets": {"power_sum_mw": 100}}))
    path.unlink()
    assert cli.main(["simulate", *args]) == 1
    assert capsys.readouterr().err == "failed runs: 2 of 2\n"
    assert path.exists()


def test_bad_config_yields_machine_readable_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"radio": {"bandwidth_hz": -5}}))
    out = run_cli("simulate", "--config", str(bad), "--seeds", "1")
    assert out.returncode == 2
    error = json.loads(out.stderr.strip().splitlines()[-1])
    assert error["error"] == "ConfigError"
    assert "radio.bandwidth_hz" in error["message"]


def test_fractional_solver_limit_is_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"solver": {"max_outer": 0.5}}))
    out = run_cli("solve", "--config", str(bad), "--method", "mcpa")
    assert out.returncode == 2
    lines = out.stderr.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "ConfigError"
    assert "solver.max_outer" in error["message"]


@pytest.mark.parametrize("config, field", [
    ({"radio": {"noise_dbm": float("nan")}}, "radio.noise_dbm"),
    ({"radio": {"pathloss_exponent": 0.5}}, "radio.pathloss_exponent"),
    ({"budgets": {"time_s": float("inf")}}, "budgets.time_s"),
])
def test_non_finite_or_out_of_range_values_are_rejected(tmp_path, config, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))   # NaN and Infinity as JSON literals
    out = run_cli("simulate", "--config", str(bad), "--seeds", "1",
                  "--out", str(tmp_path / "x.csv"))
    assert out.returncode == 2
    lines = out.stderr.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "ConfigError"
    assert field in error["message"]


def test_unknown_method_rejected(tmp_path):
    out = run_cli("simulate", "--seeds", "1", "--methods", "telepathy",
                  "--out", str(tmp_path / "x.csv"),
                  "--config", str(CONFIG_DIR / "city_desk.json"))
    assert out.returncode == 2
    error = json.loads(out.stderr.strip().splitlines()[-1])
    assert "telepathy" in error["message"]


def test_missing_config_file_is_reported():
    out = run_cli("solve", "--config", "/nonexistent/config.json")
    assert out.returncode == 2
    error = json.loads(out.stderr.strip().splitlines()[-1])
    assert error["error"] == "FileNotFoundError"


def test_remote_backend_without_endpoint_is_reported(monkeypatch):
    env = cli_env()
    env.pop("MCPA_REMOTE_URL", None)
    out = subprocess.run(
        [sys.executable, "-m", "mcpa.cli", "solve", "--backend", "remote",
         "--config", str(CONFIG_DIR / "city_desk.json")],
        capture_output=True, text=True, cwd=REPO_ROOT, env=env)
    assert out.returncode == 2
    error = json.loads(out.stderr.strip().splitlines()[-1])
    assert "MCPA_REMOTE_URL" in error["message"]
