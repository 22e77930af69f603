import csv
import json
import subprocess
import sys

import pytest

from conftest import CONFIG_DIR, REPO_ROOT, cli_env
from golden.regenerate import GOLDEN_DIR, without_wall_ms
from mcpa import cli, harness
from mcpa.config import build_scenario, load_config
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


def test_sweep_rows_echo_the_budgets_as_given(tmp_path):
    # 63.7 / 1e3 * 1e3 is 63.70000000000001 and 127.4 / 1e3 * 1e3 is
    # 127.40000000000002: a row carries the budget as given, not its round trip
    path = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--config", str(CONFIG_DIR / "city_desk.json"), "--seeds", "1",
                     "--methods", "uniform", "--budgets-mw", "63.7,127.4",
                     "--out", str(path)]) == 0
    with open(path) as fh:
        assert [row["p_sum_mw"] for row in csv.DictReader(fh)] == ["63.7", "127.4"]


def test_the_summary_prints_each_budget_as_given(tmp_path, capsys):
    # budgets below 1 mW apart print apart, as the rows carry them
    assert cli.main(["sweep", "--config", str(CONFIG_DIR / "city_desk.json"), "--seeds", "1",
                     "--methods", "uniform", "--budgets-mw", "63.7,127.4,100.2,100.4",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
    header, *table, _ = capsys.readouterr().out.splitlines()
    assert header.split()[1] == "P_mW"
    assert [line.split()[1] for line in table] == ["63.7", "100.2", "100.4", "127.4"]


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


def test_a_capped_solve_reports_its_stop_reason(tmp_path, capsys):
    # town at K = 50 with max_outer 3: the mcpa solve of seed 0 stops at the
    # cap; its row says so, the CSV has no column for it, simulate counts it
    # on stderr while the run still exits 0, and solve prints it
    config = {**load_config(CONFIG_DIR / "town.json"), "num_robots": 50,
              "solver": {"max_outer": 3}}
    rows, _ = harness.run_campaign(build_scenario(config), ["mcpa", "uniform"], 1)
    assert [(r.method, r.failure, r.stop_reason, r.solver_iters) for r in rows] == \
        [("mcpa", "", "max_iterations", 3), ("uniform", "", "", 0)]
    path = tmp_path / "capped.json"
    path.write_text(json.dumps(config))
    out_csv = tmp_path / "campaign.csv"
    assert cli.main(["simulate", "--config", str(path), "--seeds", "1",
                     "--methods", "mcpa,uniform", "--out", str(out_csv)]) == 0
    assert capsys.readouterr().err == "solves not converged: mcpa at 200 mW: 1 (max_iterations)\n"
    with open(out_csv) as fh:
        assert next(csv.reader(fh)) == list(CSV_COLUMNS)
    # solve prints the reason on its first line
    assert cli.main(["solve", "--config", str(path), "--seed", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == \
        "method=mcpa seed=0 outer_iterations=3 stop_reason=max_iterations"
    # at the shipped K = 10 and max_outer, the solve converges
    town = build_scenario(load_config(CONFIG_DIR / "town.json"))
    assert harness.run_method(harness.prepare_seed(town, 0), town, "mcpa").stop_reason == \
        "converged"


def test_summary_counts_the_runs_behind_each_mean(tmp_path, capsys):
    # city seed 8's pilot phase needs more than T at 100 mW: each mean is over 8 seeds
    assert cli.main(["sweep", "--config", str(CONFIG_DIR / "city_desk.json"),
                     "--budgets-mw", "100", "--seeds", "9", "--methods", "uniform,mcpa",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
    out = capsys.readouterr()
    header, *table = out.out.splitlines()[:3]
    assert header.split()[:3] == ["method", "P_mW", "n"]
    assert [line.split()[:3] for line in table] == [["mcpa", "100", "8"],
                                                    ["uniform", "100", "8"]]
    assert out.err == "failed runs: 2 of 18\n"


def test_solve_reports_an_infeasible_pilot_phase_as_one_json_line(tmp_path, capsys):
    # city seed 8's pilot phase needs more than T at 100 mW
    config = tmp_path / "city100.json"
    config.write_text(json.dumps({**load_config(CONFIG_DIR / "city_desk.json"),
                                  "budgets": {"power_sum_mw": 100}}))
    assert cli.main(["solve", "--config", str(config), "--seed", "8"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    [line] = out.err.splitlines()
    error = json.loads(line)
    assert error["error"] == "PilotPhaseInfeasible" and error["message"]


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
    ({"num_robots": 5, "world": {"staged_novel_counts": [-1, 2, 3, 3, 3]}},
     "world.staged_novel_counts"),
    ({"num_robots": 5, "world": {"staged_novel_counts": [2.5, 2, 2, 2, 2]}},
     "world.staged_novel_counts"),
    ({"world": {"base_robots": [1.7]}}, "world.base_robots"),
    ({"world": {"base_robots": ["3"]}}, "world.base_robots"),
    ({"world": {"base_robots": [True]}}, "world.base_robots"),
    ({"world": {"base_robots": [2, 2]}}, "world.base_robots"),
    ({"remote": {"url": 7}}, "remote.url"),
    ({"remote": {"transcript_path": 5}}, "remote.transcript_path"),
    ({"remote": {"model": 3}}, "remote.model"),
    ({"num_robots": True}, "num_robots"),
    ({"radio": {"noise_dbm": 4000.0}}, "radio"),          # 10^(x/10) overflows
    ({"radio": {"ref_pathloss_db": -4000.0}}, "radio"),   # ... or is a zero gain
])
def test_non_finite_or_out_of_range_values_are_rejected(tmp_path, config, field):
    """A non-finite or out-of-range number, a count or robot index that is
    not a nonnegative integer (never truncated, never a boolean), a repeated
    base robot, or a remote endpoint, transcript or model that is not a string."""
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


@pytest.mark.parametrize("argv, field", [
    (["sweep", "--seeds", "1", "--methods", "remember", "--budgets-mw", "abc"], "--budgets-mw"),
    (["sweep", "--seeds", "1", "--methods", "remember", "--budgets-mw", ","], "--budgets-mw"),
    # an empty value (an unset shell variable, say) is not the flag left out
    (["sweep", "--seeds", "1", "--methods", "remember", "--budgets-mw", ""], "--budgets-mw"),
    (["sweep", "--seeds", "1", "--methods", "remember", "--budgets-mw", "-5"], "budgets_mw"),
    (["sweep", "--seeds", "1", "--methods", "remember", "--budgets-mw", "nan"], "budgets_mw"),
    (["sweep", "--seeds", "1", "--methods", "remember", "--budgets-mw", "inf"], "budgets_mw"),
    (["simulate", "--seeds", "0", "--methods", "remember"], "num_seeds"),
    (["simulate", "--seeds", "-2", "--methods", "remember"], "num_seeds"),
    (["solve", "--seed", "-1"], "--seed"),
    (["gae-test", "--seeds", "-1"], "--seeds"),
    (["gae-test", "--seeds", "0"], "--seeds"),
    (["simulate", "--seeds", "1", "--methods", ","], "methods"),
    (["sweep", "--seeds", "1", "--methods", " , "], "methods"),
], ids=lambda value: " ".join(value) if isinstance(value, list) else value)
def test_bad_arguments_fail_with_one_json_line(tmp_path, capsys, argv, field):
    """An unparsable or non-finite budget, a negative seed or a seed count
    below one: exit 2 with one JSON line naming it, and no output file."""
    out = tmp_path / "out.csv"
    assert cli.main(argv + ([] if argv[0] == "solve" else ["--out", str(out)])) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "ConfigError"
    assert field in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("document", [{"gae": 5}, []], ids=json.dumps)
def test_backend_option_on_a_non_object_config_is_one_json_line(tmp_path, capsys, document):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(document))
    assert cli.main(["solve", "--config", str(config), "--backend", "synthetic"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "ConfigError"
    assert error["message"].startswith("gae:" if document else "config:")


OVERFLOWS = "overflows the float range as a linear value"
UNDERFLOWS = "underflows to a linear value of 0"
# each dB leaf past the float range both ways; the first two keep their case ids
DB_CASES = [("noise_dbm", 1e308, OVERFLOWS), ("ref_pathloss_db", -1e308, UNDERFLOWS),
            ("noise_dbm", -1e308, UNDERFLOWS), ("ref_pathloss_db", 1e308, OVERFLOWS),
            ("shadow_fading_db", 1e308, OVERFLOWS), ("shadow_fading_db", -1e308, UNDERFLOWS)]


@pytest.mark.parametrize("text, message", [
    ('{"radio": {"noise_dbm": -100', "not valid JSON"),
    *[(json.dumps({"radio": {leaf: value}}), f"radio.{leaf}: {value!r} {cause}")
      for leaf, value, cause in DB_CASES],
    (json.dumps({"remote": {"max_concurrency": 4}}),
     "remote.max_concurrency: unknown configuration field"),
], ids=["not-json", "overflowing-dB", "vanishing-dB", "vanishing-noise_dbm",
        "overflowing-ref_pathloss_db", "overflowing-shadow_fading_db",
        "vanishing-shadow_fading_db", "max_concurrency"])
def test_bad_config_files_fail_with_one_json_line(tmp_path, capsys, text, message):
    config = tmp_path / "bad.json"
    config.write_text(text)
    out = tmp_path / "out.csv"
    assert cli.main(["simulate", "--config", str(config), "--seeds", "1",
                     "--out", str(out)]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "ConfigError"
    assert message in error["message"]
    assert not out.exists()


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


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--seeds", "abc"], "argument --seeds: invalid int value: 'abc'"),
    (["solve", "--method", "nope"], "argument --method: invalid choice: 'nope'"),
    (["solve", "--bogus"], "unrecognized arguments: --bogus"),
    ([], "the following arguments are required: command"),
], ids=["seeds-abc", "method-nope", "unknown-flag", "no-subcommand"])
def test_usage_errors_are_one_json_line(capsys, argv, message):
    """Errors the argument parser finds follow the same rule as every other
    bad argument: exit 2 with one JSON line, and no usage text."""
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and captured.out == ""
    error = json.loads(lines[0])
    assert error["error"] == "ConfigError"
    assert message in error["message"]


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
def test_help_still_prints_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        cli.main(argv)
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: mcpa")


def no_staging(monkeypatch) -> list:
    """Record, instead of running, every seed the CLI would stage."""
    staged = []
    for module in (cli, harness):
        monkeypatch.setattr(module, "prepare_seed", lambda *args: staged.append(args))
    return staged


@pytest.mark.parametrize("option", ["--config", "--out"])
def test_a_directory_path_is_one_json_line(tmp_path, capsys, monkeypatch, option):
    staged = no_staging(monkeypatch)
    paths = {"--config": str(CONFIG_DIR / "staged_k5.json"), "--out": str(tmp_path / "gae.csv"),
             option: str(tmp_path)}
    argv = ["gae-test", "--seeds", "1", *(x for pair in paths.items() for x in pair)]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "IsADirectoryError"
    # the path is checked before any seed is staged or any line printed
    assert staged == [] and out == ""


@pytest.mark.parametrize("command", ["simulate", "sweep", "gae-test"])
def test_an_out_in_a_missing_directory_fails_before_staging(tmp_path, capsys, monkeypatch,
                                                            command):
    staged = no_staging(monkeypatch)
    argv = [command, "--config", str(CONFIG_DIR / "city_desk.json"), "--seeds", "1",
            "--out", str(tmp_path / "missing" / "out.csv")]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert json.loads(err)["error"] == "FileNotFoundError"
    assert staged == [] and out == ""


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_a_repeated_method_fails_before_staging(tmp_path, capsys, monkeypatch, command):
    staged = no_staging(monkeypatch)
    out = tmp_path / "out.csv"
    argv = [command, "--config", str(CONFIG_DIR / "city_desk.json"), "--seeds", "2",
            "--methods", "mcpa,uniform,mcpa", "--out", str(out)]
    assert cli.main(argv) == 2
    stdout, err = capsys.readouterr()
    lines = err.strip().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "ConfigError"
    assert "['mcpa'] named more than once" in error["message"]
    assert staged == [] and stdout == "" and not out.exists()


def test_a_repeated_budget_fails_before_staging(tmp_path, capsys, monkeypatch):
    staged = no_staging(monkeypatch)
    out = tmp_path / "out.csv"
    argv = ["sweep", "--config", str(CONFIG_DIR / "city_desk.json"), "--seeds", "2",
            "--budgets-mw", "100,100", "--out", str(out)]
    assert cli.main(argv) == 2
    stdout, err = capsys.readouterr()
    [line] = err.strip().splitlines()
    error = json.loads(line)
    assert error["error"] == "ConfigError"
    assert "budgets_mw: [100.0] given more than once" in error["message"]
    assert staged == [] and stdout == "" and not out.exists()


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
