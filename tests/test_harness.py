import copy
import csv
import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

from conftest import CONFIG_DIR
from mcpa.config import ConfigError, build_scenario, load_config
from mcpa import harness
from mcpa.harness import (CSV_COLUMNS, METHODS, aggregate, prepare_seed, run_campaign,
                          run_method, run_sweep, write_csv)
from mcpa.gae import MemoryIndex
from mcpa.qom import PowerVector, pilot_overhead, qom_objective, qom_weights
from mcpa.world import build_world
from reference_index import ReferenceIndex, grade

CITY = load_config(CONFIG_DIR / "city_desk.json")
STAGED = load_config(CONFIG_DIR / "staged_k5.json")


def small_city(num_seeds_irrelevant=None):
    cfg = json.loads(json.dumps(CITY))
    return build_scenario(cfg)


def _fields(row):
    """Every field of a row but its wall time, NaNs included, as text."""
    return repr(dataclasses.replace(row, wall_ms=0.0))


# --- scenario construction ----------------------------------------------------

def test_default_scenario_echoes_reference_constants():
    s = build_scenario({})
    assert s.num_robots == 10
    assert s.radio.bandwidth_hz == 1e7
    assert s.radio.noise_power_w == pytest.approx(1e-13, rel=1e-12)   # -100 dBm
    assert s.radio.ref_pathloss_linear == pytest.approx(1e-3)         # -30 dB
    assert s.radio.shadow_fading_linear == pytest.approx(1e-2)        # -20 dB
    assert s.radio.pathloss_exponent == 3.0
    assert s.radio.num_antennas == 256
    assert s.power_budget_w == pytest.approx(0.2)                     # 200 mW
    assert s.time_budget_s == 600.0
    assert (s.distance_min_m, s.distance_max_m) == (50.0, 250.0)
    assert s.server_height_m == 20.0
    assert list(s.dataset.num_items) == [1050] * 10
    assert s.dataset.item_volume_bits[0] == pytest.approx(1.6e6)
    assert s.pilot_ratio == 0.01
    assert s.questions_per_robot == 10
    assert len(s.objects) == 10 and "fire truck" in s.objects
    assert s.num_base_robots == 5


def test_explicit_town_config_matches_defaults():
    town = build_scenario(load_config(CONFIG_DIR / "town.json"))
    default = build_scenario({})
    assert town.radio == default.radio
    assert town.power_budget_w == default.power_budget_w
    assert (town.distance_min_m, town.distance_max_m) == (50.0, 250.0)


def test_config_rejections_carry_field_paths():
    with pytest.raises(ConfigError, match="radio.bandwidth_hz"):
        build_scenario({"radio": {"bandwidth_hz": -1.0}})
    with pytest.raises(ConfigError, match="geometry.distance_max_m"):
        build_scenario({"geometry": {"distance_min_m": 100.0, "distance_max_m": 50.0}})
    with pytest.raises(ConfigError, match="unknown configuration field"):
        build_scenario({"radioz": {}})
    with pytest.raises(ConfigError, match="world.staged_novel_counts"):
        build_scenario({"num_robots": 3,
                        "world": {"staged_novel_counts": [1, 2, 3],
                                  "num_base_robots": 1}})


def test_integer_fields_reject_non_integers():
    fields = [("radio", "num_antennas"), ("solver", "max_outer"),
              ("solver", "max_inner"), ("world", "num_landmarks"),
              ("world", "segment_frames"), ("dataset", "items_per_robot"),
              ("gae", "questions_per_robot"), ("remote", "retries"),
              ("remote", "max_concurrency")]
    for section, key in fields:
        for value in (0.5, 3.0, 0, True, "3"):
            with pytest.raises(ConfigError, match=f"{section}.{key}"):
                build_scenario({section: {key: value}})


def test_number_fields_reject_strings_and_non_finite_values():
    with pytest.raises(ConfigError, match="remote.timeout_s"):
        build_scenario({"remote": {"timeout_s": "5"}})
    with pytest.raises(ConfigError, match="remote.timeout_s"):
        build_scenario({"remote": {"timeout_s": 0.0}})
    for section, key in (("radio", "noise_dbm"), ("budgets", "time_s"),
                         ("geometry", "server_height_m")):
        for value in (float("nan"), float("inf"), float("-inf"), 10 ** 400):
            with pytest.raises(ConfigError, match=f"{section}.{key}"):
                build_scenario({section: {key: value}})


def test_pathloss_exponent_below_one_is_rejected():
    assert build_scenario({"radio": {"pathloss_exponent": 1}}).radio.pathloss_exponent == 1.0
    for value in (0.5, 0.0, -2.0):
        with pytest.raises(ConfigError, match="radio.pathloss_exponent"):
            build_scenario({"radio": {"pathloss_exponent": value}})


def test_build_scenario_is_deterministic():
    a = build_scenario(CITY)
    b = build_scenario(CITY)
    assert a.radio == b.radio
    assert a.seeds == b.seeds
    assert a.objects == b.objects
    assert np.array_equal(a.dataset.num_items, b.dataset.num_items)
    assert (a.power_budget_w, a.time_budget_s, a.distance_min_m, a.distance_max_m) \
        == (b.power_budget_w, b.time_budget_s, b.distance_min_m, b.distance_max_m)


def test_staged_world_layout():
    s = build_scenario(STAGED)
    world = build_world(s, np.random.default_rng(0))
    # novel-object counts [0, 1, 2, 3, 4] per robot, ground memory = robot 5
    counts = [0] * 5
    for obj in world.placed_objects:
        counts[obj.host_robot] += 1
    assert counts == [0, 1, 2, 3, 4]
    assert world.base_robots == (4,)
    assert all(item.robot_id == 4 for item in world.base_memory)
    assert len(world.questions) == 3 * len(world.placed_objects)
    # identical background routes: same landmark tags frame by frame
    for i in (0, 100, 700):
        landmarks_at_i = set()
        for r in range(5):
            tags = {t for t in world.datasets[r][i].tags if t.startswith("landmark")}
            landmarks_at_i.add(frozenset(tags))
        assert len(landmarks_at_i) == 1


def test_world_determinism():
    s = build_scenario(CITY)
    w1 = build_world(s, np.random.default_rng([2, 0]))
    w2 = build_world(s, np.random.default_rng([2, 0]))
    assert w1.placed_objects == w2.placed_objects
    assert w1.base_robots == w2.base_robots
    assert w1.datasets[0][:5] == w2.datasets[0][:5]


# --- one method on one staged seed -----------------------------------------------

def test_run_once_remember_reports_base_accuracy():
    s = small_city()
    stage = prepare_seed(s, 0)
    m = run_method(stage, s, "remember")
    assert m.eqa_accuracy == pytest.approx(stage.base_accuracy)
    assert m.sum_rate_mbps == 0.0
    assert m.connected_drones == 0
    assert m.qom == 0.0


def test_run_once_all_robots_in_base_memory_gains_nothing():
    cfg = json.loads(json.dumps(CITY))
    cfg["world"]["num_base_robots"] = 10
    s = build_scenario(cfg)
    stage = prepare_seed(s, 1)
    assert np.all(stage.gae_scores == 1.0)
    m = run_method(stage, s, "mcpa")
    assert m.eqa_accuracy == pytest.approx(stage.base_accuracy)
    assert m.qom == 0.0


def test_run_once_deterministic():
    s = small_city()
    a = run_method(prepare_seed(s, 3), s, "mcpa")
    b = run_method(prepare_seed(s, 3), s, "mcpa")
    assert a.eqa_accuracy == b.eqa_accuracy
    assert a.qom == b.qom
    assert a.sum_rate_mbps == b.sum_rate_mbps
    assert a.power_mw == b.power_mw


def test_run_once_qom_round_trips_from_allocation():
    s = small_city()
    stage = prepare_seed(s, 5)
    m = run_method(stage, s, "mcpa")
    delta_t = pilot_overhead(stage.state, s.dataset, s.radio, s.power_budget_w)
    params = qom_weights(stage.gae_scores, s.dataset, s.time_budget_s - delta_t,
                         s.radio.bandwidth_hz)
    powers = np.array(m.power_mw) / 1e3
    recomputed = qom_objective(params, stage.state, powers, s.radio.noise_power_w)
    assert m.qom == pytest.approx(recomputed, rel=1e-12)


def test_methods_sharing_a_stage_match_a_fresh_stage_each():
    s = small_city()
    stage = prepare_seed(s, 4)
    for method in ("mcpa", "greedy", "remember"):
        assert _fields(run_method(stage, s, method)) == \
            _fields(run_method(prepare_seed(s, 4), s, method))


def test_stage_accuracy_joins_uploads_with_base_memory():
    s = small_city()
    stage = prepare_seed(s, 0)
    datasets = stage.world.datasets

    def graded(counts):
        merged = ReferenceIndex(stage.world.base_memory)
        for dataset, count in zip(datasets, counts):
            merged.extend(dataset[:count])
        return sum(grade(q, merged) for q in stage.world.questions) \
            / len(stage.world.questions)
    nothing = [0] * len(datasets)
    assert stage.base_accuracy == stage.accuracy_with(nothing) == graded(nothing) < 1.0
    # every robot's full dataset: the union covers every placed object
    everything = [len(d) for d in datasets]
    assert stage.accuracy_with(everything) == graded(everything) == 1.0
    for counts in np.diag(everything):
        assert stage.accuracy_with(counts) == graded(counts)
    for counts in np.random.default_rng(0).integers(0, 1051, size=(5, len(datasets))):
        assert stage.accuracy_with(counts) == graded(counts)


def test_prepare_seed_reads_each_tag_once_per_index(monkeypatch):
    # every index reads a copy of its store whose frames_with counts the
    # reads: one index for the GAE practice tests, one per store for scoring
    stores, reads = [], Counter()
    original = MemoryIndex.__init__

    def counted(self, frames):
        own = copy.copy(frames)
        number = len(stores)
        stores.append(own)

        def frames_with(tag, _read=frames.frames_with):
            reads[number, tag] += 1
            return _read(tag)
        own.frames_with = frames_with
        original(self, own)
    monkeypatch.setattr(MemoryIndex, "__init__", counted)
    s = small_city()
    prepare_seed(s, 0)
    assert len(stores) == 2 + s.num_robots
    assert reads and max(reads.values()) == 1


# --- campaigns & sweeps ---------------------------------------------------------

def test_campaign_single_seed_reduces_to_run_once():
    s = small_city()
    rows, _ = run_campaign(s, ["uniform"], 1)
    single = run_method(prepare_seed(s, s.seeds["run"]), s, "uniform")
    assert len(rows) == 1
    assert rows[0].eqa_accuracy == single.eqa_accuracy
    assert rows[0].qom == single.qom


def test_campaign_aggregates_match_csv_rows(tmp_path):
    s = small_city()
    rows, summary = run_campaign(s, ["uniform", "remember"], 4)
    path = tmp_path / "rows.csv"
    write_csv(rows, path)
    with open(path) as fh:
        read = list(csv.DictReader(fh))
    assert list(read[0].keys()) == list(CSV_COLUMNS)
    for method in ("uniform", "remember"):
        values = [float(r["eqa_accuracy"]) for r in read if r["method"] == method]
        assert summary[(method, 200.0)]["eqa_accuracy"]["mean"] == \
            pytest.approx(np.mean(values), rel=1e-12)
        assert summary[(method, 200.0)]["eqa_accuracy"]["stderr"] == \
            pytest.approx(np.std(values, ddof=1) / np.sqrt(len(values)), rel=1e-9)


def test_campaign_method_order_is_irrelevant():
    s = small_city()
    rows_ab, _ = run_campaign(s, ["uniform", "greedy"], 2)
    rows_ba, _ = run_campaign(s, ["greedy", "uniform"], 2)
    def keyed(rows):
        return {(r.method, r.seed): (r.eqa_accuracy, r.qom, r.sum_rate_mbps,
                                     r.connected_drones, r.power_mw)
                for r in rows}
    assert keyed(rows_ab) == keyed(rows_ba)


def test_campaign_rejects_zero_seeds():
    with pytest.raises(ValueError):
        run_campaign(small_city(), ["uniform"], 0)


def test_unknown_methods_are_rejected_before_staging(monkeypatch):
    built = []

    def counted(*args, **kwargs):
        built.append(1)
        return build_world(*args, **kwargs)
    monkeypatch.setattr(harness, "build_world", counted)
    s = small_city()
    stage = prepare_seed(s, 0)
    built.clear()
    for run in (lambda: run_campaign(s, ["mcpa", "nope"], 2),
                lambda: run_sweep(s, ["uniform", "nope"], [100.0, 200.0], 1),
                lambda: run_method(stage, s, "nope")):
        with pytest.raises(ValueError, match="'nope'") as error:
            run()
        assert built == []
        assert all(repr(method) in str(error.value) for method in METHODS)


def test_sweep_bookkeeping_and_single_point():
    s = small_city()
    budgets = [150.0, 250.0]
    rows, summary = run_sweep(s, ["uniform", "remember"], budgets, 2)
    assert len(rows) == len(budgets) * 2 * 2
    assert {r.p_sum_mw for r in rows} == {150.0, 250.0}
    single, _ = run_sweep(s, ["uniform"], [200.0], 2)
    campaign, _ = run_campaign(s, ["uniform"], 2)
    assert [r.eqa_accuracy for r in single] == [r.eqa_accuracy for r in campaign]
    with pytest.raises(ValueError):
        run_sweep(s, ["uniform"], [0.0], 1)


def test_sweep_matches_a_campaign_per_budget():
    # seed 8's pilot phase overruns T at 100 mW (NaN rows) and fits at 200 mW
    cfg = json.loads(json.dumps(CITY))
    cfg["seeds"] = {"run": 8}
    s = build_scenario(cfg)
    rows, _ = run_sweep(s, METHODS, [100, 200], 1)
    campaigns = []
    for budget_mw in (100, 200):
        cfg.setdefault("budgets", {})["power_sum_mw"] = budget_mw
        campaigns += run_campaign(build_scenario(cfg), METHODS, 1)[0]
    assert [_fields(r) for r in rows] == [_fields(r) for r in campaigns]
    assert all(np.isnan(r.qom) for r in rows if r.p_sum_mw == 100.0)
    assert not any(np.isnan(r.qom) for r in rows if r.p_sum_mw == 200.0)


def test_sweep_stages_each_seed_once(monkeypatch):
    calls = {"build_world": [], "run_gae": []}
    for name in calls:
        original = getattr(harness, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name].append(1)
            return _original(*args, **kwargs)
        monkeypatch.setattr(harness, name, counted)
    rows, _ = run_sweep(small_city(), ["uniform", "mcpa"], [150.0, 250.0], 2)
    assert len(rows) == 2 * 2 * 2
    assert [(r.p_sum_mw, r.seed, r.method) for r in rows] == [
        (b, seed, m) for b in (150.0, 250.0) for seed in (0, 1) for m in ("uniform", "mcpa")]
    assert len(calls["build_world"]) == 2
    assert len(calls["run_gae"]) == 2


def test_end_to_end_ordering_smoke():
    # tiny-version of the comparative claim: over a handful of seeds the
    # value-aware allocator should not lose to value-blind ones
    s = small_city()
    rows, summary = run_campaign(s, ["mcpa", "max_rate", "fairness", "remember"], 8)
    acc = {m: summary[(m, 200.0)]["eqa_accuracy"]["mean"]
           for m in ("mcpa", "max_rate", "fairness", "remember")}
    assert acc["mcpa"] >= acc["max_rate"]
    assert acc["mcpa"] >= acc["fairness"]
    assert acc["mcpa"] >= acc["remember"]


def test_external_weights_slot_runs_through_solver():
    from mcpa.harness import ExternalWeights
    s = small_city()
    # full weight on robot 0 only: it must swallow the whole budget
    method = ExternalWeights(weights=(1.0,) + (0.0,) * 9, name="semcom")
    m = run_method(prepare_seed(s, 2), s, method)
    assert m.method == "semcom"
    powers = np.array(m.power_mw)
    assert powers[0] == pytest.approx(200.0, rel=1e-6)
    assert np.all(powers[1:] <= 1e-6)
    # and it participates in campaigns next to the named methods
    rows, summary = run_campaign(s, ["remember", method], 2)
    assert {r.method for r in rows} == {"remember", "semcom"}


def test_campaign_records_pilot_failures_and_continues():
    cfg = json.loads(json.dumps(CITY))
    # links this long cannot even finish the pilot phase within T
    cfg["geometry"] = {"distance_min_m": 40000.0, "distance_max_m": 80000.0}
    s = build_scenario(cfg)
    rows, summary = run_campaign(s, ["remember", "uniform"], 2)
    assert len(rows) == 4
    assert all(np.isnan(r.eqa_accuracy) for r in rows)
    assert all(r.failure.startswith("PilotPhaseInfeasible: ") for r in rows)
    assert summary[("remember", 200.0)]["eqa_accuracy"]["count"] == 0


def test_programming_errors_propagate(monkeypatch):
    def broken(num_robots, budget):
        raise TypeError("a bug, not a failed run")
    monkeypatch.setattr(harness.baselines, "allocate_uniform", broken)
    with pytest.raises(TypeError):
        run_campaign(small_city(), ["remember", "uniform"], 1)


def test_nan_allocation_is_a_failed_row_with_reason(monkeypatch):
    monkeypatch.setattr(harness.baselines, "allocate_uniform",
                        lambda num_robots, budget: PowerVector(np.full(num_robots, np.nan),
                                                               budget))
    rows, _ = run_campaign(small_city(), ["remember", "uniform"], 1)
    remember, uniform = rows
    assert not remember.failure and not np.isnan(remember.eqa_accuracy)
    assert np.isnan(uniform.eqa_accuracy) and np.isnan(uniform.qom)
    assert uniform.failure.startswith("ValueError: ")
    # the reason is not a CSV column
    assert len(uniform.row()) == len(CSV_COLUMNS)


def test_aggregate_skips_nan_rows():
    from mcpa.harness import RunMetrics
    rows = [
        RunMetrics("m", 0, 200.0, 0.5, 1.0, 2.0, 1, 0, 0.0),
        RunMetrics("m", 1, 200.0, float("nan"), float("nan"), float("nan"), 0, 0, 0.0),
    ]
    summary = aggregate(rows)
    assert summary[("m", 200.0)]["eqa_accuracy"]["mean"] == 0.5
    assert summary[("m", 200.0)]["eqa_accuracy"]["count"] == 1
