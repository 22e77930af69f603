import csv
import dataclasses
import functools
import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR
from frames import items
from mcpa.channel import ChannelState, RobotGeometry, draw_channels
from mcpa.config import DEFAULT_OBJECTS, ConfigError, build_scenario, load_config
from mcpa import harness
from mcpa.harness import (CSV_COLUMNS, METHODS, aggregate, prepare_seed, run_campaign,
                          run_method, run_sweep, write_csv)
from mcpa.gae import MemoryIndex, SyntheticBackend, run_gae
from mcpa.qom import (DatasetMeta, PilotPhaseInfeasible, pilot_overhead, qom_objective,
                      qom_weights)
from mcpa.world import build_world
from reference_index import ReferenceIndex, grade, world_questions

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
    assert s.power_budget_mw == 200.0
    assert s.time_budget_s == 600.0
    assert (s.distance_min_m, s.distance_max_m) == (50.0, 250.0)
    assert list(s.dataset.num_items) == [1050] * 10
    assert s.dataset.item_volume_bits[0] == pytest.approx(1.6e6)
    assert s.pilot_ratio == 0.01
    assert s.questions_per_robot == 10
    assert len(s.objects) == 10 and "fire truck" in s.objects
    assert s.num_base_robots == 5


def test_explicit_town_config_matches_defaults():
    # the reference parameter set spells out the defaults, field for field
    town = build_scenario(load_config(CONFIG_DIR / "town.json"))
    assert repr(town) == repr(build_scenario({}))
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
              ("gae", "questions_per_robot"), ("remote", "retries")]
    for section, key in fields:
        for value in (0.5, 3.0, 0, True, "3"):
            with pytest.raises(ConfigError, match=f"{section}.{key}"):
                build_scenario({section: {key: value}})


@pytest.mark.parametrize("config, field", [
    ({"num_robots": True}, "num_robots"),
    ({"world": {"num_base_robots": True}}, "world.num_base_robots"),
    ({"world": {"object_dwell_frames": True}}, "world.object_dwell_frames"),
    *[({"seeds": {name: True}}, f"seeds.{name}")
      for name in ("channel", "placement", "pilot", "run")],
])
def test_count_and_seed_leaves_reject_booleans(config, field):
    # a boolean is an int to isinstance, and would be read as 0 or 1
    with pytest.raises(ConfigError, match=field):
        build_scenario(config)


@pytest.mark.parametrize("objects", ["bus", {"bus": 1}, ["bus", 3], []])
def test_objects_must_be_a_list_of_strings(objects):
    # a string would otherwise be split into one-letter objects
    with pytest.raises(ConfigError, match="world.objects"):
        build_scenario({"world": {"objects": objects}})


def test_number_fields_reject_strings_and_non_finite_values():
    with pytest.raises(ConfigError, match="remote.timeout_s"):
        build_scenario({"remote": {"timeout_s": "5"}})
    with pytest.raises(ConfigError, match="remote.timeout_s"):
        build_scenario({"remote": {"timeout_s": 0.0}})
    for section, key in (("radio", "noise_dbm"), ("budgets", "time_s")):
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
    assert (a.power_budget_mw, a.time_budget_s, a.distance_min_m, a.distance_max_m) \
        == (b.power_budget_mw, b.time_budget_s, b.distance_min_m, b.distance_max_m)


def test_staged_world_layout():
    s = build_scenario(STAGED)
    world = build_world(s, np.random.default_rng(0))
    # novel-object counts [0, 1, 2, 3, 4] per robot, ground memory = robot 5
    counts = [0] * 5
    for obj in world.placed_objects:
        counts[obj.host_robot] += 1
    assert counts == [0, 1, 2, 3, 4]
    assert world.base_robots == (4,)
    assert all(item.robot_id == 4 for item in items(world.base_memory))
    assert len(world.questions[0]) == 3 * len(world.placed_objects)
    # identical background routes: same landmark tags frame by frame
    datasets = [items(dataset) for dataset in world.datasets]
    for i in (0, 100, 700):
        landmarks_at_i = set()
        for r in range(5):
            tags = {t for t in datasets[r][i].tags if t.startswith("landmark")}
            landmarks_at_i.add(frozenset(tags))
        assert len(landmarks_at_i) == 1


def test_world_determinism():
    s = build_scenario(CITY)
    w1 = build_world(s, np.random.default_rng([2, 0]))
    w2 = build_world(s, np.random.default_rng([2, 0]))
    assert w1.placed_objects == w2.placed_objects
    assert w1.base_robots == w2.base_robots
    assert items(w1.datasets[0])[:5] == items(w2.datasets[0])[:5]


# --- one method on one staged seed -----------------------------------------------

def test_run_once_remember_reports_base_accuracy():
    s = small_city()
    stage = prepare_seed(s, 0)
    m = run_method(stage, s, "remember")
    assert m.eqa_accuracy == pytest.approx(stage.accuracy_with([0] * s.num_robots))
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
    assert m.eqa_accuracy == pytest.approx(stage.accuracy_with([0] * s.num_robots))
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
    delta_t = pilot_overhead(stage.state, s.dataset.item_volume_bits * stage.pilot_sizes, s.radio,
                             s.power_budget_mw / 1e3)
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


@pytest.mark.parametrize("name, override", [
    ("city_desk.json", None), ("town.json", None), ("staged_k5.json", None),
    # rho |D| = 262.5 exactly; its pilot phase takes 6,150 s
    ("city_desk.json", {"gae": {"pilot_ratio": 0.25}, "budgets": {"time_s": 1e5}}),
], ids=["city_desk", "town", "staged_k5", "half"])
def test_pilots_have_the_sizes_the_overhead_charges(name, override, monkeypatch):
    # dT = max_k Z_k |D~_k| / (B log2(1 + SINR_k(P/K))) over the pilots GAE sampled,
    # and the harness weighs each robot by T - dT
    scenario = build_scenario(load_config(CONFIG_DIR / name), override)
    stage = prepare_seed(scenario, 0)
    report = run_gae(stage.world.datasets, stage.world.base_memory, scenario.pilot_ratio,
                     scenario.questions_per_robot, SyntheticBackend(),
                     [scenario.seeds["pilot"], 0])
    assert stage.pilot_sizes.tolist() == report.pilot_sizes.tolist() == [
        max(1, int(scenario.pilot_ratio * len(frames) + 0.5)) for frames in stage.world.datasets]
    if override:
        assert stage.pilot_sizes.tolist() == [263] * scenario.num_robots
    k, radio = scenario.num_robots, scenario.radio
    p_eq = scenario.power_budget_mw / 1e3 / k
    seconds = []
    for j in range(k):
        interference = sum(stage.state.interference[j, i] * p_eq for i in range(k) if i != j)
        rate = radio.bandwidth_hz * np.log2(
            1.0 + stage.state.gains[j] * p_eq / (interference + radio.noise_power_w))
        seconds.append(scenario.dataset.item_volume_bits[j] * stage.pilot_sizes[j] / rate)
    charged = []

    def spy(gae_scores, meta, effective_time_s, bandwidth_hz):
        charged.append(effective_time_s)
        return qom_weights(gae_scores, meta, effective_time_s, bandwidth_hz)
    monkeypatch.setattr(harness, "qom_weights", spy)
    run_method(stage, scenario, "remember")
    [[[effective_time_s]]] = [times.tolist() for times in charged]
    assert effective_time_s == pytest.approx(scenario.time_budget_s - max(seconds), rel=1e-12)


def test_stage_accuracy_joins_uploads_with_base_memory():
    s = small_city()
    stage = prepare_seed(s, 0)
    datasets = [items(dataset) for dataset in stage.world.datasets]

    def graded(counts):
        merged = ReferenceIndex(items(stage.world.base_memory))
        for dataset, count in zip(datasets, counts):
            merged.extend(dataset[:count])
        questions = world_questions(stage.world)
        return sum(grade(q, merged) for q in questions) / len(questions)
    nothing = [0] * len(datasets)
    assert stage.accuracy_with(nothing) == graded(nothing) < 1.0
    # every robot's full dataset: the union covers every placed object
    everything = [len(d) for d in datasets]
    assert stage.accuracy_with(everything) == graded(everything) == 1.0
    for counts in np.diag(everything):
        assert stage.accuracy_with(counts) == graded(counts)
    for counts in np.random.default_rng(0).integers(0, 1051, size=(5, len(datasets))):
        assert stage.accuracy_with(counts) == graded(counts)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.sampled_from(["town.json", "city_desk.json", "staged_k5.json"]), st.integers(0, 99),
       st.booleans(), st.booleans(), st.booleans())
def test_base_answers_read_from_the_table_are_the_base_memorys_own(name, seed, one_robot,
                                                                  no_base, landmark_named):
    """The base answers ``prepare_seed`` reads from the first-frame table are
    those of an index over the base memory itself: on shipped worlds, with no
    base robot, at K=1 and with an object named like a landmark tag."""
    world = {"base_robots": None, "num_base_robots": 0} if no_base else {}
    if one_robot:
        world = {"num_base_robots": 1, "base_robots": None, **world}
        if name == "staged_k5.json":
            world["staged_novel_counts"] = [len(DEFAULT_OBJECTS)]
    if landmark_named:
        world["objects"] = ["landmark-01", *DEFAULT_OBJECTS[1:]]
    override = {"world": world, "gae": {"questions_per_robot": 10}}
    if one_robot:
        override["num_robots"] = 1
    stage = prepare_seed(build_scenario(load_config(CONFIG_DIR / name), override), seed)
    expected = MemoryIndex(stage.world.base_memory).answers(stage.world.questions)
    assert stage.base_answers.tolist() == expected.tolist()


def test_staging_a_town_k50_seed_stays_under_3_5_mib_traced():
    # robots' frames hold pose ids into the world's landmark pose table; a
    # copied (frames, 6) pose row per frame, 2.4 MiB on this world, read 4.94
    # MiB of traced peak
    scenario = build_scenario(load_config(CONFIG_DIR / "town.json"), {"num_robots": 50})
    prepare_seed(scenario, 0)                   # imports and first-call caches
    tracemalloc.start()
    try:
        prepare_seed(scenario, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * 2**20


def test_prepare_seed_indexes_the_base_memory_once(monkeypatch):
    # a synthetic seed builds exactly two indexes: the backend's over all the
    # base memory's tags, which the GAE practice tests grade against, and the
    # harness's one over the hosts (the datasets holding an asked tag, joined
    # in robot order) on the asked tags, which makes the whole first-frame
    # table and with it the base answers
    built = []
    original = MemoryIndex.__init__

    def counted(self, frames, tags=None):
        built.append((frames, tags))
        original(self, frames, tags)
    monkeypatch.setattr(MemoryIndex, "__init__", counted)
    s = small_city()
    world = prepare_seed(s, 0).world
    asked = set(world.questions[1])
    hosts = [frames for frames in world.datasets if not asked.isdisjoint(frames.tags)]
    assert 0 < len(hosts) < s.num_robots
    assert len(built) == 2
    (base, base_tags), (joined, joined_tags) = built
    assert base is world.base_memory and base_tags is None
    assert len(joined) == len(hosts)
    assert all(store is host for store, host in zip(joined, hosts))
    assert set(joined_tags) == asked


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


def test_a_campaign_row_echoes_its_budget_as_given(monkeypatch):
    # 63.7 / 1e3 * 1e3 is 63.70000000000001: the rows and their aggregate keys
    # carry the configured mW, and the pilot phase and allocators see 63.7 / 1e3 W
    cfg = json.loads(json.dumps(CITY))
    cfg["budgets"] = {"power_sum_mw": 63.7}
    s = build_scenario(cfg)
    charged = []
    monkeypatch.setattr(harness, "pilot_overhead",
                        lambda *args: charged.append(args[-1].tolist()) or np.zeros(1))
    rows, summary = run_campaign(s, ["uniform", "fairness"], 1)
    assert [row.p_sum_mw for row in rows] == [63.7, 63.7] and not rows[0].failure
    assert list(summary) == [("uniform", 63.7), ("fairness", 63.7)]
    assert charged == [[63.7 / 1e3]]
    assert rows[0].power_mw == (63.7 / 1e3 / s.num_robots * 1e3,) * s.num_robots


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
    for run in (lambda: run_campaign(s, [], 1), lambda: run_sweep(s, [], [100.0], 1)):
        with pytest.raises(ConfigError, match="methods: no method given"):
            run()
        assert built == []


def test_budgets_may_be_any_iterable_of_numbers(monkeypatch):
    """A numpy array or a one-pass iterator of budgets gives the rows of the
    list, with p_sum_mw a float (written as 150.0, not np.float64(150.0));
    an empty one is a ConfigError before any seed is staged."""
    s = small_city()
    rows, _ = run_sweep(s, ["uniform"], [150.0, 250.0], 1)
    for budgets in (np.array([150.0, 250.0]), iter([150.0, 250.0])):
        assert [_fields(r) for r in run_sweep(s, ["uniform"], budgets, 1)[0]] \
            == [_fields(r) for r in rows]
    staged = []
    monkeypatch.setattr(harness, "prepare_seed", lambda *args: staged.append(args))
    for budgets in ([], (), np.array([]), iter([])):
        with pytest.raises(ConfigError, match="budgets_mw: no budget given"):
            run_sweep(s, ["uniform"], budgets, 3)
    assert staged == []


def test_repeated_method_names_are_rejected_before_staging(monkeypatch):
    from mcpa.harness import ExternalWeights
    built = []
    monkeypatch.setattr(harness, "build_world", lambda *args, **kwargs: built.append(1))
    s = small_city()
    ones = (1.0,) * s.num_robots
    for methods in (["mcpa", "mcpa"], ["uniform", "max_rate", "uniform"],
                    ["mcpa", ExternalWeights(ones, "mcpa")],
                    [ExternalWeights(ones, "semcom"), "remember",
                     ExternalWeights(ones[:-1] + (0.5,), "semcom")]):
        for run in (lambda: run_campaign(s, methods, 3),
                    lambda: run_sweep(s, methods, [100.0, 200.0], 2)):
            with pytest.raises(ConfigError, match="named more than once"):
                run()
    assert built == []


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


def test_a_sweep_is_its_single_budget_sweeps_put_together(monkeypatch):
    """Every field but wall_ms of a sweep's rows equals the rows of one sweep
    per budget, in budget order, on city_desk seeds 0-8: seed 8's pilot phase
    overruns T at 100 mW, and greedy fails at 200 mW alone."""
    original = harness.baselines.allocate_greedy

    def greedy(state, scores, meta, budget, *args):
        if budget == 0.2:
            raise ArithmeticError("greedy cannot fund 200 mW")
        return original(state, scores, meta, budget, *args)
    monkeypatch.setattr(harness.baselines, "allocate_greedy", greedy)
    s = small_city()
    rows, summary = run_sweep(s, METHODS, harness.DEFAULT_SWEEP_MW, 9)
    alone = [row for budget_mw in harness.DEFAULT_SWEEP_MW
             for row in run_sweep(s, METHODS, [budget_mw], 9)[0]]
    assert [_fields(r) for r in rows] == [_fields(r) for r in alone]
    failed = {(r.p_sum_mw, r.seed, r.method): r.failure for r in rows if r.failure}
    assert {key[:2] for key in failed if key[2] != "greedy"} == {(100.0, 8)}
    assert {key[:2] for key in failed if key[2] == "greedy"} == \
        {(100.0, 8)} | {(200.0, seed) for seed in range(9)}
    assert failed[(200.0, 0, "greedy")] == "ArithmeticError: greedy cannot fund 200 mW"
    assert summary[("greedy", 200.0)]["qom"]["count"] == 0
    assert summary[("fairness", 100.0)]["qom"]["count"] == 8


def test_a_failed_fairness_call_fails_the_fairness_rows_of_its_seed(monkeypatch):
    # one fairness call serves every budget of a seed, in a sweep and in a
    # one-budget campaign, so its error is each of those rows' reason; every
    # other row is as it was
    s = small_city()
    runs = (lambda: run_sweep(s, METHODS, [150.0, 250.0], 2)[0],
            lambda: run_campaign(s, METHODS, 2)[0])
    references = [{(r.p_sum_mw, r.seed, r.method): _fields(r) for r in run()} for run in runs]

    def broken(state, budget, noise_power_w):
        raise np.linalg.LinAlgError("no fixed point")
    monkeypatch.setattr(harness.baselines, "allocate_fairness", broken)
    for run, reference in zip(runs, references):
        rows = run()
        assert len(rows) == len(reference)
        for row in rows:
            if row.method == "fairness":
                assert row.failure == "LinAlgError: no fixed point" and np.isnan(row.qom)
            else:
                assert _fields(row) == reference[(row.p_sum_mw, row.seed, row.method)]


def test_a_seed_whose_pilot_phase_overruns_makes_no_fairness_call(monkeypatch):
    # city seed 8's pilot phase needs more than T at 100 mW: its fairness row
    # fails with that reason, and fairness is called for seed 7 alone
    cfg = json.loads(json.dumps(CITY))
    cfg["budgets"] = {"power_sum_mw": 100}
    cfg["seeds"] = {"run": 7}
    s = build_scenario(cfg)
    original, called = harness.baselines.allocate_fairness, []

    def counted(state, budgets, noise_power_w):
        called.append(state)
        return original(state, budgets, noise_power_w)
    monkeypatch.setattr(harness.baselines, "allocate_fairness", counted)
    rows, summary = run_campaign(s, ["fairness"], 2)
    assert [(r.seed, r.failure.partition(":")[0]) for r in rows] == \
        [(7, ""), (8, "PilotPhaseInfeasible")]
    assert len(called) == 1
    assert np.array_equal(called[0].gains, prepare_seed(s, 7).state.gains)
    assert summary[("fairness", 100.0)]["qom"]["count"] == 1


def test_repeated_budgets_are_rejected_before_staging(monkeypatch):
    staged = []
    monkeypatch.setattr(harness, "prepare_seed", lambda *args: staged.append(args))
    for budgets, repeated in (([100.0, 100.0], "[100.0]"), ([100, 200, 100.0], "[100.0]"),
                              (np.array([250.0, 150.0, 250.0, 150.0]), "[150.0, 250.0]")):
        with pytest.raises(ConfigError) as error:
            run_sweep(small_city(), ["uniform"], budgets, 2)
        assert str(error.value) == f"budgets_mw: {repeated} given more than once"
    assert staged == []


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


def test_external_weights_named_fairness_run_through_the_solver(monkeypatch):
    # the one-call fairness path is taken for the method, not its name, in a
    # sweep and in a one-budget campaign alike
    from mcpa.harness import ExternalWeights
    monkeypatch.setattr(harness.baselines, "allocate_fairness", None)
    s = small_city()
    method = ExternalWeights(weights=(1.0,) + (0.0,) * 9, name="fairness")
    rows = run_sweep(s, [method], [150.0, 250.0], 1)[0] + run_campaign(s, [method], 1)[0]
    assert [(r.method, r.p_sum_mw, r.failure) for r in rows] == \
        [("fairness", 150.0, ""), ("fairness", 250.0, ""), ("fairness", 200.0, "")]
    assert all(r.solver_iters > 0 and r.power_mw[0] == pytest.approx(r.p_sum_mw, rel=1e-6)
               for r in rows)


def test_external_weights_need_one_finite_nonnegative_weight_per_robot():
    from mcpa.harness import ExternalWeights
    s = small_city()
    stage = prepare_seed(s, 0)
    bad = [ExternalWeights(weights, name)
           for weights, name in [((0.5,), "one"), ((1.0, 0.5, 0.2), "three"),
                                 ((1.0,) * 9 + (float("nan"),), "nan"),
                                 ((1.0,) * 9 + (-0.5,), "negative"),
                                 ((1.0,) * 9 + (float("inf"),), "infinite")]]
    for method in bad:
        with pytest.raises(ValueError, match="K = 10 finite, nonnegative"):
            run_method(stage, s, method)
    rows, _ = run_campaign(s, ["remember"] + bad, 1)
    assert rows[0].failure == ""
    for row in rows[1:]:
        assert row.failure.startswith("ValueError: weights must be K = 10 ")
        assert np.isnan(row.qom)


def test_campaign_records_pilot_failures_and_continues():
    cfg = json.loads(json.dumps(CITY))
    # links this long cannot even finish the pilot phase within T
    cfg["geometry"] = {"distance_min_m": 40000.0, "distance_max_m": 80000.0}
    s = build_scenario(cfg)
    rows, summary = run_campaign(s, ["remember", "uniform"], 2)
    assert len(rows) == 4
    assert all(np.isnan(r.eqa_accuracy) for r in rows)
    assert all(r.failure.startswith("PilotPhaseInfeasible: ") for r in rows)
    assert all(r.connected_drones == 0 and r.solver_iters == 0 for r in rows)
    # a failed row counts in no metric, connected_drones (0 in its row) included
    for key in (("remember", 200.0), ("uniform", 200.0)):
        for stats in summary[key].values():
            assert stats["count"] == 0 and np.isnan(stats["mean"])


def test_a_pilot_phase_overrun_fails_only_its_own_budget():
    # city seed 8's pilot phase needs more than T at 100 mW but fits at 150
    # and 200 mW: the seed's one pilot-overhead call fails the 100 mW rows
    # alone, each with its overrun, and the other rows are the one-budget runs'
    s = small_city()
    stage = prepare_seed(s, 8)
    needs = pilot_overhead(stage.state, s.dataset.item_volume_bits * stage.pilot_sizes,
                           s.radio, 0.1)
    assert needs >= s.time_budget_s
    message = f"pilot phase needs {needs:.3f} s but the time budget is 600.000 s"
    rows = harness._run_seed(stage, s, [150.0, 100.0, 200.0], METHODS, list(METHODS))
    assert [r.failure for r in rows[1]] == [f"PilotPhaseInfeasible: {message}"] * len(METHODS)
    assert all(np.isnan(r.qom) for r in rows[1])
    for budget, budget_rows in ((150.0, rows[0]), (200.0, rows[2])):
        alone = dataclasses.replace(s, power_budget_mw=budget)
        assert [_fields(r) for r in budget_rows] == \
            [_fields(run_method(stage, alone, method)) for method in METHODS]
    with pytest.raises(PilotPhaseInfeasible, match=f"^{re.escape(message)}$"):
        harness._run_seed(stage, s, [150.0, 100.0, 200.0], ["uniform"], ["uniform"], caught=())


def test_run_method_raises_an_infeasible_pilot_phase():
    # city seed 8's pilot phase needs more than T at 100 mW
    cfg = json.loads(json.dumps(CITY))
    cfg["budgets"] = {"power_sum_mw": 100}
    scenario = build_scenario(cfg)
    with pytest.raises(PilotPhaseInfeasible):
        run_method(prepare_seed(scenario, 8), scenario, "uniform")


def test_a_cell_where_every_allocation_fails(monkeypatch):
    # each seed is scored once, as one block over all its budgets, even when
    # no allocation of the seed passed its check
    monkeypatch.setattr(harness.baselines, "allocate_uniform",
                        lambda num_robots, budget: np.full(num_robots, np.nan))
    with mock.patch.object(harness, "_score_allocation",
                           wraps=harness._score_allocation) as score:
        rows, summary = run_sweep(small_city(), ["uniform"], [150.0, 250.0], 2)
    assert [call.args[2].shape for call in score.call_args_list] == [(0, 10), (0, 10)]
    assert [row.failure for row in rows] == \
        ["ValueError: non-finite powers: every power must be a finite number"] * 4
    assert all(np.isnan([r.eqa_accuracy, r.qom, r.sum_rate_mbps]).all() for r in rows)
    for budget_mw in (150.0, 250.0):
        for stats in summary[("uniform", budget_mw)].values():
            assert stats["count"] == 0 and np.isnan(stats["mean"])
    with mock.patch.object(harness, "_score_allocation",
                           wraps=harness._score_allocation) as score:
        run_sweep(small_city(), ["remember", "uniform"], [150.0, 250.0], 2)
    assert [call.args[2].shape for call in score.call_args_list] == [(2, 10), (2, 10)]


def test_programming_errors_propagate(monkeypatch):
    def broken(num_robots, budget):
        raise TypeError("a bug, not a failed run")
    monkeypatch.setattr(harness.baselines, "allocate_uniform", broken)
    with pytest.raises(TypeError):
        run_campaign(small_city(), ["remember", "uniform"], 1)


def test_nan_allocation_is_a_failed_row_with_reason(monkeypatch):
    for bad in (np.nan, np.inf, -np.inf):
        monkeypatch.setattr(harness.baselines, "allocate_uniform",
                            lambda num_robots, budget: np.full(num_robots, bad))
        rows, _ = run_campaign(small_city(), ["remember", "uniform"], 1)
        remember, uniform = rows
        assert not remember.failure and not np.isnan(remember.eqa_accuracy)
        assert np.isnan(uniform.eqa_accuracy) and np.isnan(uniform.qom)
        assert uniform.failure.startswith("ValueError: non-finite powers")
        # the reason is not a CSV column
        assert len(uniform.row()) == len(CSV_COLUMNS)


# what an allocator's uniform split becomes, with robot ``i``'s entry as the
# corrupted one, and the failure the campaign records for it
BAD_ALLOCATIONS = {
    "nan": (lambda p, i: np.where(np.arange(p.size) == i, np.nan, p),
            "ValueError: non-finite powers: every power must be a finite number"),
    "negative": (lambda p, i: np.where(np.arange(p.size) == i, -p, p),
                 "ValueError: powers must be nonnegative"),
    "over budget": (lambda p, i: 1.5 * p, "ValueError: sum power 0.3 exceeds budget 0.2"),
    "wrong shape": (lambda p, i: np.delete(p, i),
                    "ValueError: allocation has shape (9,), expected (10,)"),
}
OTHERS = ["remember", "greedy", "fairness", "max_cov"]


@functools.cache
def _rows_without_uniform():
    rows, _ = run_campaign(small_city(), OTHERS, 2)
    return {(row.seed, row.method): _fields(row) for row in rows}


@settings(max_examples=20)
@given(st.sampled_from(sorted(BAD_ALLOCATIONS)), st.integers(0, 9), st.permutations(OTHERS),
       st.integers(1, len(OTHERS) - 1))
def test_a_bad_allocation_in_a_cell_fails_its_row_alone(kind, entry, others, position):
    corrupt, message = BAD_ALLOCATIONS[kind]
    methods = others[:position] + ["uniform"] + others[position:]

    def bad(num_robots, budget):
        return corrupt(np.full(num_robots, budget / num_robots), entry)
    with mock.patch.object(harness.baselines, "allocate_uniform", bad):
        rows, summary = run_campaign(small_city(), methods, 2)
    assert [row.method for row in rows] == methods * 2
    reference = _rows_without_uniform()
    for row in rows:
        if row.method == "uniform":
            assert row.failure == message
            assert np.isnan([row.eqa_accuracy, row.qom, row.sum_rate_mbps]).all()
        else:
            assert _fields(row) == reference[(row.seed, row.method)]
    assert summary[("uniform", 200.0)]["connected_drones"]["count"] == 0


@st.composite
def stacked_counts(draw):
    """A staged seed's answer table (Q 1-30 questions, K 1-12 robots of 1-40
    frames) and 1-8 stacked frame-count rows: nothing, every frame, or a part
    of each robot's frames uploaded."""
    k, q = draw(st.integers(1, 12)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = rng.integers(1, 41, size=k)
    stage = harness.SeedContext(seed=0, world=None, state=None, gae_scores=None, pilot_sizes=None,
                                base_answers=rng.random(q) < 0.3,
                                first_frames=rng.integers(0, sizes + 1, size=(q, k)))
    kinds = draw(st.lists(st.sampled_from(["none", "all", "part"]), min_size=1, max_size=8))
    rows = [np.zeros(k) if kind == "none" else sizes.astype(float) if kind == "all"
            else np.floor(rng.uniform(0, sizes + 1)) for kind in kinds]
    return stage, np.array(rows)


@settings(max_examples=100)
@given(stacked_counts())
def test_stacked_frame_counts_grade_as_each_row_alone(case):
    stage, counts = case
    accuracy = stage.accuracy_with(counts)
    assert accuracy.shape == (len(counts),)
    for i, row in enumerate(counts):
        alone = stage.accuracy_with(row)
        assert type(alone) is float and accuracy[i] == alone


@st.composite
def unequal_datasets(draw):
    """city_desk over K 1-12 robots with per-robot datasets (600-1500 items of
    0.8-2.4 Mb), a channel at near or far distances, an effective time and a
    permutation of the robots."""
    k = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    meta = DatasetMeta(rng.integers(600, 1501, size=k), rng.uniform(0.8e6, 2.4e6, size=k))
    scenario = dataclasses.replace(small_city(), num_robots=k, dataset=meta)
    distances = rng.uniform(*draw(st.sampled_from([(50.0, 250.0), (2000.0, 5000.0)])), size=k)
    state = draw_channels(scenario.radio, RobotGeometry(distances), rng)
    return scenario, state, float(rng.uniform(100.0, 600.0)), rng.permutation(k)


def _max_cov(scenario, state, effective_time_s):
    stage = harness.SeedContext(seed=0, world=None, state=state, gae_scores=None, pilot_sizes=None,
                                base_answers=None, first_frames=None)
    ctx = harness._RunContext(stage, scenario.power_budget_mw / 1e3, effective_time_s, weights=None)
    return harness._allocate(ctx, scenario, "max_cov")[0]


@settings(max_examples=50)
@given(unequal_datasets())
def test_max_cov_permutes_with_the_robots(case):
    # each robot's target rate comes from its own dataset, not robot 0's
    scenario, state, effective_time_s, perm = case
    permuted = dataclasses.replace(scenario, dataset=DatasetMeta(
        scenario.dataset.num_items[perm], scenario.dataset.item_volume_bits[perm]))
    relabelled = ChannelState(gains=state.gains[perm],
                              interference=state.interference[np.ix_(perm, perm)])
    powers = _max_cov(scenario, state, effective_time_s)
    assert np.allclose(_max_cov(permuted, relabelled, effective_time_s), powers[perm],
                       rtol=0.0, atol=1e-12 * scenario.power_budget_mw / 1e3)


def test_aggregate_skips_nan_rows():
    from mcpa.harness import RunMetrics
    rows = [
        RunMetrics("m", 0, 200.0, 0.5, 1.0, 2.0, 1, 0, 0.0),
        RunMetrics("m", 1, 200.0, float("nan"), float("nan"), float("nan"), 0, 0, 0.0),
    ]
    summary = aggregate(rows)
    assert summary[("m", 200.0)]["eqa_accuracy"]["mean"] == 0.5
    assert summary[("m", 200.0)]["eqa_accuracy"]["count"] == 1


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(1, 80), st.floats(0.0, 0.5))
def test_aggregate_reduces_each_metric_as_a_one_dimensional_array(seed, num_rows, failed):
    # every group's figures equal numpy's 1-D mean and std over its
    # surviving rows, to the last bit; a failed row counts nowhere
    from mcpa.harness import RunMetrics
    rng = np.random.default_rng(seed)
    rows = [RunMetrics(str(rng.integers(3)), i, float(rng.choice([100.0, 200.0])),
                       *rng.uniform(0.0, 10.0, size=3).tolist(), int(rng.integers(11)),
                       0, 0.0, failure="ValueError: x" if rng.random() < failed else "")
            for i in range(num_rows)]
    for (method, p_mw), stats in aggregate(rows).items():
        kept = [row for row in rows
                if (row.method, row.p_sum_mw) == (method, p_mw) and not row.failure]
        for metric, figures in stats.items():
            values = np.array([getattr(row, metric) for row in kept], dtype=float)
            assert figures["count"] == len(kept)
            if len(kept):
                assert figures["mean"] == float(values.mean())
            if len(kept) > 1:
                assert figures["stderr"] == float(values.std(ddof=1) / np.sqrt(len(kept)))


def test_method_table_reaches_the_allocators_when_called(monkeypatch):
    """Each method reaches its allocator through the module attribute at call
    time, so a rebinding (a tracer, this test) sees every run."""
    from mcpa.harness import ExternalWeights
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append((name, result))
            return result
        monkeypatch.setattr(module, name, wrapper)
    for name in ("allocate_max_cov", "allocate_fairness", "allocate_greedy",
                 "allocate_remember", "allocate_uniform", "unit_rate_params"):
        counted(harness.baselines, name)
    counted(harness, "solve_mcpa")
    s = small_city()
    stage = prepare_seed(s, 0)
    external = ExternalWeights((1.0,) + (0.0,) * 9, "semcom")
    reached = {"mcpa": ["solve_mcpa"], "max_rate": ["unit_rate_params", "solve_mcpa"],
               "max_cov": ["allocate_max_cov"], "fairness": ["allocate_fairness"],
               "greedy": ["allocate_greedy"], "remember": ["allocate_remember"],
               "uniform": ["allocate_uniform"], external: ["solve_mcpa"]}
    assert list(reached)[:-1] == list(METHODS)
    for method, names in reached.items():
        calls.clear()
        metrics = run_method(stage, s, method)
        assert [name for name, _ in calls] == names
        result = calls[-1][1]
        if names[-1] == "solve_mcpa":
            assert metrics.solver_iters == result.outer_iterations > 0
            assert metrics.power_mw == tuple(float(p) * 1e3 for p in result.final)
        else:
            assert metrics.solver_iters == 0      # fairness returns one row per budget
            assert metrics.power_mw == tuple(float(p) * 1e3 for p in np.ravel(result))
