"""The config boundary: one rule per leaf, and every hostile JSON value either
builds a scenario or fails as a ConfigError."""
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR
from mcpa.config import DEFAULT_CONFIG, ConfigError, Scenario, build_scenario, load_config
from mcpa.remote import RemoteBackend
from mcpa.solver import SolverOptions

# json.loads accepts NaN and Infinity, so a config file can hold them
HOSTILE = [True, False, -1, 0, 0.5, 1.5, "3", None, [], {}, math.nan, math.inf]
LIST_LEAVES = {("world", "objects"), ("world", "base_robots"),
               ("world", "staged_novel_counts")}


def leaves(tree, path=()):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from leaves(value, path + (key,))
        else:
            yield path + (key,)


LEAVES = list(leaves(DEFAULT_CONFIG))


def overriding(pairs) -> dict:
    override: dict = {}
    for path, value in pairs:
        node = override
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
    return override


def check_outcome(pairs) -> None:
    """build_scenario returns a Scenario or raises ConfigError, and never
    takes a boolean as a number or a string as a list."""
    # through JSON text, as a config file reaches build_scenario
    override = json.loads(json.dumps(overriding(pairs)))
    try:
        scenario = build_scenario(override)
    except ConfigError:
        return
    assert isinstance(scenario, Scenario)
    for path, value in pairs:
        assert not isinstance(value, bool), f"{path} took {value!r}"
        assert not (isinstance(value, str) and path in LIST_LEAVES), f"{path} took {value!r}"


def test_default_config_has_41_leaves_and_the_solver_options_defaults():
    assert len(LEAVES) == 41
    assert SolverOptions(**DEFAULT_CONFIG["solver"]) == SolverOptions()
    assert build_scenario(DEFAULT_CONFIG).solver == SolverOptions()


def test_server_height_is_no_longer_a_field():
    # it never reached the channel model: solve output was the same at any height
    with pytest.raises(ConfigError, match="geometry.server_height_m: unknown"):
        build_scenario({"geometry": {"server_height_m": 20.0}})


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name)
def test_every_shipped_config_builds(path):
    assert isinstance(build_scenario(load_config(path)), Scenario)


def test_remote_section_is_the_backend_keywords(tmp_path):
    transcript = tmp_path / "transcript.jsonl"
    section = {"url": "http://127.0.0.1:9/v1", "model": "m2", "timeout_s": 5.0,
               "retries": 2, "max_concurrency": 3, "transcript_path": str(transcript)}
    assert section.keys() == DEFAULT_CONFIG["remote"].keys()
    backend = RemoteBackend(**build_scenario({"remote": section}).remote)
    assert (backend.url, backend.model, backend.timeout_s, backend.retries,
            backend.max_concurrency) == ("http://127.0.0.1:9/v1", "m2", 5.0, 2, 3)
    backend.transcript.log({"probe": 1}, "ok")
    assert transcript.exists()


@pytest.mark.parametrize("path", LEAVES, ids=".".join)
def test_each_hostile_value_at_each_leaf(path):
    for value in HOSTILE:
        check_outcome([(path, value)])


@settings(max_examples=200)
@given(st.lists(st.tuples(st.sampled_from(LEAVES), st.sampled_from(HOSTILE)),
                min_size=2, max_size=4, unique_by=lambda pair: pair[0]))
def test_hostile_values_at_several_leaves_at_once(pairs):
    check_outcome(pairs)


def test_numbers_become_floats_and_counts_stay_integers():
    scenario = build_scenario({"remote": {"timeout_s": 5, "retries": 2},
                               "budgets": {"time_s": 600}, "world": {"objects": ["bus"]}})
    assert type(scenario.remote["timeout_s"]) is float and scenario.remote["timeout_s"] == 5.0
    assert type(scenario.remote["retries"]) is int
    assert type(scenario.time_budget_s) is float
    assert scenario.objects == ("bus",)


@pytest.mark.parametrize("document", [[], [1], 5, "x", True], ids=repr)
def test_a_config_document_must_be_an_object(document):
    # an empty list would otherwise pass for the defaults
    with pytest.raises(ConfigError, match="config: must be a JSON object"):
        build_scenario(document)
