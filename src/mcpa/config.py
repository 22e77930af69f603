"""Experiment configuration: JSON ingestion, validation, dB conversion.

A config is a single JSON document; every default below is overridable.
Fields carrying decibel values are suffixed ``_db`` / ``_dbm`` and are the
only place dB appears; everything downstream is linear SI.
"""
from __future__ import annotations

import copy
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .channel import RadioConstants
from .qom import DatasetMeta
from .solver import SolverOptions

__all__ = [
    "ConfigError",
    "Scenario",
    "DEFAULT_CONFIG",
    "db_to_linear",
    "dbm_to_watts",
    "load_config",
    "build_scenario",
]


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending field path."""


def db_to_linear(value_db: float) -> float:
    return 10.0 ** (value_db / 10.0)


def dbm_to_watts(value_dbm: float) -> float:
    return 10.0 ** ((value_dbm - 30.0) / 10.0)


# The ten abnormal objects placed on the road in the reference scenario.
DEFAULT_OBJECTS = (
    "green car", "blue car", "white car", "purple car", "black car",
    "fire truck", "yamaha", "bus", "taxi", "traffic cone",
)


@dataclass(frozen=True)
class Scenario:
    """Fully resolved experiment description (all linear units). The
    geometry and world fields keep the names of their config leaves, and
    ``remote`` holds the checked remote section, keywords of
    ``remote.RemoteBackend``."""

    num_robots: int
    radio: RadioConstants
    distance_min_m: float
    distance_max_m: float
    power_budget_w: float
    time_budget_s: float
    dataset: DatasetMeta
    frame_rate_fps: float
    pilot_ratio: float
    questions_per_robot: int
    backend: str
    objects: tuple[str, ...]
    num_base_robots: int
    base_robots: tuple[int, ...] | None
    staged_novel_counts: tuple[int, ...] | None
    object_dwell_frames: int
    num_landmarks: int
    segment_frames: int
    background_tag_rate: float
    town_extent_m: float
    coverage_margin: float
    seeds: dict
    solver: SolverOptions
    remote: dict


def _require(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{where}: {message}")


def _is_number(value) -> bool:
    """A finite number, not a boolean, string or overflowing integer."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_int(value) -> bool:
    """An integer, not a fraction, string or boolean to be truncated."""
    return isinstance(value, int) and not isinstance(value, bool)


def _same(value):
    return value


# rule kinds: (test, message, conversion); numbers become floats, lists tuples
_NUMBER = (_is_number, "must be a finite number", float)
_POSITIVE = (lambda v: _is_number(v) and v > 0, "must be a strictly positive finite number", float)
_FRACTION = (lambda v: _is_number(v) and 0 <= v <= 1, "must be a number in [0, 1]", float)
_COUNT = (lambda v: _is_int(v) and v >= 1, "must be an integer >= 1", _same)
_INDEX = (lambda v: _is_int(v) and v >= 0, "must be a nonnegative integer", _same)
_STRING = (lambda v: isinstance(v, str), "must be a string", _same)
_OPTIONAL_STRING = (lambda v: v is None or isinstance(v, str), "must be a string or null", _same)
_NAMES = (lambda v: isinstance(v, (list, tuple)) and len(v) >= 1
          and all(isinstance(o, str) for o in v), "must be a nonempty list of strings", tuple)
_OPTIONAL_INDICES = (lambda v: v is None or isinstance(v, (list, tuple))
                     and all(_is_int(i) and i >= 0 for i in v),
                     "must be null or a list of nonnegative integers",
                     lambda v: v if v is None else tuple(v))

# every leaf of the config as (default, rule); a dict is a section
_SCHEMA: dict = {
    "num_robots": (10, _COUNT),
    "radio": {
        "bandwidth_hz": (1.0e7, _POSITIVE),
        "noise_dbm": (-100.0, _NUMBER),
        "ref_pathloss_db": (-30.0, _NUMBER),
        "shadow_fading_db": (-20.0, _NUMBER),
        "pathloss_exponent": (3.0, _NUMBER),
        "num_antennas": (256, _COUNT),
    },
    "geometry": {
        "distance_min_m": (50.0, _POSITIVE),
        "distance_max_m": (250.0, _POSITIVE),
    },
    "budgets": {
        "power_sum_mw": (200.0, _POSITIVE),
        "time_s": (600.0, _POSITIVE),
    },
    "dataset": {
        "items_per_robot": (1050, _COUNT),
        "item_volume_bits": (1.6e6, _POSITIVE),
        "frame_rate_fps": (35.0, _POSITIVE),
    },
    "gae": {
        "pilot_ratio": (0.01, _POSITIVE),
        "questions_per_robot": (10, _COUNT),
        "backend": ("synthetic", _STRING),
    },
    "world": {
        "objects": (list(DEFAULT_OBJECTS), _NAMES),
        "num_base_robots": (5, _INDEX),
        "base_robots": (None, _OPTIONAL_INDICES),   # explicit list overrides the random draw
        "staged_novel_counts": (None, _OPTIONAL_INDICES),  # e.g. [0, 1, 2, 3, 4], staged
        "object_dwell_frames": (300, _COUNT),
        "num_landmarks": (40, _COUNT),
        "segment_frames": (30, _COUNT),
        "background_tag_rate": (1.0, _FRACTION),
        "town_extent_m": (1000.0, _POSITIVE),
    },
    "metrics": {
        "coverage_margin": (0.3, _NUMBER),   # max_cov targets (1 + margin) * half dataset
    },
    "seeds": {"channel": (1, _INDEX), "placement": (2, _INDEX), "pilot": (3, _INDEX),
              "run": (0, _INDEX)},
    "solver": {f.name: (f.default, _COUNT if _is_int(f.default) else _POSITIVE)
               for f in fields(SolverOptions)},
    "remote": {
        "url": (None, _OPTIONAL_STRING),
        "model": ("qwen3-8b", _STRING),
        "timeout_s": (60.0, _POSITIVE),
        "retries": (3, _COUNT),
        "max_concurrency": (1, _COUNT),
        "transcript_path": (None, _OPTIONAL_STRING),
    },
}


def _defaults(schema: dict) -> dict:
    return {key: _defaults(entry) if isinstance(entry, dict) else copy.deepcopy(entry[0])
            for key, entry in schema.items()}


DEFAULT_CONFIG: dict = _defaults(_SCHEMA)


def _resolve(schema: dict, documents: list, path: str = "") -> dict:
    """One section of the config: each leaf from the last document that sets
    it, else its default, checked by its rule and converted."""
    for document in documents:
        _require(isinstance(document, dict), path.rstrip(".") or "config",
                 "must be a JSON object")
        for key in document:
            _require(key in schema, path + key, "unknown configuration field")
    section = {}
    for key, entry in schema.items():
        given = [document[key] for document in documents if key in document]
        if isinstance(entry, dict):
            section[key] = _resolve(entry, given, f"{path}{key}.")
        else:
            default, (accepts, message, convert) = entry
            value = given[-1] if given else default
            _require(accepts(value), path + key, message)
            section[key] = convert(value)
    return section


def load_config(path: str | Path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc


def build_scenario(config: dict | None = None, override: dict | None = None) -> Scenario:
    """Resolve a (possibly partial) config dict, and then ``override`` (a
    partial config such as a command-line option), against the defaults.

    Deterministic: the same dicts always produce the same Scenario. Every
    leaf is first checked by its rule in ``_SCHEMA`` (numbers become floats,
    lists tuples), then the checks that relate fields run; violations raise
    :class:`ConfigError` naming the offending field.
    """
    cfg = _resolve(_SCHEMA, [{} if config is None else config, override or {}])
    k = cfg["num_robots"]
    radio, geometry, world = cfg["radio"], cfg["geometry"], cfg["world"]
    dataset, gae = cfg["dataset"], cfg["gae"]
    _require(radio["pathloss_exponent"] >= 1.0, "radio.pathloss_exponent", "must be at least 1")
    _require(geometry["distance_min_m"] < geometry["distance_max_m"],
             "geometry.distance_max_m", "must exceed distance_min_m")
    _require(gae["pilot_ratio"] <= 1.0, "gae.pilot_ratio", "must be at most 1")
    _require(gae["backend"] in ("synthetic", "remote"),
             "gae.backend", "must be 'synthetic' or 'remote'")
    base = world["base_robots"]
    _require(base is None or (all(b < k for b in base) and len(set(base)) == len(base)),
             "world.base_robots", f"must be distinct integers in [0, {k})")
    _require(world["num_base_robots"] <= k, "world.num_base_robots", f"must lie in [0, {k}]")
    staged = world["staged_novel_counts"]
    if staged is not None:
        _require(len(staged) == k, "world.staged_novel_counts",
                 f"needs one nonnegative integer count per robot ({k})")
        _require(sum(staged) == len(world["objects"]), "world.staged_novel_counts",
                 f"counts must sum to the number of objects ({len(world['objects'])})")
    items = dataset["items_per_robot"]
    _require(world["object_dwell_frames"] <= items,
             "world.object_dwell_frames", f"must lie in [1, {items}]")
    _require(cfg["metrics"]["coverage_margin"] >= 0.0,
             "metrics.coverage_margin", "must be nonnegative")

    try:
        constants = RadioConstants(
            bandwidth_hz=radio["bandwidth_hz"],
            noise_power_w=dbm_to_watts(radio["noise_dbm"]),
            ref_pathloss_linear=db_to_linear(radio["ref_pathloss_db"]),
            shadow_fading_linear=db_to_linear(radio["shadow_fading_db"]),
            pathloss_exponent=radio["pathloss_exponent"],
            num_antennas=radio["num_antennas"],
        )
    except (ValueError, OverflowError) as exc:   # a dB value past the float range
        raise ConfigError(f"radio: a dB value gives no usable linear constant ({exc})") from exc
    return Scenario(
        num_robots=k,
        radio=constants,
        **geometry,
        power_budget_w=cfg["budgets"]["power_sum_mw"] / 1e3,
        time_budget_s=cfg["budgets"]["time_s"],
        dataset=DatasetMeta.uniform(k, items, dataset["item_volume_bits"], gae["pilot_ratio"]),
        frame_rate_fps=dataset["frame_rate_fps"],
        pilot_ratio=gae["pilot_ratio"],
        questions_per_robot=gae["questions_per_robot"],
        backend=gae["backend"],
        **world,
        coverage_margin=cfg["metrics"]["coverage_margin"],
        seeds=cfg["seeds"],
        solver=SolverOptions(**cfg["solver"]),
        remote=cfg["remote"],
    )
