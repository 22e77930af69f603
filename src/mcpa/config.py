"""Experiment configuration: JSON ingestion, validation, dB conversion.

A config is a single JSON document; every default below is overridable.
Fields carrying decibel values are suffixed ``_db`` / ``_dbm`` and are the
only place dB appears; everything downstream is linear SI.
"""
from __future__ import annotations

import copy
import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

from .channel import RadioConstants
from .qom import DatasetMeta
from .solver import SolverOptions

__all__ = [
    "ConfigError",
    "RemoteSettings",
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

DEFAULT_CONFIG: dict = {
    "num_robots": 10,
    "radio": {
        "bandwidth_hz": 1.0e7,
        "noise_dbm": -100.0,
        "ref_pathloss_db": -30.0,
        "shadow_fading_db": -20.0,
        "pathloss_exponent": 3.0,
        "num_antennas": 256,
    },
    "geometry": {
        "distance_min_m": 50.0,
        "distance_max_m": 250.0,
        "server_height_m": 20.0,
    },
    "budgets": {
        "power_sum_mw": 200.0,
        "time_s": 600.0,
    },
    "dataset": {
        "items_per_robot": 1050,
        "item_volume_bits": 1.6e6,
        "frame_rate_fps": 35.0,
    },
    "gae": {
        "pilot_ratio": 0.01,
        "questions_per_robot": 10,
        "backend": "synthetic",
    },
    "world": {
        "objects": list(DEFAULT_OBJECTS),
        "num_base_robots": 5,
        "base_robots": None,           # explicit list overrides the random draw
        "staged_novel_counts": None,   # e.g. [0, 1, 2, 3, 4] for the staged layout
        "object_dwell_frames": 300,
        "num_landmarks": 40,
        "segment_frames": 30,
        "background_tag_rate": 1.0,
        "town_extent_m": 1000.0,
    },
    "metrics": {
        "coverage_margin": 0.3,        # max_cov targets (1 + margin) * half dataset
    },
    "seeds": {
        "channel": 1,
        "placement": 2,
        "pilot": 3,
        "run": 0,
    },
    "solver": asdict(SolverOptions()),
    "remote": {
        "url": None,
        "model": "qwen3-8b",
        "timeout_s": 60.0,
        "retries": 3,
        "max_concurrency": 1,
        "transcript_path": None,
    },
}


@dataclass(frozen=True)
class RemoteSettings:
    url: str | None
    model: str
    timeout_s: float
    retries: int
    max_concurrency: int
    transcript_path: str | None


@dataclass(frozen=True)
class Scenario:
    """Fully resolved experiment description (all linear units)."""

    num_robots: int
    radio: RadioConstants
    distance_min_m: float
    distance_max_m: float
    server_height_m: float
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
    remote: RemoteSettings


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"{where}: unknown configuration field")
        if isinstance(base[key], dict) and not isinstance(value, dict):
            raise ConfigError(f"{where}: expected an object")
        if isinstance(base[key], dict):
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _require(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{where}: {message}")


def _number(cfg: dict, section: str, key: str, positive: bool = False) -> float:
    value = cfg[section][key]
    where = f"{section}.{key}"
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and abs(value) <= sys.float_info.max, where, "must be a finite number")
    if positive:
        _require(value > 0, where, "must be strictly positive")
    return float(value)


def _integer(cfg: dict, section: str, key: str) -> int:
    """A positive integer field; a fractional or non-numeric value is an
    error rather than something to truncate."""
    value = cfg[section][key]
    _require(isinstance(value, int) and not isinstance(value, bool) and value >= 1,
             f"{section}.{key}", "must be an integer >= 1")
    return value


def load_config(path: str | Path) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc


def build_scenario(config: dict | None = None) -> Scenario:
    """Resolve a (possibly partial) config dict against the defaults.

    Deterministic: the same dict always produces the same Scenario. Schema
    violations raise :class:`ConfigError` naming the offending field.
    """
    cfg = _merge(DEFAULT_CONFIG, config or {})

    num_robots = cfg["num_robots"]
    _require(isinstance(num_robots, int) and num_robots >= 1,
             "num_robots", "must be an integer >= 1")

    exponent = _number(cfg, "radio", "pathloss_exponent")
    _require(exponent >= 1.0, "radio.pathloss_exponent", "must be at least 1")
    radio = RadioConstants(
        bandwidth_hz=_number(cfg, "radio", "bandwidth_hz", positive=True),
        noise_power_w=dbm_to_watts(_number(cfg, "radio", "noise_dbm")),
        ref_pathloss_linear=db_to_linear(_number(cfg, "radio", "ref_pathloss_db")),
        shadow_fading_linear=db_to_linear(_number(cfg, "radio", "shadow_fading_db")),
        pathloss_exponent=exponent,
        num_antennas=_integer(cfg, "radio", "num_antennas"),
    )

    d_min = _number(cfg, "geometry", "distance_min_m", positive=True)
    d_max = _number(cfg, "geometry", "distance_max_m", positive=True)
    _require(d_min < d_max, "geometry.distance_max_m", "must exceed distance_min_m")

    power_w = _number(cfg, "budgets", "power_sum_mw", positive=True) / 1e3
    time_s = _number(cfg, "budgets", "time_s", positive=True)

    items = _integer(cfg, "dataset", "items_per_robot")
    item_bits = _number(cfg, "dataset", "item_volume_bits", positive=True)
    pilot_ratio = _number(cfg, "gae", "pilot_ratio", positive=True)
    _require(pilot_ratio <= 1.0, "gae.pilot_ratio", "must be at most 1")
    dataset = DatasetMeta.uniform(num_robots, items, item_bits, pilot_ratio)

    questions = _integer(cfg, "gae", "questions_per_robot")
    backend = cfg["gae"]["backend"]
    _require(backend in ("synthetic", "remote"),
             "gae.backend", "must be 'synthetic' or 'remote'")

    world = cfg["world"]
    objects = tuple(world["objects"])
    _require(len(objects) >= 1 and all(isinstance(o, str) for o in objects),
             "world.objects", "must be a nonempty list of strings")

    base_robots = world["base_robots"]
    if base_robots is not None:
        base_robots = tuple(int(b) for b in base_robots)
        _require(all(0 <= b < num_robots for b in base_robots),
                 "world.base_robots", f"indices must lie in [0, {num_robots})")
    num_base = world["num_base_robots"]
    _require(isinstance(num_base, int) and 0 <= num_base <= num_robots,
             "world.num_base_robots", f"must lie in [0, {num_robots}]")

    staged = world["staged_novel_counts"]
    if staged is not None:
        staged = tuple(int(c) for c in staged)
        _require(len(staged) == num_robots,
                 "world.staged_novel_counts", f"needs one count per robot ({num_robots})")
        _require(sum(staged) == len(objects),
                 "world.staged_novel_counts",
                 f"counts must sum to the number of objects ({len(objects)})")

    dwell = world["object_dwell_frames"]
    _require(isinstance(dwell, int) and 1 <= dwell <= items,
             "world.object_dwell_frames", f"must lie in [1, {items}]")
    tag_rate = _number(cfg, "world", "background_tag_rate")
    _require(0.0 <= tag_rate <= 1.0, "world.background_tag_rate", "must lie in [0, 1]")

    seeds = cfg["seeds"]
    for name in ("channel", "placement", "pilot", "run"):
        _require(isinstance(seeds[name], int) and seeds[name] >= 0,
                 f"seeds.{name}", "must be a nonnegative integer")

    margin = _number(cfg, "metrics", "coverage_margin")
    _require(margin >= 0.0, "metrics.coverage_margin", "must be nonnegative")

    solver = SolverOptions(
        inner_tol=_number(cfg, "solver", "inner_tol", positive=True),
        outer_tol=_number(cfg, "solver", "outer_tol", positive=True),
        max_outer=_integer(cfg, "solver", "max_outer"),
        max_inner=_integer(cfg, "solver", "max_inner"),
    )

    remote_cfg = cfg["remote"]
    remote = RemoteSettings(
        url=remote_cfg["url"],
        model=str(remote_cfg["model"]),
        timeout_s=_number(cfg, "remote", "timeout_s", positive=True),
        retries=_integer(cfg, "remote", "retries"),
        max_concurrency=_integer(cfg, "remote", "max_concurrency"),
        transcript_path=remote_cfg["transcript_path"],
    )

    return Scenario(
        num_robots=num_robots,
        radio=radio,
        distance_min_m=d_min,
        distance_max_m=d_max,
        server_height_m=_number(cfg, "geometry", "server_height_m", positive=True),
        power_budget_w=power_w,
        time_budget_s=time_s,
        dataset=dataset,
        frame_rate_fps=_number(cfg, "dataset", "frame_rate_fps", positive=True),
        pilot_ratio=pilot_ratio,
        questions_per_robot=questions,
        backend=backend,
        objects=objects,
        num_base_robots=num_base,
        base_robots=base_robots,
        staged_novel_counts=staged,
        object_dwell_frames=dwell,
        num_landmarks=_integer(cfg, "world", "num_landmarks"),
        segment_frames=_integer(cfg, "world", "segment_frames"),
        background_tag_rate=tag_rate,
        town_extent_m=_number(cfg, "world", "town_extent_m", positive=True),
        coverage_margin=margin,
        seeds=dict(seeds),
        solver=solver,
        remote=remote,
    )
