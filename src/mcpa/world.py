"""Synthetic desk-scale town: landmark routes, abnormal objects, questions.

Frames carry the tag of the landmark their robot is passing (the caption
surrogate for ordinary streetscape) at the configured background rate;
frames inside an object's dwell window additionally carry the object tag.
Each robot's frames are numpy columns (a :class:`~mcpa.gae.FrameStore`).
Ground-truth questions ask all three templates about each placed object;
they are exam columns, as a drawn :class:`~mcpa.gae.Exam` holds them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Scenario
from .gae import TEMPLATES, FrameStore

__all__ = ["PlacedObject", "WorldInstance", "build_world", "landmark_tag"]


def landmark_tag(index: int) -> str:
    return f"landmark-{index:02d}"


@dataclass(frozen=True)
class PlacedObject:
    name: str
    host_robot: int
    window_start: int
    window_len: int
    position: tuple[float, float]


@dataclass(frozen=True)
class WorldInstance:
    datasets: tuple[FrameStore, ...]
    base_robots: tuple[int, ...]
    base_memory: FrameStore
    placed_objects: tuple[PlacedObject, ...]
    questions: tuple          # exam columns (templates, tags, tag_ids, truth)


def _staged_windows(num_objects: int, num_frames: int, dwell: int):
    """Evenly spaced, non-overlapping dwell windows for the staged layout."""
    if num_objects == 0:
        return []
    width = min(dwell, num_frames // num_objects)
    return [(int(np.floor(i * num_frames / num_objects)), width)
            for i in range(num_objects)]


def build_world(scenario: Scenario, rng: np.random.Generator) -> WorldInstance:
    """Instantiate one run's town, robot datasets, base memory and questions."""
    k = scenario.num_robots
    frames = int(scenario.dataset.num_items[0])
    extent = scenario.town_extent_m
    landmarks = rng.uniform(0.0, extent, size=(scenario.num_landmarks, 2))

    # landmark routes; the staged layout shares one route so background
    # content is identical across robots
    seg = scenario.segment_frames
    num_segments = int(np.ceil(frames / seg))
    if scenario.staged_novel_counts is not None:
        shared = rng.integers(0, scenario.num_landmarks, size=num_segments)
        routes = np.tile(shared, (k, 1))
    else:
        routes = rng.integers(0, scenario.num_landmarks, size=(k, num_segments))

    # every robot's frames as columns: the landmark each frame passes, its
    # position there, and its timestamp
    route_at = routes[:, np.arange(frames) // seg]                 # (k, frames)
    poses = np.zeros((k, frames, 6))
    poses[:, :, :2] = landmarks[route_at]
    poses[:, :, 2] = 10.0
    timestamps = np.arange(frames) / scenario.frame_rate_fps

    # object placement: host robot, dwell window and the host's position at its start
    placed: list[PlacedObject] = []
    if scenario.staged_novel_counts is not None:
        names = iter(scenario.objects)
        for robot, count in enumerate(scenario.staged_novel_counts):
            for start, width in _staged_windows(count, frames, scenario.object_dwell_frames):
                placed.append(PlacedObject(next(names), robot, start, width,
                                           position=tuple(poses[robot, start, :2].tolist())))
    else:
        dwell = scenario.object_dwell_frames
        for name in scenario.objects:
            host = int(rng.integers(0, k))
            start = int(rng.integers(0, frames - dwell + 1))
            placed.append(PlacedObject(name, host, start, dwell,
                                       position=tuple(poses[host, start, :2].tolist())))

    # which ordinary frames get captioned with their landmark: a rate of 1
    # tags everything; sparse rates model a captioner that only remarks on
    # distinctive scenery every so often
    tag_rate = scenario.background_tag_rate
    if tag_rate >= 1.0:
        bg_tagged = np.ones((k, frames), dtype=bool)
    else:
        bg_tagged = rng.random((k, frames)) < tag_rate
    background = np.where(bg_tagged, route_at, -1)
    vocabulary = tuple(landmark_tag(i) for i in range(scenario.num_landmarks))

    def frame_store(robots) -> FrameStore:
        """The listed robots' frames, one robot after another."""
        robots = np.asarray(robots, dtype=np.intp)
        events = [(o.name, offset + o.window_start, offset + o.window_start + o.window_len)
                  for offset, robot in zip(range(0, len(robots) * frames, frames), robots)
                  for o in placed if o.host_robot == robot]
        return FrameStore(robot_ids=np.repeat(robots, frames),
                          timestamps=np.tile(timestamps, len(robots)),
                          poses=poses[robots], background=background[robots].ravel(),
                          vocabulary=vocabulary, events=events)

    datasets = tuple(frame_store([robot]) for robot in range(k))

    # pre-collection memory: full datasets of the seed robots
    if scenario.base_robots is not None:
        base_robots = tuple(scenario.base_robots)
    else:
        base_robots = tuple(sorted(int(b) for b in rng.choice(
            k, size=scenario.num_base_robots, replace=False)))
    base_memory = frame_store(base_robots)

    # ground-truth exam: every template about each placed object, asked as
    # its host recorded it at the window start
    hosts = np.array([o.host_robot for o in placed])
    truth = np.zeros((len(placed), len(TEMPLATES), 3))
    truth[:, 0, 0], truth[:, 2, 0] = 1.0, hosts
    truth[:, 1] = poses[hosts, [o.window_start for o in placed]][:, [0, 1, 5]]
    tags = tuple(dict.fromkeys(o.name for o in placed))
    questions = (np.tile(np.arange(len(TEMPLATES)), len(placed)), tags,
                 np.array([tags.index(o.name) for o in placed]).repeat(len(TEMPLATES)),
                 truth.reshape(-1, 3))

    return WorldInstance(
        datasets=datasets,
        base_robots=base_robots,
        base_memory=base_memory,
        placed_objects=tuple(placed),
        questions=questions,
    )
