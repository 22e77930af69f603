"""Synthetic desk-scale town: landmark routes, abnormal objects, questions.

Frames carry the tag of the landmark their robot is passing (the caption
surrogate for ordinary streetscape) at the configured background rate;
frames inside an object's dwell window additionally carry the object tag.
Each robot's frames are numpy columns (a :class:`~mcpa.gae.FrameStore`).
Ground-truth questions ask all three templates about each placed object.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Scenario
from .gae import FrameStore, Question

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
    questions: tuple[Question, ...]


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

    # object placement: host robot and dwell window per object
    placed: list[PlacedObject] = []
    if scenario.staged_novel_counts is not None:
        next_obj = 0
        for robot, count in enumerate(scenario.staged_novel_counts):
            for start, width in _staged_windows(count, frames, scenario.object_dwell_frames):
                placed.append(PlacedObject(scenario.objects[next_obj], robot, start, width,
                                           position=(0.0, 0.0)))
                next_obj += 1
    else:
        dwell = scenario.object_dwell_frames
        for name in scenario.objects:
            host = int(rng.integers(0, k))
            start = int(rng.integers(0, frames - dwell + 1))
            placed.append(PlacedObject(name, host, start, dwell, position=(0.0, 0.0)))

    # every robot's frames as columns: the landmark each frame passes, its
    # position there, and its timestamp
    route_at = routes[:, np.arange(frames) // seg]                 # (k, frames)
    poses = np.zeros((k, frames, 6))
    poses[:, :, :2] = landmarks[route_at]
    poses[:, :, 2] = 10.0
    timestamps = np.arange(frames) / scenario.frame_rate_fps

    # resolve object positions to the host's pose at the window start
    placed = [
        PlacedObject(o.name, o.host_robot, o.window_start, o.window_len,
                     position=tuple(poses[o.host_robot, o.window_start, :2].tolist()))
        for o in placed
    ]

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

    # ground-truth exam: presence / location / reporter per placed object
    questions = []
    for o in placed:
        x, y = o.position
        questions.append(Question("presence", o.name, f"Is there a {o.name}?", "YES"))
        questions.append(Question("location", o.name, f"Where is the {o.name}?",
                                  (x, y, 0.0)))
        questions.append(Question("reporter", o.name, f"Which robot sees the {o.name}?",
                                  o.host_robot))

    return WorldInstance(
        datasets=datasets,
        base_robots=base_robots,
        base_memory=base_memory,
        placed_objects=tuple(placed),
        questions=tuple(questions),
    )
