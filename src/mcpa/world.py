"""Synthetic desk-scale town: landmark routes, abnormal objects, questions.

Frames carry the tag of the landmark their robot is passing (the caption
surrogate for ordinary streetscape) at the configured background rate;
frames inside an object's dwell window additionally carry the object tag.
Each robot's frames are numpy columns, its tags (frame, tag) pairs (a
:class:`~mcpa.gae.FrameStore`).
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

    # every robot's frames as columns: the landmark each frame passes (its pose id,
    # a row of the one pose table; a robot's ids view its row here) and its timestamp
    route_at = routes.repeat(seg, axis=1)[:, :frames]              # (k, frames), rows contiguous
    poses = np.zeros((scenario.num_landmarks, 6))                  # (x, y, 10 m, 0, 0, 0)
    poses[:, :2], poses[:, 2] = landmarks, 10.0
    timestamps = np.arange(frames) / scenario.frame_rate_fps

    # object placement: host robot, dwell window and the host's position at its start
    placed: list[PlacedObject] = []
    if scenario.staged_novel_counts is not None:
        names = iter(scenario.objects)
        for robot, count in enumerate(scenario.staged_novel_counts):
            for start, width in _staged_windows(count, frames, scenario.object_dwell_frames):
                placed.append(PlacedObject(next(names), robot, start, width, position=tuple(
                    landmarks[route_at[robot, start]].tolist())))
    else:
        dwell = scenario.object_dwell_frames
        for name in scenario.objects:
            host = int(rng.integers(0, k))
            start = int(rng.integers(0, frames - dwell + 1))
            placed.append(PlacedObject(name, host, start, dwell,
                                       position=tuple(landmarks[route_at[host, start]].tolist())))

    # which ordinary frames get captioned with their landmark: a rate of 1
    # tags everything; sparse rates model a captioner that only remarks on
    # distinctive scenery every so often
    tag_rate = scenario.background_tag_rate
    bg_tagged = (np.ones((k, frames), dtype=bool) if tag_rate >= 1.0
                 else rng.random((k, frames)) < tag_rate)
    landmark_names = tuple(landmark_tag(i) for i in range(scenario.num_landmarks))
    by_host = [[] for _ in range(k)]            # each robot's placed objects
    for o in placed:
        by_host[o.host_robot].append(o)

    def dataset(robot: int, hosted: list[PlacedObject]) -> FrameStore:
        """The robot's frames, tagged with their landmark and the ``hosted`` objects."""
        captioned = bg_tagged[robot].nonzero()[0]
        windows = [np.arange(o.window_start, o.window_start + o.window_len) for o in hosted]
        objects = np.arange(len(hosted)).repeat([o.window_len for o in hosted])
        return FrameStore(np.full(frames, robot), timestamps, poses, pose_ids=route_at[robot],
                          hits=np.concatenate([captioned, *windows]),
                          tag_ids=np.concatenate([route_at[robot, captioned],
                                                  scenario.num_landmarks + objects]),
                          tags=landmark_names + tuple(o.name for o in hosted))

    datasets = tuple(map(dataset, range(k), by_host))

    # pre-collection memory: full datasets of the seed robots
    if scenario.base_robots is not None:
        base_robots = tuple(scenario.base_robots)
    else:
        base_robots = tuple(sorted(int(b) for b in rng.choice(
            k, size=scenario.num_base_robots, replace=False)))
    base_memory = FrameStore.concatenate([datasets[robot] for robot in base_robots])

    # ground-truth exam: every template about each placed object, asked as
    # its host recorded it at the window start
    hosts = np.array([o.host_robot for o in placed])
    truth = np.zeros((len(placed), len(TEMPLATES), 3))
    truth[:, 0, 0], truth[:, 2, 0] = 1.0, hosts
    truth[:, 1] = poses[route_at[hosts, [o.window_start for o in placed]]][:, [0, 1, 5]]
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
