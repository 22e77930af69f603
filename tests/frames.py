"""Frames one object each, for tests that are easier to write or check frame
by frame.

``mcpa`` holds recorded frames only as columns, with their tags as (frame,
tag) pairs (:class:`mcpa.gae.FrameStore`). ``MemoryItem`` is the per-frame
record the columns replaced, its tags a set; ``store`` turns
a list of them into a store, ``items`` reads a store back, and
``reference_caption`` renders one the way ``mcpa.remote`` captions a frame.
They are per-item loops, so they stay an oracle independent of the column
operations they check.
"""
from __future__ import annotations

from dataclasses import dataclass

from mcpa.gae import FrameStore


@dataclass(frozen=True)
class MemoryItem:
    """One recorded frame: timestamp, 6-DoF pose, observed event tags.

    ``robot_id`` records which robot captured the frame; the aggregated
    server memory keeps items indexed by robot, and reporter questions are
    graded against that attribution.
    """

    timestamp_s: float
    pose: tuple[float, float, float, float, float, float]
    tags: frozenset[str]
    robot_id: int

    def __post_init__(self):
        if self.timestamp_s < 0.0:
            raise ValueError("timestamp_s must be nonnegative")
        if len(self.pose) != 6:
            raise ValueError("pose must have six components (x, y, z, roll, pitch, yaw)")

    @property
    def xy(self) -> tuple[float, float]:
        return (self.pose[0], self.pose[1])


def store(items) -> FrameStore:
    """A store of ``MemoryItem``s: one (frame, tag) pair per item and tag."""
    items = list(items)
    pairs = [(i, tag) for i, item in enumerate(items) for tag in sorted(item.tags)]
    tags = sorted({tag for _, tag in pairs})
    return FrameStore([item.robot_id for item in items], [item.timestamp_s for item in items],
                      [item.pose for item in items], [i for i, _ in pairs],
                      [tags.index(tag) for _, tag in pairs], tags)


def items(frames: FrameStore) -> list[MemoryItem]:
    """Every frame of the store as a ``MemoryItem``, in order."""
    tags = [set() for _ in range(len(frames))]
    for i, tag_id in zip(frames.hits.tolist(), frames.tag_ids.tolist()):
        tags[i].add(frames.tags[tag_id])
    poses = frames.poses.tolist()           # gathered from the pose table once
    return [MemoryItem(timestamp_s=float(frames.timestamps[i]), pose=tuple(poses[i]),
                       tags=frozenset(tags[i]), robot_id=int(frames.robot_ids[i]))
            for i in range(len(frames))]


def reference_caption(item: MemoryItem) -> str:
    """Render one memory item the way a captioner would describe the frame."""
    seen = ", ".join(sorted(item.tags)) if item.tags else "nothing notable"
    x, y = item.xy
    return (f"[t={item.timestamp_s:.2f}s robot={item.robot_id} "
            f"pos=({x:.1f}, {y:.1f})] saw: {seen}")
