"""Generative adversarial exam: pilot sampling, exam generation, practice test.

The synthetic backend stands in for the VLM/LLM stack: each recorded frame
carries a set of tags (the caption surrogate) and exams are graded by exact
tag lookup, so a memory scores 1.0 on any exam generated from its own
content. The path is columnar end to end: frames are columns and their tags
(frame, tag) pairs (:class:`FrameStore`), a pilot is a sub-store of its
dataset, exams and the world's questions are columns (template, tag id,
ground truth) rendered as :class:`Question` objects only for ``repr``, and a
:class:`MemoryIndex` of one or more stores holds each tag's hits once for
every exam and first-frame table graded against it. A backend readies the
base memory once (``prepare_memory``), then draws and grades every robot's
exam (``run_exams``); the remote one (:mod:`mcpa.remote`) delegates
questioning and answering to a chat-completion service but is graded by the same rules.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, repeat

import numpy as np

__all__ = [
    "LOCATION_RADIUS_M",
    "NOTHING_TAG",
    "TEMPLATES",
    "FrameStore",
    "Question",
    "Exam",
    "GaeReport",
    "GaeError",
    "MemoryIndex",
    "SyntheticBackend",
    "make_question",
    "pilot_size",
    "sample_pilot",
    "per_robot",
    "run_gae",
]

# Acceptable distance between a reported location and the ground truth.
LOCATION_RADIUS_M = 50.0

# Tag used for exams generated from pilots that observed nothing notable.
# No recorded frame ever carries it, so "is it there?" is answered NO by
# every memory and a vacuous pilot yields a full score (no novelty).
NOTHING_TAG = "__nothing_observed__"

TEMPLATES = ("presence", "location", "reporter")


class GaeError(RuntimeError):
    """Raised when an exam cannot be generated or graded."""


class FrameStore:
    """Recorded frames of one or more robots, held as columns.

    Frame ``i`` was captured by ``robot_ids[i]`` at ``timestamps[i]`` with pose
    ``pose_table[pose_ids[i]]`` (no ``pose_ids``: ``poses`` has a row per frame).
    Tag ``tags[tag_ids[j]]`` is on frame ``hits[j]``: the pairs come in any order
    and may repeat, and ``tags`` may name a tag twice or name tags on no frame.
    """

    def __init__(self, robot_ids, timestamps, poses, hits=(), tag_ids=(), tags=(), pose_ids=None):
        self.robot_ids = np.asarray(robot_ids, dtype=np.intp)
        self.timestamps = np.asarray(timestamps, dtype=float)
        table = np.asarray(poses, dtype=float)          # a (P, 6) table is kept as given
        self.pose_table = table if table.shape[1:] == (6,) else table.reshape(-1, 6)
        ids = np.arange(len(self.pose_table)) if pose_ids is None else np.asarray(pose_ids)
        self.hits = np.asarray(hits, dtype=np.intp)
        self.tag_ids = np.asarray(tag_ids, dtype=np.intp)
        self.tags = tuple(tags)
        if not (len(self.robot_ids) == len(self.timestamps)
                and len(self.hits) == len(self.tag_ids)):
            raise ValueError("store columns must have one entry per frame or per pair")
        ints = ids.dtype.kind in "iu" or not ids.size
        self.pose_ids = ids.astype(np.intp, copy=False) if ints else ids
        if ids.shape != (len(self),) or len(self) and not (    # viewed unsigned, ids < 0 are huge
                ints and self.pose_ids.view(np.uintp).max() < len(self.pose_table)):
            raise ValueError("pose_ids must be integers indexing pose table rows, one per frame")

    @classmethod
    def concatenate(cls, stores) -> "FrameStore":
        """The ``stores``' frames, one store after another, on their pose tables joined."""
        stores = [cls([], [], []), *stores]           # joining no store gives an empty one
        starts = accumulate(map(len, stores), initial=0)
        offsets = accumulate((len(store.tags) for store in stores), initial=0)
        rows = accumulate((len(store.pose_table) for store in stores), initial=0)
        return cls(*(np.concatenate([getattr(store, column) for store in stores])
                     for column in ("robot_ids", "timestamps", "pose_table")),
                   np.concatenate([store.hits + start for store, start in zip(stores, starts)]),
                   np.concatenate([store.tag_ids + shift for store, shift in zip(stores, offsets)]),
                   [tag for store in stores for tag in store.tags],
                   np.concatenate([store.pose_ids + row for store, row in zip(stores, rows)]))

    def __len__(self) -> int:
        return len(self.robot_ids)

    def pose(self, column=slice(None), frames=slice(None)) -> np.ndarray:
        """Pose ``column`` (0-5: x, y, z, roll, pitch, yaw) of the ``frames``."""
        return self.pose_table[:, column].take(self.pose_ids[frames], axis=0)

    poses = property(pose)              # every frame's pose row, gathered from the table

    def take(self, indices) -> "FrameStore":
        """The frames at the ascending ``indices``, as a store of their own
        with the pairs of those frames and the whole tag and pose tables."""
        indices = np.asarray(indices, dtype=np.intp)
        renumbered = np.full(len(self), -1, dtype=np.intp)
        renumbered[indices] = np.arange(len(indices))
        hits = renumbered[self.hits]
        kept = hits >= 0
        return FrameStore(self.robot_ids[indices], self.timestamps[indices], self.pose_table,
                          hits[kept], self.tag_ids[kept], self.tags, self.pose_ids[indices])

    def occurrences(self, names=None) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
        """``(frames, tag_ids, names)``: tag ``names[tag_ids[i]]`` is on frame
        ``frames[i]``, each pair once, frame by frame and in tag order within a
        frame. ``names`` defaults to the store's tags, sorted; given, others are left out."""
        return _occurrences([self], names)


@dataclass(frozen=True)
class Question:
    """One exam entry: template, queried tag, rendered text, ground truth.

    Ground truth by template: presence -> "YES"/"NO", location -> (x, y, yaw),
    reporter -> robot id.
    """

    template: str
    tag: str
    text: str
    answer: object

    def __post_init__(self):
        if self.template not in TEMPLATES:
            raise ValueError(f"unknown question template {self.template!r}")


def make_question(template: str, tag: str, truth) -> Question:
    """The question an exam column row holds (see :class:`Exam`); presence
    is answered YES for every tag but :data:`NOTHING_TAG`."""
    if tag == NOTHING_TAG:
        return Question("presence", tag, "Is there anything notable on record?", "NO")
    if template == "presence":
        return Question(template, tag, f"Is there a {tag}?", "YES")
    if template == "location":
        return Question(template, tag, f"Where is the {tag}?", tuple(truth))
    return Question(template, tag, f"Which robot sees the {tag}?", int(truth[0]))


class Exam:
    """Robot ``robot_id``'s exam. A drawn exam holds ``columns = (templates,
    tags, tag_ids, truth)``: question ``i`` asks ``TEMPLATES[templates[i]]``
    about ``tags[tag_ids[i]]`` with ground truth ``truth[i]``, (x, y, yaw)
    for location and, in column 0, the robot for reporter and 1.0 (YES) or
    0.0 (NO) for presence; its ``qa_pairs`` (:class:`Question` objects) are
    rendered on first use. A remote exam holds the ``qa_pairs`` it parsed
    and no columns."""

    def __init__(self, robot_id: int, qa_pairs=None, *, columns=None):
        self.robot_id, self.columns = robot_id, columns
        if columns is None:
            self.qa_pairs = tuple(qa_pairs)

    def __len__(self) -> int:
        return len(self.qa_pairs if self.columns is None else self.columns[0])

    @cached_property
    def qa_pairs(self) -> tuple[Question, ...]:
        templates, tags, tag_ids, truth = self.columns
        return tuple(make_question(TEMPLATES[t], tags[i], row) for t, i, row
                     in zip(templates.tolist(), tag_ids.tolist(), truth.tolist()))

    def __eq__(self, other) -> bool:
        return isinstance(other, Exam) and repr(self) == repr(other)

    def __repr__(self) -> str:
        return f"Exam(robot_id={self.robot_id!r}, qa_pairs={self.qa_pairs!r})"


@dataclass(frozen=True)
class GaeReport:
    """Per robot: GAE score, exam and pilot size |D~_k|, the frames the pilot overhead charges."""

    scores: np.ndarray
    pilot_sizes: np.ndarray
    exams: tuple[Exam, ...]

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=float)
        if not ((s >= 0.0) & (s <= 1.0)).all():                     # NaN fails too
            raise ValueError("GAE scores must lie in [0, 1]")
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "pilot_sizes", np.asarray(self.pilot_sizes, dtype=int))


def _occurrences(stores, names=None) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """:meth:`FrameStore.occurrences` of the ``stores`` joined one after another."""
    names = tuple(sorted({t for s in stores for t in s.tags})) if names is None else names
    ids = {name: i for i, name in enumerate(names)}
    keys = []
    for store, start in zip(stores, accumulate(map(len, stores), initial=0)):
        tag_ids = np.fromiter(map(ids.get, store.tags, repeat(-1)), np.intp)[store.tag_ids]
        keys.append(((store.hits + start) * len(names) + tag_ids)[tag_ids >= 0])
    keys = np.concatenate(keys)
    keys.sort()
    frames, tag_ids = np.divmod(keys[_run_starts(keys)], max(len(names), 1))
    return frames, tag_ids, names


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the entries of the sorted ``values`` that differ from the one before."""
    new = np.ones(len(values), dtype=bool)
    new[1:] = values[1:] != values[:-1]
    return new


def _within_radius(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """``math.hypot(dx, dy) <= LOCATION_RADIUS_M`` elementwise, bit for bit: the
    squared distance decides but near the radius, where ``math.hypot`` does."""
    squared = dx * dx + dy * dy
    near = squared <= LOCATION_RADIUS_M ** 2
    for i in (abs(squared - LOCATION_RADIUS_M ** 2) <= 1e-6).nonzero()[0].tolist():
        near[i] = math.hypot(dx[i], dy[i]) <= LOCATION_RADIUS_M
    return near


class MemoryIndex:
    """The tag hits of one store, or of a list of stores joined in order (store
    ``d`` holds rows ``bounds[d]:bounds[d + 1]``), for all or the listed ``tags``,
    grouped by runs of a store's consecutive frames taken at one place (x, y,
    robot), which answer every question alike: ``first[offsets[j]:offsets[j + 1]]``
    are the first frames of the groups of ``tags[j]``, at ``x``, ``y``, ``robots``."""

    def __init__(self, frames, tags=None):
        self._joined = not isinstance(frames, FrameStore)
        stores = list(frames) if self._joined else [frames]
        self.bounds = np.fromiter(accumulate(map(len, stores), initial=0), np.intp)
        span = int(self.bounds[-1]) + 1     # a frame index, or the memory's length
        hits, tag_ids, self.tags = _occurrences(stores, tags)
        runs = []               # each run's first frame, x, y and robot, store by store
        for store, lo in zip(stores, self.bounds.tolist()):
            x, y, robots = store.pose(0), store.pose(1), store.robot_ids
            moved = (x[1:] != x[:-1]) | (y[1:] != y[:-1]) | (robots[1:] != robots[:-1])
            at = np.flatnonzero(np.concatenate(([len(store) > 0], moved)))
            runs.append((at + lo, x[at], y[at], robots[at]))
        starts, x, y, robots = map(np.concatenate, zip(*runs))
        count = len(starts) + 1         # run ids count from 1; hits come frame by frame
        run = np.repeat(np.arange(1, count), np.diff(hits.searchsorted(starts), append=len(hits)))
        keys = (tag_ids * count + run) * span + hits
        keys.sort()
        groups, self.first = np.divmod(keys[_run_starts(keys // span)], span)
        self.x, self.y, self.robots = (column[groups % count - 1] for column in (x, y, robots))
        # row len(tags) is empty: the row of every tag the store lacks
        self.offsets = (groups // count).searchsorted(np.arange(len(self.tags) + 2))
        self._rows = {tag: j for j, tag in enumerate(self.tags)}

    def first_frames(self, columns) -> np.ndarray:
        """The first frame that alone answers each question of exam ``columns``
        (presence counted as YES), or the store's length. Such questions are
        answered by single frames, so a memory joined with a prefix of ``n``
        frames answers one exactly when it alone does or ``n`` exceeds this.
        Over a list of stores, a (question, store) table of these."""
        templates, tags, tag_ids, truth = columns
        rows = np.fromiter(map(self._rows.get, tags, repeat(len(self.tags))), np.intp)[tag_ids]
        lo = self.offsets[rows]
        count = self.offsets[rows + 1] - lo
        question = np.arange(len(rows)).repeat(count)      # one entry per candidate group
        group = np.arange(len(question)) + (lo - count.cumsum() + count).repeat(count)
        answer = truth[question]
        ok = np.choose(templates[question], (True, _within_radius(self.x[group] - answer[:, 0],
                                                                  self.y[group] - answer[:, 1]),
                                             self.robots[group] == answer[:, 0]))
        frame = self.first[group[ok]]
        store = self.bounds.searchsorted(frame, side="right") - 1
        first = np.tile(np.diff(self.bounds), (len(rows), 1))   # from each store's start
        np.minimum.at(first, (question[ok], store), frame - self.bounds[store])
        return first if self._joined else first[:, 0]

    def answers(self, columns) -> np.ndarray:
        """Whether the memory answers each question of exam ``columns``: some
        store has a frame that does; a presence question answered NO is right
        when no frame has the tag."""
        templates, _, _, truth = columns
        first = self.first_frames(columns).reshape(len(templates), -1)
        answered = (first < np.diff(self.bounds)).any(axis=1)
        return answered != ((templates == 0) & (truth[:, 0] == 0.0))     # flip answered NO


class SyntheticBackend:
    """Deterministic questioner/answerer driven purely by tag lookups."""

    name = "synthetic"

    def prepare_memory(self, memory: FrameStore) -> MemoryIndex:
        return MemoryIndex(memory)

    def run_exams(self, pilots, num_questions: int, seeds, index: MemoryIndex):
        """Every robot's exam and score, drawn and graded in one batch."""
        columns = _draw_questions(pilots, num_questions,
                                  [np.random.default_rng(seed) for seed in seeds])
        templates, tags, tag_ids, truth = columns
        exams = [Exam(k, columns=(templates[rows], tags, tag_ids[rows], truth[rows]))
                 for k, rows in enumerate(np.split(np.arange(len(templates)), len(pilots)))]
        return exams, index.answers(columns).reshape(len(pilots), -1).sum(axis=1) / num_questions


def _draw_questions(pilots, num_questions: int, rngs) -> tuple:
    """Exam columns, ``num_questions`` rows per pilot. Each pilot's generator
    draws its tags uniformly, with replacement, from the pilot's (frame, tag)
    occurrences, so each question is answerable from the pilot itself;
    templates cycle round-robin. A tagless pilot draws nothing: its
    questions are nothing-observed presence questions answered NO."""
    joined = FrameStore.concatenate(pilots)
    frames, tag_ids, tags = joined.occurrences()
    bounds = np.searchsorted(frames, list(accumulate(map(len, pilots), initial=0))).tolist()
    picks = np.concatenate([lo + rng.integers(hi - lo, size=num_questions) if hi > lo
                            else np.full(num_questions, -1)
                            for rng, lo, hi in zip(rngs, bounds, bounds[1:])])
    drawn = (picks >= 0).nonzero()[0]
    templates = np.arange(len(picks)) % num_questions % len(TEMPLATES)
    templates[picks < 0] = 0
    at, kind = frames[picks[drawn]], templates[drawn]
    truth = np.zeros((len(picks), 3))
    truth[drawn] = np.where((kind == 1)[:, None], joined.pose([0, 1, 5], at), 0.0)
    truth[drawn, 0] = np.where(kind == 0, 1.0,
                               np.where(kind == 2, joined.robot_ids[at], truth[drawn, 0]))
    tag_id = np.full(len(picks), len(tags))             # the NOTHING_TAG row
    tag_id[drawn] = tag_ids[picks[drawn]]
    return templates, (*tags, NOTHING_TAG), tag_id, truth


def pilot_size(ratio, num_items):
    """Pilot sizes |D~| = round(rho |D|), halves going up (10.5 -> 11), at
    least one item each; elementwise over arrays."""
    return np.maximum(1, np.floor(np.multiply(ratio, num_items) + 0.5).astype(int))


def sample_pilot(dataset: FrameStore, ratio: float, seed) -> FrameStore:
    """Draw ``pilot_size(ratio, |D|)`` frames uniformly without replacement.

    The selection keeps the dataset's original order, so ratio = 1 returns
    a copy of the dataset.
    """
    if len(dataset) == 0:
        raise GaeError("cannot sample a pilot from an empty dataset")
    if not 0.0 < ratio <= 1.0:
        raise ValueError("pilot ratio must lie in (0, 1]")
    count = pilot_size(ratio, len(dataset))
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(len(dataset), size=count, replace=False))
    return dataset.take(chosen)


def per_robot(task, num_robots: int) -> list:
    """``task(k)`` for each robot ``k`` in turn; an error names its robot."""
    results = []
    for k in range(num_robots):
        try:
            results.append(task(k))
        except Exception as exc:
            raise GaeError(f"robot {k}: {exc}") from exc
    return results


def run_gae(datasets, base_memory, ratio, questions_per_robot: int, backend, seed) -> GaeReport:
    """Full pipeline per robot: sample pilot -> draw exam -> practice test.

    ``ratio`` may be a scalar or one value per robot. Per-robot randomness is
    split off a single seed sequence, so the report is deterministic for a
    fixed (datasets, base_memory, seed) triple under the synthetic backend.
    """
    num_robots = len(datasets)
    if num_robots < 1:
        raise GaeError("run_gae needs at least one robot dataset")
    if questions_per_robot < 1:
        raise GaeError("at least one exam question is required")
    ratios = np.broadcast_to(np.asarray(ratio, dtype=float), (num_robots,))
    prepared = backend.prepare_memory(base_memory)
    root = np.random.SeedSequence(seed)     # robot k's keys in root.spawn(K)[k].spawn(2)
    seeds = [[np.random.SeedSequence(root.entropy, spawn_key=(k, j), pool_size=root.pool_size)
              for k in range(num_robots)] for j in (0, 1)]
    pilots = per_robot(lambda k: sample_pilot(datasets[k], float(ratios[k]), seeds[0][k]),
                       num_robots)
    exams, scores = backend.run_exams(pilots, questions_per_robot, seeds[1], prepared)
    return GaeReport(scores=scores, pilot_sizes=[len(p) for p in pilots], exams=tuple(exams))
