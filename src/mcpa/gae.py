"""Generative adversarial exam: pilot sampling, exam generation, practice test.

The synthetic backend stands in for the VLM/LLM stack: each recorded frame
carries a set of event tags (the caption surrogate) and exams are graded by
exact tag lookup, so a memory scores 1.0 on any exam generated from its own
content. The path is columnar end to end: frames are columns
(:class:`FrameStore`), a pilot is a sub-store of its dataset, exams and the
world's questions are columns (template, tag id, ground truth) rendered as
:class:`Question` objects only for ``repr``, and a store's
:class:`MemoryIndex` holds each tag's hits once for every exam and
first-frame table graded against it. A backend readies the base memory once
(``prepare_memory``), then draws and grades every robot's exam
(``run_exams``); the remote one (:mod:`mcpa.remote`) delegates questioning
and answering to a chat-completion service but is graded by the same rules.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .qom import pilot_size

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

    Frame ``i`` was captured by ``robot_ids[i]`` at ``timestamps[i]`` with
    pose ``poses[i]``. Its tags are ``vocabulary[background[i]]`` unless
    ``background[i]`` is -1, plus the tag of every event whose frame window
    ``[start, stop)`` contains ``i``.
    """

    def __init__(self, robot_ids, timestamps, poses, background, vocabulary, events=()):
        self.robot_ids = np.asarray(robot_ids, dtype=np.intp)
        self.timestamps = np.asarray(timestamps, dtype=float)
        self.poses = np.asarray(poses, dtype=float).reshape(-1, 6)
        self.background = np.asarray(background, dtype=np.intp)
        self.vocabulary = tuple(vocabulary)
        self.events = tuple(events)
        if not (len(self.robot_ids) == len(self.timestamps) == len(self.poses)
                == len(self.background)):
            raise ValueError("frame columns must have one entry per frame")

    def __len__(self) -> int:
        return len(self.robot_ids)

    def take(self, indices) -> "FrameStore":
        """The frames at the ascending ``indices``, as a store of their own.
        An event window maps to the contiguous run of kept frames it covers."""
        indices = np.asarray(indices, dtype=np.intp)
        bounds = np.searchsorted(indices, [window for _, *window in self.events]).tolist()
        return FrameStore(self.robot_ids[indices], self.timestamps[indices],
                          self.poses[indices], self.background[indices], self.vocabulary,
                          [(tag, *window) for (tag, _, _), window in zip(self.events, bounds)])

    def occurrences(self, names=None) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
        """``(frames, tag_ids, names)``: tag ``names[tag_ids[i]]`` is on frame
        ``frames[i]``, each pair once, frame by frame and in tag order within a
        frame. ``names`` defaults to the store's tags, sorted; given, others are left out."""
        if names is None:
            names = tuple(sorted({*self.vocabulary, *(tag for tag, _, _ in self.events)}))
        ids = {name: i for i, name in enumerate(names)}
        background = np.array([ids.get(tag, -1) for tag in self.vocabulary] + [-1],
                              dtype=np.intp)[self.background]      # [-1]: untagged
        tagged = (background >= 0).nonzero()[0]
        tag, start, length = np.array([(ids[tag], start, stop - start)
                                       for tag, start, stop in self.events
                                       if tag in ids and stop > start],
                                      dtype=np.intp).reshape(-1, 3).T
        ends = length.cumsum()
        in_windows = np.arange(ends[-1] if len(ends) else 0) + (start - ends + length).repeat(length)
        keys = np.concatenate([tagged * len(names) + background[tagged],
                               in_windows * len(names) + tag.repeat(length)])
        keys.sort()
        frames, tag_ids = np.divmod(keys[_run_starts(keys)], max(len(names), 1))
        return frames, tag_ids, names

    @cached_property
    def index(self) -> "MemoryIndex":
        """The :class:`MemoryIndex` over all the store's tags, built once."""
        return MemoryIndex(self)


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
    scores: np.ndarray
    pilot_sizes: np.ndarray
    exams: tuple[Exam, ...]

    def __post_init__(self):
        s = np.asarray(self.scores, dtype=float)
        if np.any(s < 0.0) or np.any(s > 1.0):
            raise ValueError("GAE scores must lie in [0, 1]")
        object.__setattr__(self, "scores", s)
        object.__setattr__(self, "pilot_sizes", np.asarray(self.pilot_sizes, dtype=int))


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
    """One store's tag hits (for all its tags, or only the listed ``tags``),
    grouped by runs of consecutive frames taken at one place (x, y, robot),
    which answer every question alike: ``first[offsets[j]:offsets[j + 1]]``
    are the first frames of the groups of ``tags[j]``, at ``x``, ``y``, ``robots``."""

    def __init__(self, frames: FrameStore, tags=None):
        self.size = len(frames)       # no reference back: the store caches its index
        hits, tag_ids, self.tags = frames.occurrences(tags)
        moved = np.ones(len(frames) + 1, dtype=np.intp)       # [-1]: bounds the run ids
        moved[1:-1] = ((frames.poses[1:, :2] != frames.poses[:-1, :2]).any(axis=1)
                       | (frames.robot_ids[1:] != frames.robot_ids[:-1]))
        run = moved.cumsum()
        keys = (tag_ids * run[-1] + run[hits]) * (self.size + 1) + hits
        keys.sort()
        groups, self.first = np.divmod(keys[_run_starts(keys // (self.size + 1))], self.size + 1)
        self.x, self.y = frames.poses[self.first, :2].T.copy()
        self.robots = frames.robot_ids[self.first]
        # row len(tags) is empty: the row of every tag the store lacks
        self.offsets = (groups // run[-1]).searchsorted(np.arange(len(self.tags) + 2))
        self._rows = {tag: j for j, tag in enumerate(self.tags)}

    def first_frames(self, columns) -> np.ndarray:
        """The first frame that alone answers each question of exam ``columns``
        (presence counted as YES), or the store's length. Such questions are
        answered by single frames, so a memory joined with a prefix of ``n``
        frames answers one exactly when it alone does or ``n`` exceeds this."""
        templates, tags, tag_ids, truth = columns
        rows = np.array([self._rows.get(tag, len(self.tags)) for tag in tags],
                        dtype=np.intp)[tag_ids]
        lo = self.offsets[rows]
        count = self.offsets[rows + 1] - lo
        question = np.arange(len(rows)).repeat(count)      # one entry per candidate group
        group = np.arange(len(question)) + (lo - count.cumsum() + count).repeat(count)
        answer = truth[question]
        ok = np.choose(templates[question], (True, _within_radius(self.x[group] - answer[:, 0],
                                                                  self.y[group] - answer[:, 1]),
                                             self.robots[group] == answer[:, 0]))
        first = np.full(len(rows), self.size)
        np.minimum.at(first, question[ok], self.first[group[ok]])
        return first

    def answers(self, columns) -> np.ndarray:
        """Whether the memory answers each question of exam ``columns``; a
        presence question answered NO is right when no frame has the tag."""
        templates, _, _, truth = columns
        answered = self.first_frames(columns) < self.size
        return answered != ((templates == 0) & (truth[:, 0] == 0.0))     # flip answered NO


class SyntheticBackend:
    """Deterministic questioner/answerer driven purely by tag lookups."""

    name = "synthetic"

    def prepare_memory(self, memory: FrameStore) -> MemoryIndex:
        return memory.index

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
    vocabulary = tuple(dict.fromkeys(tag for pilot in pilots for tag in pilot.vocabulary))
    starts = list(accumulate((len(pilot) for pilot in pilots), initial=0))
    joined = pilots[0] if len(pilots) == 1 else FrameStore(   # the pilots, one after another
        np.concatenate([pilot.robot_ids for pilot in pilots]), np.zeros(starts[-1]),
        np.concatenate([pilot.poses for pilot in pilots]),
        np.concatenate([np.array([vocabulary.index(tag) for tag in pilot.vocabulary] + [-1],
                                 dtype=np.intp)[pilot.background] for pilot in pilots]),
        vocabulary, [(tag, begin + start, end + start) for pilot, start in zip(pilots, starts)
                     for tag, begin, end in pilot.events])
    frames, tag_ids, tags = joined.occurrences()
    bounds = np.searchsorted(frames, starts).tolist()
    picks = np.concatenate([lo + rng.integers(hi - lo, size=num_questions) if hi > lo
                            else np.full(num_questions, -1)
                            for rng, lo, hi in zip(rngs, bounds, bounds[1:])])
    drawn = (picks >= 0).nonzero()[0]
    templates = np.arange(len(picks)) % num_questions % len(TEMPLATES)
    templates[picks < 0] = 0
    at, kind = frames[picks[drawn]], templates[drawn]
    truth = np.zeros((len(picks), 3))
    truth[drawn] = np.where((kind == 1)[:, None], joined.poses[at[:, None], [0, 1, 5]], 0.0)
    truth[drawn, 0] = np.where(kind == 0, 1.0,
                               np.where(kind == 2, joined.robot_ids[at], truth[drawn, 0]))
    tag_id = np.full(len(picks), len(tags))             # the NOTHING_TAG row
    tag_id[drawn] = tag_ids[picks[drawn]]
    return templates, (*tags, NOTHING_TAG), tag_id, truth


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
    seeds = [child.spawn(2) for child in np.random.SeedSequence(seed).spawn(num_robots)]
    pilots = per_robot(lambda k: sample_pilot(datasets[k], float(ratios[k]), seeds[k][0]),
                       num_robots)
    exams, scores = backend.run_exams(pilots, questions_per_robot, [s[1] for s in seeds],
                                      prepared)
    return GaeReport(scores=scores, pilot_sizes=[len(p) for p in pilots], exams=tuple(exams))
