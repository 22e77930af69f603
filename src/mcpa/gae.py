"""Generative adversarial exam: pilot sampling, exam generation, practice test.

The synthetic backend stands in for the VLM/LLM stack: each memory item
carries a set of event tags (the caption surrogate) and exams are graded by
exact tag lookup (:class:`MemoryIndex`), so a memory scores 1.0 on any exam
generated from its own content. Recorded frames are held as columns
(:class:`FrameStore`) and become :class:`MemoryItem` objects only where one
is read. The remote backend (see :mod:`mcpa.remote`) delegates questioning
and answering to a chat-completion service but is graded by the same rules.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .qom import round_half_up

__all__ = [
    "LOCATION_RADIUS_M",
    "NOTHING_TAG",
    "TEMPLATES",
    "MemoryItem",
    "FrameStore",
    "Question",
    "Exam",
    "GaeReport",
    "GaeError",
    "MemoryIndex",
    "SyntheticBackend",
    "sample_pilot",
    "generate_exam",
    "practice_test",
    "run_gae",
]

# Acceptable distance between a reported location and the ground truth.
LOCATION_RADIUS_M = 50.0

# Tag used for exams generated from pilots that observed nothing notable.
# No real memory item ever carries it, so "is it there?" is answered NO by
# every memory and a vacuous pilot yields a full score (no novelty).
NOTHING_TAG = "__nothing_observed__"

TEMPLATES = ("presence", "location", "reporter")


class GaeError(RuntimeError):
    """Raised when an exam cannot be generated or graded."""


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


class FrameStore(Sequence):
    """Recorded frames of one or more robots, held as columns.

    Frame ``i`` was captured by ``robot_ids[i]`` at ``timestamps[i]`` with
    pose ``poses[i]``. Its tags are ``vocabulary[background[i]]`` unless
    ``background[i]`` is -1, plus the tag of every event whose frame window
    ``[start, stop)`` contains ``i``. Indexing or iterating builds the
    equivalent :class:`MemoryItem` on demand; slices give a tuple of them.
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

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._item(i) for i in range(len(self))[index])
        return self._item(range(len(self))[index])

    def __iter__(self):
        return (self._item(i) for i in range(len(self)))

    def _item(self, i: int) -> MemoryItem:
        tags = {tag for tag, start, stop in self.events if start <= i < stop}
        if self.background[i] >= 0:
            tags.add(self.vocabulary[self.background[i]])
        return MemoryItem(timestamp_s=float(self.timestamps[i]),
                          pose=tuple(self.poses[i].tolist()),
                          tags=frozenset(tags), robot_id=int(self.robot_ids[i]))

    @classmethod
    def from_items(cls, items) -> "FrameStore":
        """A store of ``MemoryItem``s, each (item, tag) pair a one-frame event."""
        items = list(items)
        events = [(tag, i, i + 1) for i, item in enumerate(items) for tag in sorted(item.tags)]
        return cls([item.robot_id for item in items], [item.timestamp_s for item in items],
                   [item.pose for item in items], np.full(len(items), -1), (), events)

    def frames_with(self, tag: str) -> np.ndarray:
        """Ascending indices of the frames that carry ``tag``."""
        hit = np.zeros(len(self), dtype=bool)
        if tag in self.vocabulary:
            hit |= self.background == self.vocabulary.index(tag)
        for event, start, stop in self.events:
            if event == tag:
                hit[start:stop] = True
        return np.flatnonzero(hit)


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


@dataclass(frozen=True)
class Exam:
    robot_id: int
    qa_pairs: tuple[Question, ...]

    def __post_init__(self):
        if len(self.qa_pairs) < 1:
            raise ValueError("an exam needs at least one question")

    def __len__(self) -> int:
        return len(self.qa_pairs)


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


class MemoryIndex:
    """The synthetic oracle's grading rule over one :class:`FrameStore`. Each
    tag's frames are read once, when a question first asks about it."""

    def __init__(self, frames: FrameStore):
        self.frames = frames
        self._hits: dict[str, np.ndarray] = {}
        self._answers: dict[tuple, bool] = {}

    def _frames_with(self, tag: str) -> np.ndarray:
        hits = self._hits.get(tag)
        if hits is None:
            hits = self._hits[tag] = self.frames.frames_with(tag)
        return hits

    def first_answering_frame(self, question: Question) -> int:
        """Index of the first frame that alone answers ``question``, or
        ``len(frames)`` when none does.

        A positive question is answered by single frames (the tag is on some
        frame; on some frame within the radius; on some frame of the
        reporter), so a memory joined with the prefix ``frames[:n]`` answers
        it exactly when the memory alone does or ``n`` exceeds this index.
        """
        if question.template == "presence" and question.answer != "YES":
            raise ValueError("only questions answered YES grade as a test over single frames")
        frames = self.frames
        hits = self._frames_with(question.tag)
        if question.template == "location":
            x, y, _ = question.answer
            xy = frames.poses[hits, :2].tolist()
            return next((int(i) for i, (px, py) in zip(hits, xy)
                         if math.hypot(px - x, py - y) <= LOCATION_RADIUS_M), len(frames))
        if question.template == "reporter":
            hits = hits[frames.robot_ids[hits] == question.answer]
        return int(hits[0]) if len(hits) else len(frames)

    def answers(self, question: Question) -> bool:
        """Would a retriever over the memory answer ``question`` correctly?
        A presence question answered NO is right when no frame has the tag."""
        key = (question.template, question.tag, question.answer)
        if key not in self._answers:    # exams repeat questions
            if question.template == "presence" and question.answer == "NO":
                self._answers[key] = len(self._frames_with(question.tag)) == 0
            else:
                self._answers[key] = self.first_answering_frame(question) < len(self.frames)
        return self._answers[key]


def _question(item: MemoryItem, tag: str, template: str) -> Question:
    """The ``template`` question about ``tag`` as ``item`` recorded it."""
    if template == "presence":
        return Question(template, tag, f"Is there a {tag}?", "YES")
    if template == "location":
        return Question(template, tag, f"Where is the {tag}?",
                        (item.pose[0], item.pose[1], item.pose[5]))
    return Question(template, tag, f"Which robot sees the {tag}?", item.robot_id)


class SyntheticBackend:
    """Deterministic questioner/answerer driven purely by tag lookups."""

    name = "synthetic"

    def prepare_memory(self, memory) -> MemoryIndex:
        """The index every exam is graded against: a :class:`FrameStore`, or
        ``MemoryItem``s read through :meth:`FrameStore.from_items`."""
        return MemoryIndex(memory if isinstance(memory, FrameStore)
                           else FrameStore.from_items(memory))

    def make_questions(self, pilot, num_questions: int, rng: np.random.Generator):
        """Sample (tag, template) questions from the pilot's tag multiset.

        Tags are drawn uniformly (with replacement) from the occurrences in
        the pilot, so every question is answerable from the pilot itself;
        templates cycle round-robin. A tagless pilot produces
        nothing-observed presence questions whose ground truth is NO.
        """
        occurrences = [(item, tag) for item in pilot for tag in sorted(item.tags)]
        if not occurrences:
            return [Question("presence", NOTHING_TAG,
                             "Is there anything notable on record?", "NO")] * num_questions
        picks = rng.integers(len(occurrences), size=num_questions).tolist()
        keys = [(pick, TEMPLATES[i % len(TEMPLATES)]) for i, pick in enumerate(picks)]
        built = {key: _question(*occurrences[key[0]], key[1]) for key in dict.fromkeys(keys)}
        return [built[key] for key in keys]    # exams repeat questions: build each once

    def test(self, exam: Exam, index: MemoryIndex) -> float:
        return sum(index.answers(q) for q in exam.qa_pairs) / len(exam)


def sample_pilot(dataset, ratio: float, seed) -> list[MemoryItem]:
    """Draw round(ratio * |D|) items (>= 1) uniformly without replacement.

    The selection keeps the dataset's original order, so ratio = 1 returns
    the dataset unchanged.
    """
    if len(dataset) == 0:
        raise GaeError("cannot sample a pilot from an empty dataset")
    if not 0.0 < ratio <= 1.0:
        raise ValueError("pilot ratio must lie in (0, 1]")
    count = max(1, round_half_up(ratio * len(dataset)))
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(len(dataset), size=count, replace=False))
    return [dataset[i] for i in chosen]


def generate_exam(pilot, num_questions: int, backend, seed, robot_id: int = 0) -> Exam:
    """Build an exam of ``num_questions`` QA pairs from the pilot memory."""
    if num_questions < 1:
        raise GaeError("at least one exam question is required")
    rng = np.random.default_rng(seed)
    questions = backend.make_questions(pilot, num_questions, rng)
    return Exam(robot_id=robot_id, qa_pairs=tuple(questions))


def practice_test(exam: Exam, base_memory, backend) -> float:
    """Fraction of the exam the base memory answers correctly."""
    return float(backend.test(exam, backend.prepare_memory(base_memory)))


def run_gae(datasets, base_memory, ratio, questions_per_robot: int, backend, seed) -> GaeReport:
    """Full pipeline per robot: sample pilot -> generate exam -> practice test.

    ``ratio`` may be a scalar or one value per robot. Per-robot randomness is
    split off a single seed sequence, so the report is deterministic for a
    fixed (datasets, base_memory, seed) triple under the synthetic backend.
    """
    num_robots = len(datasets)
    if num_robots < 1:
        raise GaeError("run_gae needs at least one robot dataset")
    ratios = np.broadcast_to(np.asarray(ratio, dtype=float), (num_robots,))
    prepared = backend.prepare_memory(base_memory)

    scores = np.zeros(num_robots)
    pilot_sizes = np.zeros(num_robots, dtype=int)
    exams = []
    children = np.random.SeedSequence(seed).spawn(num_robots)
    for k in range(num_robots):
        try:
            pilot_seed, exam_seed = children[k].spawn(2)
            pilot = sample_pilot(datasets[k], float(ratios[k]), pilot_seed)
            exam = generate_exam(pilot, questions_per_robot, backend, exam_seed, robot_id=k)
            scores[k] = backend.test(exam, prepared)
        except Exception as exc:
            raise GaeError(f"robot {k}: {exc}") from exc
        pilot_sizes[k] = len(pilot)
        exams.append(exam)
    return GaeReport(scores=scores, pilot_sizes=pilot_sizes, exams=tuple(exams))
