"""Generative adversarial exam: pilot sampling, exam generation, practice test.

The synthetic backend stands in for the VLM/LLM stack: each recorded frame
carries a set of event tags (the caption surrogate) and exams are graded by
exact tag lookup (:class:`MemoryIndex`), so a memory scores 1.0 on any exam
generated from its own content. Recorded frames are held as columns
(:class:`FrameStore`) end to end: a pilot is a sub-store of its dataset, and
questions and captions read the columns. The remote backend (see
:mod:`mcpa.remote`) delegates questioning and answering to a
chat-completion service but is graded by the same rules.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qom import round_half_up

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
    "generate_exam",
    "practice_test",
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
        events = [(tag, *np.searchsorted(indices, (start, stop)).tolist())
                  for tag, start, stop in self.events]
        return FrameStore(self.robot_ids[indices], self.timestamps[indices],
                          self.poses[indices], self.background[indices],
                          self.vocabulary, events)

    def tag_sets(self) -> list[frozenset[str]]:
        """Each frame's set of tags: its background tag and every covering
        event's. Frames with equal tags share one set, so the list costs
        memory per distinct set rather than per frame."""
        background = [frozenset([tag]) for tag in self.vocabulary] + [frozenset()]  # [-1]: none
        sets = [background[b] for b in self.background.tolist()]
        distinct: dict[frozenset[str], frozenset[str]] = {}
        for tag, start, stop in self.events:
            sets[start:stop] = [distinct.setdefault(joined, joined)
                                for joined in (tags | {tag} for tags in sets[start:stop])]
        return sets

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


def make_question(pose, robot: int, tag: str, template: str) -> Question:
    """The ``template`` question about ``tag`` as a frame of ``robot`` at
    ``pose`` (x, y, z, roll, pitch, yaw) recorded it."""
    if template == "presence":
        return Question(template, tag, f"Is there a {tag}?", "YES")
    if template == "location":
        return Question(template, tag, f"Where is the {tag}?", (pose[0], pose[1], pose[5]))
    return Question(template, tag, f"Which robot sees the {tag}?", robot)


class SyntheticBackend:
    """Deterministic questioner/answerer driven purely by tag lookups."""

    name = "synthetic"

    def prepare_memory(self, memory: FrameStore) -> MemoryIndex:
        """The index every exam is graded against."""
        return MemoryIndex(memory)

    def make_questions(self, pilot: FrameStore, num_questions: int, rng: np.random.Generator):
        """Sample (tag, template) questions from the pilot's tag multiset.

        Tags are drawn uniformly (with replacement) from the occurrences in
        the pilot, so every question is answerable from the pilot itself;
        templates cycle round-robin. A tagless pilot produces
        nothing-observed presence questions whose ground truth is NO.
        """
        occurrences = [(pose, robot, tag) for pose, robot, tags
                       in zip(pilot.poses.tolist(), pilot.robot_ids.tolist(), pilot.tag_sets())
                       for tag in sorted(tags)]
        if not occurrences:
            return [Question("presence", NOTHING_TAG,
                             "Is there anything notable on record?", "NO")] * num_questions
        picks = rng.integers(len(occurrences), size=num_questions).tolist()
        keys = [(pick, TEMPLATES[i % len(TEMPLATES)]) for i, pick in enumerate(picks)]
        built = {key: make_question(*occurrences[key[0]], key[1]) for key in dict.fromkeys(keys)}
        return [built[key] for key in keys]    # exams repeat questions: build each once

    def test(self, exam: Exam, index: MemoryIndex) -> float:
        return sum(index.answers(q) for q in exam.qa_pairs) / len(exam)


def sample_pilot(dataset: FrameStore, ratio: float, seed) -> FrameStore:
    """Draw round(ratio * |D|) frames (>= 1) uniformly without replacement.

    The selection keeps the dataset's original order, so ratio = 1 returns
    a copy of the dataset.
    """
    if len(dataset) == 0:
        raise GaeError("cannot sample a pilot from an empty dataset")
    if not 0.0 < ratio <= 1.0:
        raise ValueError("pilot ratio must lie in (0, 1]")
    count = max(1, round_half_up(ratio * len(dataset)))
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(len(dataset), size=count, replace=False))
    return dataset.take(chosen)


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
