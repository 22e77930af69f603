"""Generative adversarial exam: pilot sampling, exam generation, practice test.

The synthetic backend stands in for the VLM/LLM stack: each memory item
carries a set of event tags (the caption surrogate) and exams are graded by
exact tag lookup, so a memory scores 1.0 on any exam generated from its own
content. The remote backend (see :mod:`mcpa.remote`) delegates questioning
and answering to a chat-completion service but is graded by the same rules.
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
    "MemoryItem",
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
    """Tag lookup over a memory: which robots saw a tag, and where."""

    def __init__(self, items=()):
        self._robots: dict[str, set[int]] = {}
        self._positions: dict[str, list[tuple[float, float]]] = {}
        self.extend(items)

    def extend(self, items) -> None:
        for item in items:
            for tag in item.tags:
                self._robots.setdefault(tag, set()).add(item.robot_id)
                self._positions.setdefault(tag, []).append(item.xy)

    def copy(self) -> "MemoryIndex":
        """An independent index with the same content."""
        other = MemoryIndex()
        other._robots = {tag: set(ids) for tag, ids in self._robots.items()}
        other._positions = {tag: list(at) for tag, at in self._positions.items()}
        return other

    def has_tag(self, tag: str) -> bool:
        return tag in self._robots

    def robots_for(self, tag: str) -> set[int]:
        return self._robots.get(tag, set())

    def near(self, tag: str, x: float, y: float, radius_m: float = LOCATION_RADIUS_M) -> bool:
        return any(math.hypot(px - x, py - y) <= radius_m
                   for px, py in self._positions.get(tag, ()))


class SyntheticBackend:
    """Deterministic questioner/answerer driven purely by tag lookups."""

    name = "synthetic"

    def prepare_memory(self, items):
        """Build the reusable lookup structure for repeated grading."""
        return items if isinstance(items, MemoryIndex) else MemoryIndex(items)

    def make_questions(self, pilot, num_questions: int, rng: np.random.Generator):
        """Sample (tag, template) questions from the pilot's tag multiset.

        Tags are drawn uniformly (with replacement) from the occurrences in
        the pilot, so every question is answerable from the pilot itself;
        templates cycle round-robin. A tagless pilot produces
        nothing-observed presence questions whose ground truth is NO.
        """
        if num_questions < 1:
            raise GaeError("at least one exam question is required")
        occurrences = [(item, tag) for item in pilot for tag in sorted(item.tags)]
        questions = []
        for i in range(num_questions):
            template = TEMPLATES[i % len(TEMPLATES)]
            if not occurrences:
                questions.append(Question(
                    "presence", NOTHING_TAG,
                    "Is there anything notable on record?", "NO"))
                continue
            item, tag = occurrences[rng.integers(len(occurrences))]
            if template == "presence":
                answer = "YES"
                text = f"Is there a {tag}?"
            elif template == "location":
                answer = (item.pose[0], item.pose[1], item.pose[5])
                text = f"Where is the {tag}?"
            else:
                answer = item.robot_id
                text = f"Which robot sees the {tag}?"
            questions.append(Question(template, tag, text, answer))
        return questions

    def grade(self, question: Question, index: MemoryIndex) -> bool:
        """Would a retriever over the indexed memory answer correctly?"""
        if question.template == "presence":
            present = index.has_tag(question.tag)
            return ("YES" if present else "NO") == question.answer
        if question.template == "location":
            x, y, _ = question.answer
            return index.near(question.tag, x, y)
        return question.answer in index.robots_for(question.tag)

    def test(self, exam: Exam, base_memory) -> float:
        index = base_memory if isinstance(base_memory, MemoryIndex) else MemoryIndex(base_memory)
        correct = sum(self.grade(q, index) for q in exam.qa_pairs)
        return correct / len(exam)


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
    return float(backend.test(exam, base_memory))


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
    prepared = backend.prepare_memory(base_memory) if hasattr(backend, "prepare_memory") \
        else base_memory

    scores = np.zeros(num_robots)
    pilot_sizes = np.zeros(num_robots, dtype=int)
    exams = []
    children = np.random.SeedSequence(seed).spawn(num_robots)
    for k in range(num_robots):
        try:
            pilot_seed, exam_seed = children[k].spawn(2)
            pilot = sample_pilot(datasets[k], float(ratios[k]), pilot_seed)
            exam = generate_exam(pilot, questions_per_robot, backend, exam_seed, robot_id=k)
            scores[k] = practice_test(exam, prepared, backend)
        except Exception as exc:
            raise GaeError(f"robot {k}: {exc}") from exc
        pilot_sizes[k] = len(pilot)
        exams.append(exam)
    return GaeReport(scores=scores, pilot_sizes=pilot_sizes, exams=tuple(exams))
