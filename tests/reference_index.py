"""Grading rules that ``mcpa.gae`` replaced, kept as references.

``ReferenceIndex`` and ``grade`` are the set-based tag index: it reads
``frames.MemoryItem``s one at a time, per tag the set of robots that saw it
and the set of positions it was seen at. The second half of the file is the
per-question exam path that columnar exams replaced, with ``exam_columns``,
the conversion of ``Question``s to exam columns that ``mcpa`` no longer needs.
"""
import math

import numpy as np

from mcpa.gae import LOCATION_RADIUS_M, NOTHING_TAG, TEMPLATES, Exam, Question


class ReferenceIndex:
    """Tag lookup over a memory: which robots saw a tag, and where."""

    def __init__(self, items=()):
        self._robots: dict[str, set[int]] = {}
        self._positions: dict[str, set[tuple[float, float]]] = {}
        self.extend(items)

    def extend(self, items) -> None:
        for item in items:
            for tag in item.tags:
                self._robots.setdefault(tag, set()).add(item.robot_id)
                self._positions.setdefault(tag, set()).add(item.xy)

    def has_tag(self, tag: str) -> bool:
        return tag in self._robots

    def robots_for(self, tag: str) -> set[int]:
        return self._robots.get(tag, set())

    def near(self, tag: str, x: float, y: float, radius_m: float = LOCATION_RADIUS_M) -> bool:
        return any(math.hypot(px - x, py - y) <= radius_m
                   for px, py in self._positions.get(tag, ()))

    def content(self):
        """Every tag's robot set and position set."""
        return self._robots, self._positions


def grade(question, index: ReferenceIndex) -> bool:
    """Would a retriever over the indexed memory answer correctly?"""
    if question.template == "presence":
        present = index.has_tag(question.tag)
        return ("YES" if present else "NO") == question.answer
    if question.template == "location":
        x, y, _ = question.answer
        return index.near(question.tag, x, y)
    return question.answer in index.robots_for(question.tag)


# --- the per-question GAE path the columnar exams replaced --------------------
#
# ``mcpa.gae`` used to build one ``Question`` per exam entry and grade each
# one alone; the functions below are that code, kept verbatim apart from
# turning methods into functions and reading a store's tags one (frame, tag)
# pair at a time, as the oracle for the columnar exams,
# ``MemoryIndex.first_frames`` / ``answers`` and ``prepare_seed``'s tables.

def frames_with(frames, tag: str) -> np.ndarray:
    """Ascending indices of the frames that carry ``tag``."""
    hit = np.zeros(len(frames), dtype=bool)
    for frame, tag_id in zip(frames.hits.tolist(), frames.tag_ids.tolist()):
        if frames.tags[tag_id] == tag:
            hit[frame] = True
    return np.flatnonzero(hit)


def tag_sets(frames) -> list[frozenset[str]]:
    """Each frame's set of tags, one per (frame, tag) pair. Frames with
    equal tags share one set, so the list costs memory per distinct set
    rather than per frame."""
    sets = [set() for _ in range(len(frames))]
    for frame, tag_id in zip(frames.hits.tolist(), frames.tag_ids.tolist()):
        sets[frame].add(frames.tags[tag_id])
    distinct: dict[frozenset[str], frozenset[str]] = {}
    return [distinct.setdefault(tags, tags) for tags in map(frozenset, sets)]


def exam_columns(questions) -> tuple:
    """The exam columns ``(templates, tags, tag_ids, truth)`` (see
    ``mcpa.gae.Exam``) that hold ``questions``; ``Exam(0, columns=...)``
    renders them back."""
    tags = tuple(dict.fromkeys(q.tag for q in questions))
    truth = [q.answer if q.template == "location" else
             (float(q.answer == "YES") if q.template == "presence" else q.answer, 0.0, 0.0)
             for q in questions]
    return (np.array([TEMPLATES.index(q.template) for q in questions], dtype=np.intp), tags,
            np.array([tags.index(q.tag) for q in questions], dtype=np.intp),
            np.array(truth, dtype=float).reshape(-1, 3))


def world_questions(world) -> tuple[Question, ...]:
    """The world's ground-truth question columns, rendered as ``Question``s."""
    return Exam(0, columns=world.questions).qa_pairs


def make_question(pose, robot: int, tag: str, template: str) -> Question:
    """The ``template`` question about ``tag`` as a frame of ``robot`` at
    ``pose`` (x, y, z, roll, pitch, yaw) recorded it."""
    if template == "presence":
        return Question(template, tag, f"Is there a {tag}?", "YES")
    if template == "location":
        return Question(template, tag, f"Where is the {tag}?", (pose[0], pose[1], pose[5]))
    return Question(template, tag, f"Which robot sees the {tag}?", robot)


def make_questions(pilot, num_questions: int, rng: np.random.Generator):
    """Sample (tag, template) questions from the pilot's tag multiset.

    Tags are drawn uniformly (with replacement) from the occurrences in
    the pilot, so every question is answerable from the pilot itself;
    templates cycle round-robin. A tagless pilot produces
    nothing-observed presence questions whose ground truth is NO.
    """
    occurrences = [(pose, robot, tag) for pose, robot, tags
                   in zip(pilot.poses.tolist(), pilot.robot_ids.tolist(), tag_sets(pilot))
                   for tag in sorted(tags)]
    if not occurrences:
        return [Question("presence", NOTHING_TAG,
                         "Is there anything notable on record?", "NO")] * num_questions
    picks = rng.integers(len(occurrences), size=num_questions).tolist()
    keys = [(pick, TEMPLATES[i % len(TEMPLATES)]) for i, pick in enumerate(picks)]
    built = {key: make_question(*occurrences[key[0]], key[1]) for key in dict.fromkeys(keys)}
    return [built[key] for key in keys]    # exams repeat questions: build each once


class QuestionIndex:
    """The synthetic oracle's grading rule over one store, one question at
    a time. Each tag's frames are read once, when a question first asks about it."""

    def __init__(self, frames):
        self.frames = frames
        self._hits: dict[str, np.ndarray] = {}
        self._answers: dict[tuple, bool] = {}

    def _frames_with(self, tag: str) -> np.ndarray:
        hits = self._hits.get(tag)
        if hits is None:
            hits = self._hits[tag] = frames_with(self.frames, tag)
        return hits

    def first_answering_frame(self, question: Question) -> int:
        """Index of the first frame that alone answers ``question``, or
        ``len(frames)`` when none does."""
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


def first_frame_table(world) -> tuple[np.ndarray, np.ndarray]:
    """``prepare_seed``'s ``base_answers`` and ``first_frames``, one
    ``first_answering_frame`` call per question and store."""
    indexes = [QuestionIndex(frames) for frames in (world.base_memory, *world.datasets)]
    first = np.array([[index.first_answering_frame(q) for index in indexes]
                      for q in world_questions(world)])
    return first[:, 0] < len(world.base_memory), first[:, 1:]
