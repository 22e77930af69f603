"""The set-based tag index and grading rule that ``mcpa.gae.MemoryIndex``
replaced, kept as the reference the columnar rule is tested against.

It reads ``MemoryItem``s one at a time: per tag, the set of robots that saw
it and the set of positions it was seen at.
"""
import math

from mcpa.gae import LOCATION_RADIUS_M


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
