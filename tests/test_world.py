"""The columnar world against the per-frame builder it replaced.

``reference_build_world`` is that builder, kept as the reference: it makes
one ``frames.MemoryItem`` per frame. The property tests check that the columnar
world materializes exactly the same items, base memory, objects and
questions, that a ``MemoryIndex`` over the columns answers every probe
question as the set index of ``reference_index`` does over the items, and
that the per-seed answer table grades every upload prefix exactly as that
set index does.
"""
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frames import MemoryItem, items
from mcpa.config import Scenario, build_scenario
from mcpa.gae import MemoryIndex, Question
from mcpa.harness import prepare_seed
from reference_index import (ReferenceIndex, exam_columns, first_frame_table, grade,
                             world_questions)
from mcpa.world import (PlacedObject, WorldInstance, _staged_windows, build_world,
                        landmark_tag)

# object names: duplicates, and one that is also a landmark's background tag
NAMES = ("bus", "taxi", "fire truck", "bus", landmark_tag(1))


def reference_build_world(scenario: Scenario, rng: np.random.Generator) -> WorldInstance:
    """The per-frame world builder the columnar one replaced, kept verbatim:
    one ``MemoryItem`` and one ``pose_at`` call per frame."""
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

    # resolve object positions to the host's pose at the window start
    def pose_at(robot: int, frame: int) -> tuple[float, ...]:
        lm = landmarks[routes[robot][frame // seg]]
        return (float(lm[0]), float(lm[1]), 10.0, 0.0, 0.0, 0.0)

    placed = [
        PlacedObject(o.name, o.host_robot, o.window_start, o.window_len,
                     position=pose_at(o.host_robot, o.window_start)[:2])
        for o in placed
    ]

    # per-robot frame tags
    object_windows: dict[int, list[PlacedObject]] = {}
    for o in placed:
        object_windows.setdefault(o.host_robot, []).append(o)

    # which ordinary frames get captioned with their landmark: a rate of 1
    # tags everything; sparse rates model a captioner that only remarks on
    # distinctive scenery every so often
    tag_rate = scenario.background_tag_rate
    if tag_rate >= 1.0:
        bg_tagged = np.ones((k, frames), dtype=bool)
    else:
        bg_tagged = rng.random((k, frames)) < tag_rate

    fps = scenario.frame_rate_fps
    datasets = []
    for robot in range(k):
        windows = object_windows.get(robot, ())
        items = []
        for i in range(frames):
            tags = set()
            if bg_tagged[robot, i]:
                tags.add(landmark_tag(int(routes[robot][i // seg])))
            for o in windows:
                if o.window_start <= i < o.window_start + o.window_len:
                    tags.add(o.name)
            items.append(MemoryItem(timestamp_s=i / fps, pose=pose_at(robot, i),
                                    tags=frozenset(tags), robot_id=robot))
        datasets.append(tuple(items))

    # pre-collection memory: full datasets of the seed robots
    if scenario.base_robots is not None:
        base_robots = tuple(scenario.base_robots)
    else:
        base_robots = tuple(sorted(int(b) for b in rng.choice(
            k, size=scenario.num_base_robots, replace=False)))
    base_memory = tuple(item for b in base_robots for item in datasets[b])

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
        datasets=tuple(datasets),
        base_robots=base_robots,
        base_memory=base_memory,
        placed_objects=tuple(placed),
        questions=tuple(questions),
    )


@st.composite
def world_configs(draw):
    """Small worlds: K 1-6, staged or random layout, dense or sparse
    background tags, any segment length (dividing the frame count or not),
    explicit or drawn base robots, wide or cramped towns."""
    k = draw(st.integers(1, 6))
    frames = draw(st.integers(1, 120))
    num_objects = draw(st.integers(1, 6))
    world = {
        "objects": [NAMES[i % len(NAMES)] for i in range(num_objects)],
        "object_dwell_frames": draw(st.integers(1, frames)),
        "num_landmarks": draw(st.integers(1, 6)),
        "segment_frames": draw(st.integers(1, 40)),
        "background_tag_rate": draw(st.sampled_from([1.0, 0.03, 0.5])),
        "num_base_robots": draw(st.integers(0, k)),
        # a small town puts landmarks around the 50 m location radius
        "town_extent_m": draw(st.sampled_from([1000.0, 120.0])),
    }
    if draw(st.booleans()):
        hosts = draw(st.lists(st.integers(0, k - 1), min_size=num_objects,
                              max_size=num_objects))
        world["staged_novel_counts"] = [hosts.count(r) for r in range(k)]
    if draw(st.booleans()):
        world["base_robots"] = draw(st.lists(st.integers(0, k - 1), max_size=k, unique=True))
    config = {"num_robots": k, "world": world,
              "dataset": {"items_per_robot": frames,
                          "frame_rate_fps": draw(st.sampled_from([35.0, 7.3]))},
              "seeds": {"placement": draw(st.integers(0, 2**31))}}
    return config


def _worlds(config):
    scenario = build_scenario(config)
    seed = [scenario.seeds["placement"], 0]
    return (scenario, build_world(scenario, np.random.default_rng(seed)),
            reference_build_world(scenario, np.random.default_rng(seed)))


def probe_questions(index: ReferenceIndex) -> list[Question]:
    """Questions on every tag the reference index holds and one it does
    not: presence YES and NO, every robot that saw the tag and one that did
    not, and every position plus points exactly 50 m and 50.1 m away."""
    robots, positions = index.content()
    questions = []
    for tag in [*robots, "unseen"]:
        questions += [Question("presence", tag, "?", "YES"), Question("presence", tag, "?", "NO")]
        questions += [Question("reporter", tag, "?", r)
                      for r in [*robots.get(tag, ()), max(robots.get(tag, (0,))) + 1]]
        questions += [Question("location", tag, "?", (x + dx, y + dy, 0.0))
                      for x, y in positions.get(tag, [(0.0, 0.0)])
                      for dx, dy in ((0.0, 0.0), (30.0, 40.0), (30.1, 40.0))]
    return questions


def assert_same_answers(frames, items):
    reference = ReferenceIndex(items)
    questions = probe_questions(reference)
    assert MemoryIndex(frames).answers(exam_columns(questions)).tolist() == \
        [grade(q, reference) for q in questions]


@settings(max_examples=200)
@given(world_configs())
@example({"num_robots": 3,
          "world": {"objects": ["bus", "taxi"], "object_dwell_frames": 7,
                    "segment_frames": 30, "background_tag_rate": 0.03,
                    "num_base_robots": 2},
          "dataset": {"items_per_robot": 100}, "seeds": {"placement": 5}})
def test_columnar_world_materializes_the_reference_items(config):
    _, world, ref = _worlds(config)
    assert len(world.datasets) == len(ref.datasets)
    for frames, ref_items in zip(world.datasets, ref.datasets):
        assert len(frames) == len(ref_items)
        assert items(frames) == list(ref_items)
        assert_same_answers(frames, ref_items)
    assert items(world.base_memory) == list(ref.base_memory)
    assert_same_answers(world.base_memory, ref.base_memory)
    assert world.base_robots == ref.base_robots
    assert world.placed_objects == ref.placed_objects
    assert world_questions(world) == ref.questions


@st.composite
def prefix_cases(draw):
    config = draw(world_configs())
    config["gae"] = {"questions_per_robot": 3}
    k, frames = config["num_robots"], config["dataset"]["items_per_robot"]
    counts = draw(st.lists(st.lists(st.integers(0, frames), min_size=k, max_size=k),
                           max_size=4))
    return config, [[0] * k, [frames] * k] + counts


@settings(max_examples=150)
@given(prefix_cases())
def test_accuracy_with_matches_index_grading(case):
    config, prefixes = case
    scenario, _, ref = _worlds(config)
    stage = prepare_seed(scenario, 0)
    base_answers, first_frames = first_frame_table(stage.world)
    np.testing.assert_array_equal(stage.base_answers, base_answers)
    np.testing.assert_array_equal(stage.first_frames, first_frames)
    for counts in prefixes:
        merged = ReferenceIndex(ref.base_memory)
        for ref_items, count in zip(ref.datasets, counts):
            merged.extend(ref_items[:count])
        expected = sum(grade(q, merged) for q in ref.questions) / len(ref.questions)
        assert stage.accuracy_with(np.array(counts)) == expected
