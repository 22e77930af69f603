import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_memory
from mcpa.gae import (NOTHING_TAG, Exam, FrameStore, GaeError, MemoryIndex, MemoryItem,
                      Question, SyntheticBackend, generate_exam, practice_test,
                      run_gae, sample_pilot)
from reference_index import ReferenceIndex, grade


def item(tag_set, robot=0, ts=0.0, xy=(0.0, 0.0)):
    return MemoryItem(timestamp_s=ts, pose=(xy[0], xy[1], 10.0, 0.0, 0.0, 0.0),
                      tags=frozenset(tag_set), robot_id=robot)


def test_sample_pilot_full_ratio_keeps_order():
    data = [item({f"t{i}"}, ts=float(i)) for i in range(7)]
    pilot = sample_pilot(data, 1.0, 0)
    assert pilot == data


def test_sample_pilot_rounding_and_determinism():
    data = [item({f"t{i}"}, ts=float(i)) for i in range(1050)]
    pilot = sample_pilot(data, 0.01, 123)
    assert len(pilot) == 11  # round(10.5) with halves up
    again = sample_pilot(data, 0.01, 123)
    assert pilot == again
    timestamps = [it.timestamp_s for it in pilot]
    assert timestamps == sorted(timestamps)


def test_sample_pilot_rejects_empty_dataset():
    with pytest.raises(GaeError):
        sample_pilot([], 0.5, 0)


def test_generate_exam_presence_question_format():
    pilot = [item({"fire truck"})]
    backend = SyntheticBackend()
    exam = generate_exam(pilot, 3, backend, 0)
    presence = [q for q in exam.qa_pairs if q.template == "presence"]
    assert presence and presence[0].text == "Is there a fire truck?"
    assert presence[0].answer == "YES"
    assert all(q.tag == "fire truck" for q in exam.qa_pairs)


def test_generate_exam_empty_pilot_is_vacuous():
    pilot = [item(set()), item(set())]
    exam = generate_exam(pilot, 5, SyntheticBackend(), 7)
    assert len(exam) == 5
    assert all(q.template == "presence" and q.answer == "NO" for q in exam.qa_pairs)
    assert all(q.tag == NOTHING_TAG for q in exam.qa_pairs)
    # vacuous exams are answered correctly by any memory
    assert practice_test(exam, [item({"bus"})], SyntheticBackend()) == 1.0


def test_generate_exam_deterministic_and_validates():
    pilot = [item({"a", "b"}, ts=1.0), item({"c"}, ts=2.0)]
    backend = SyntheticBackend()
    one = generate_exam(pilot, 9, backend, 99)
    two = generate_exam(pilot, 9, backend, 99)
    assert one == two
    # every question asks about content actually present in the pilot
    pilot_tags = {t for it in pilot for t in it.tags}
    assert all(q.tag in pilot_tags for q in one.qa_pairs)
    with pytest.raises(GaeError):
        generate_exam(pilot, 0, backend, 1)


def test_practice_test_self_identity_and_disjoint():
    backend = SyntheticBackend()
    memory = random_memory(np.random.default_rng(5))
    pilot = sample_pilot(memory, 0.3, 1)
    exam = generate_exam(pilot, 12, backend, 2)
    assert practice_test(exam, memory, backend) == 1.0
    # presence-YES questions about tags the memory has never seen all fail
    disjoint = Exam(robot_id=0, qa_pairs=tuple(
        Question("presence", t, f"Is there a {t}?", "YES") for t in ("ufo", "yeti")))
    assert practice_test(disjoint, [item({"zebra"}), item({"qux"})], backend) == 0.0


def test_practice_test_half_overlap():
    backend = SyntheticBackend()
    exam = Exam(robot_id=0, qa_pairs=(
        Question("presence", "a", "Is there a a?", "YES"),
        Question("presence", "b", "Is there a b?", "YES"),
    ))
    assert practice_test(exam, [item({"a"})], backend) == 0.5


def index_of(items) -> MemoryIndex:
    return SyntheticBackend().prepare_memory(items)


def test_location_grading_uses_fifty_metre_radius():
    q_near = Question("location", "cone", "Where is the cone?", (0.0, 0.0, 0.0))
    memory_near = [item({"cone"}, xy=(30.0, 40.0))]   # 50 m exactly
    memory_far = [item({"cone"}, xy=(30.1, 40.0))]    # just outside
    assert index_of(memory_near).answers(q_near)
    assert not index_of(memory_far).answers(q_near)


def test_reporter_grading_requires_attribution():
    q = Question("reporter", "bus", "Which robot sees the bus?", 2)
    assert index_of([item({"bus"}, robot=2)]).answers(q)
    assert not index_of([item({"bus"}, robot=1)]).answers(q)
    # any attribution set containing the ground-truth robot counts
    both = index_of([item({"bus"}, robot=1), item({"bus"}, robot=2)])
    assert both.answers(q)


def test_first_answering_frame_per_template():
    # "bus" on frame 0 (background tag, robot 1, 70 m east) and on frame 2
    # (event window, robot 0, at the origin)
    poses = np.zeros((3, 6))
    poses[0, 0] = 70.0
    frames = FrameStore(robot_ids=[1, 0, 0], timestamps=[0.0, 1.0, 2.0], poses=poses,
                        background=[0, -1, -1], vocabulary=["bus"], events=[("bus", 2, 3)])
    index = MemoryIndex(frames)

    def first(template, answer, tag="bus"):
        return index.first_answering_frame(Question(template, tag, "?", answer))
    assert first("presence", "YES") == 0
    assert first("presence", "YES", tag="taxi") == 3
    assert first("location", (70.0, 0.0, 0.0)) == 0
    assert first("location", (30.0, 40.0, 0.0)) == 2     # 50 m exactly; frame 0 is 57 m off
    assert first("location", (0.0, 51.0, 0.0)) == 3
    assert first("reporter", 1) == 0
    assert first("reporter", 0) == 2
    assert first("reporter", 3) == 3
    with pytest.raises(ValueError):
        first("presence", "NO")


def test_run_gae_duplicate_and_novel_extremes():
    backend = SyntheticBackend()
    rng = np.random.default_rng(8)
    base = random_memory(rng, num_items=60)
    duplicate = list(base)
    novel = [item({"martian"}, ts=float(i)) for i in range(40)]
    report = run_gae([duplicate, novel], base, 0.25, 12, backend, 3)
    assert report.scores[0] == 1.0
    assert report.scores[1] == 0.0
    assert len(report.exams) == 2
    assert report.pilot_sizes[0] == 15


def test_run_gae_monotone_in_novelty_staged():
    # shared background plus increasing per-robot novel tags; base = robot 3
    backend = SyntheticBackend()
    shared = [item({f"bg-{i % 7}"}, robot=3, ts=float(i), xy=(i * 10.0, 0.0))
              for i in range(60)]
    datasets = []
    for robot, extra in enumerate((0, 12, 36)):
        items = [MemoryItem(it.timestamp_s, it.pose, it.tags, robot) for it in shared]
        for j in range(extra):
            items[j] = MemoryItem(items[j].timestamp_s, items[j].pose,
                                  items[j].tags | {f"novel-{robot}-{j}"}, robot)
        datasets.append(items)
    report = run_gae(datasets, shared, 0.5, 300, backend, 0)
    assert report.scores[0] > report.scores[1] > report.scores[2]


def test_practice_test_monotone_under_memory_growth():
    backend = SyntheticBackend()
    rng = np.random.default_rng(21)
    for trial in range(100):
        memory = random_memory(rng, num_items=30)
        pilot = sample_pilot(memory, 0.4, trial)
        exam = generate_exam(pilot, 9, backend, trial)
        base = random_memory(rng, num_items=10)
        score = practice_test(exam, base, backend)
        grown = base + random_memory(rng, num_items=15)
        assert practice_test(exam, grown, backend) >= score


def test_merging_own_memory_recovers_full_score():
    backend = SyntheticBackend()
    rng = np.random.default_rng(33)
    base = random_memory(rng, num_items=25, tag_pool=[f"old-{i}" for i in range(6)])
    robot = random_memory(rng, num_items=25, tag_pool=[f"new-{i}" for i in range(6)])
    pilot = sample_pilot(robot, 0.4, 2)
    exam = generate_exam(pilot, 15, backend, 2)
    gae_score = practice_test(exam, base, backend)
    merged = practice_test(exam, base + robot, backend)
    assert merged == 1.0
    assert merged - gae_score == pytest.approx(1.0 - gae_score)


def test_run_gae_attaches_robot_index_to_errors():
    backend = SyntheticBackend()
    with pytest.raises(GaeError, match="robot 1"):
        run_gae([[item({"a"})], []], [], 0.5, 3, backend, 0)


def test_from_items_round_trips_items():
    items = [item({"bus", "landmark-01"}, robot=2, ts=0.5, xy=(3.0, 4.0)), item(set(), ts=1.0),
             item({"bus"}, robot=1, ts=2.0)]
    frames = FrameStore.from_items(items)
    assert list(frames) == items
    assert frames.frames_with("bus").tolist() == [0, 2]
    assert len(FrameStore.from_items([])) == 0


@pytest.mark.parametrize("n", [1, 7, 1000, 2**31, 2**33])
@pytest.mark.parametrize("m", [1, 999])
def test_vector_draw_equals_scalar_draws(n, m):
    # make_questions draws an exam's picks in one call; the exams pinned in
    # tests/golden were drawn one pick per call, so the streams must agree
    vector, scalar = np.random.default_rng(42), np.random.default_rng(42)
    values = vector.integers(n, size=m).tolist()
    assert values == [int(scalar.integers(n)) for _ in range(m)]
    assert vector.bit_generator.state == scalar.bit_generator.state


# --- MemoryIndex against the set index it replaced ------------------------------

VOCABULARY = ("bus", "landmark-00", "landmark-01")
EVENT_TAGS = ("taxi", "cone", "landmark-01")     # one named like a vocabulary tag
COORDS = (0.0, 30.0, 30.1, 40.0, 60.0, 80.0)     # 30/40 apart: exactly 50 m


@st.composite
def frame_stores(draw, min_frames=0):
    """Random stores: empty ones, sparse or absent background tags, and
    overlapping, duplicate and empty event windows."""
    n = draw(st.integers(min_frames, 12))
    vocabulary = VOCABULARY[:draw(st.integers(0, len(VOCABULARY)))]
    background = draw(st.lists(st.integers(-1, len(vocabulary) - 1), min_size=n, max_size=n))
    xy = draw(st.lists(st.tuples(st.sampled_from(COORDS), st.sampled_from(COORDS)),
                       min_size=n, max_size=n))
    poses = np.zeros((n, 6))
    if n:
        poses[:, :2] = xy
    window = st.tuples(st.integers(0, n), st.integers(0, n)).map(sorted)
    events = draw(st.lists(st.tuples(st.sampled_from(EVENT_TAGS), window)
                           .map(lambda e: (e[0], *e[1])), max_size=5))
    return FrameStore(robot_ids=draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
                      timestamps=np.arange(n, dtype=float), poses=poses,
                      background=background, vocabulary=vocabulary, events=events)


def every_question():
    tags = sorted({*VOCABULARY, *EVENT_TAGS, "unseen"})
    for tag in tags:
        yield Question("presence", tag, "?", "YES")
        yield Question("presence", tag, "?", "NO")
        for robot in range(4):
            yield Question("reporter", tag, "?", robot)
        for x in COORDS:
            for y in COORDS:
                yield Question("location", tag, "?", (x, y, 0.0))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(frame_stores())
def test_memory_index_answers_as_the_set_index(frames):
    items = list(frames)
    reference = ReferenceIndex(items)
    index, from_items = MemoryIndex(frames), MemoryIndex(FrameStore.from_items(items))
    singles = [ReferenceIndex([it]) for it in items]
    for q in every_question():
        expected = grade(q, reference)
        assert index.answers(q) == from_items.answers(q) == expected, q
        if q.answer == "NO":
            continue
        # the first frame that alone answers q, as the set index sees it
        first = next((i for i, one in enumerate(singles) if grade(q, one)), len(items))
        assert index.first_answering_frame(q) == from_items.first_answering_frame(q) == first
        assert (first < len(items)) == expected


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(frame_stores(min_frames=1), st.floats(0.05, 1.0), st.integers(1, 20),
       st.integers(0, 2**32))
def test_self_test_identity_over_frame_stores(frames, ratio, num_questions, seed):
    backend = SyntheticBackend()
    pilot = sample_pilot(frames, ratio, seed)
    exam = generate_exam(pilot, num_questions, backend, seed)
    assert practice_test(exam, frames, backend) == 1.0
    assert practice_test(exam, list(frames), backend) == 1.0
