import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_memory, random_store
from frames import MemoryItem, items, reference_caption, store
import reference_index
from mcpa.gae import (NOTHING_TAG, Exam, FrameStore, GaeError, GaeReport, MemoryIndex,
                      Question, SyntheticBackend, _draw_questions, run_gae, sample_pilot)
from mcpa.remote import captions, run_captions
from reference_index import QuestionIndex, ReferenceIndex, exam_columns, grade


def item(tag_set, robot=0, ts=0.0, xy=(0.0, 0.0)):
    return MemoryItem(timestamp_s=ts, pose=(xy[0], xy[1], 10.0, 0.0, 0.0, 0.0),
                      tags=frozenset(tag_set), robot_id=robot)


def sit(pilot, num_questions, seed, memory):
    """Robot 0's exam drawn from ``pilot`` with ``seed``, and its score
    against ``memory``, through the backend's one batch entry point."""
    backend = SyntheticBackend()
    exams, scores = backend.run_exams([pilot], num_questions, [seed],
                                      backend.prepare_memory(memory))
    return exams[0], float(scores[0])


def score(columns, memory) -> float:
    """The share of the exam ``columns`` the synthetic oracle answers from ``memory``."""
    return float(MemoryIndex(memory).answers(columns).mean())


def test_sample_pilot_full_ratio_keeps_order():
    data = [item({f"t{i}"}, ts=float(i)) for i in range(7)]
    pilot = sample_pilot(store(data), 1.0, 0)
    assert items(pilot) == data


def test_sample_pilot_rounding_and_determinism():
    data = store([item({f"t{i}"}, ts=float(i)) for i in range(1050)])
    pilot = sample_pilot(data, 0.01, 123)
    assert len(pilot) == 11  # round(10.5) with halves up
    again = sample_pilot(data, 0.01, 123)
    assert items(pilot) == items(again)
    timestamps = pilot.timestamps.tolist()
    assert timestamps == sorted(timestamps)


def test_sample_pilot_rejects_empty_dataset():
    with pytest.raises(GaeError):
        sample_pilot(store([]), 0.5, 0)


# per-frame poses of the wrong count, and pose ids that are not integers, lie
# outside the table or do not number one per frame
POSE_IDS = "pose_ids must be integers indexing pose table rows, one per frame"


@pytest.mark.parametrize("build, error, message", [
    (lambda: FrameStore([0, 0], [0.0], np.zeros((2, 6))), ValueError, "one entry per frame"),
    (lambda: FrameStore([0], [0.0], np.zeros(6), hits=[0], tag_ids=[]), ValueError,
     "one entry per frame or per pair"),
    (lambda: Question("colour", "bus", "What colour is the bus?", "red"), ValueError,
     "unknown question template 'colour'"),
    (lambda: GaeReport([0.5, 1.5], [1, 1], ()), ValueError, r"scores must lie in \[0, 1\]"),
    (lambda: GaeReport([-0.1], [1], ()), ValueError, r"scores must lie in \[0, 1\]"),
    (lambda: GaeReport([np.nan, 0.5], [1, 1], ()), ValueError, r"scores must lie in \[0, 1\]"),
    (lambda: sample_pilot(store([item({"bus"})]), 0.0, 0), ValueError, "ratio must lie in"),
    (lambda: sample_pilot(store([item({"bus"})]), 1.5, 0), ValueError, "ratio must lie in"),
    (lambda: run_gae([], store([item({"bus"})]), 0.5, 1, SyntheticBackend(), 0), GaeError,
     "needs at least one robot dataset"),
    (lambda: FrameStore([0, 0], [0.0, 1.0], np.zeros((3, 6))), ValueError, POSE_IDS),
    (lambda: FrameStore([0, 0], [0.0, 1.0], np.zeros((3, 6)), pose_ids=[0]), ValueError,
     POSE_IDS),
    (lambda: FrameStore([0], [0.0], np.zeros((3, 6)), pose_ids=[[0]]), ValueError,
     POSE_IDS),
    (lambda: FrameStore([0, 0], [0.0, 1.0], np.zeros((3, 6)), pose_ids=[0.0, 1.0]), ValueError,
     POSE_IDS),
    (lambda: FrameStore([0], [0.0], np.zeros((3, 6)), pose_ids=[True]), ValueError,
     POSE_IDS),
    (lambda: FrameStore([0, 0], [0.0, 1.0], np.zeros((3, 6)), pose_ids=[0, 3]), ValueError,
     POSE_IDS),
    (lambda: FrameStore([0, 0], [0.0, 1.0], np.zeros((3, 6)), pose_ids=[-1, 0]), ValueError,
     POSE_IDS),
    (lambda: FrameStore([0], [0.0], np.zeros((3, 6)), pose_ids=np.array([2**63], np.uint64)),
     ValueError, POSE_IDS),
    (lambda: FrameStore([0], [0.0], np.zeros((0, 6)), pose_ids=[0]), ValueError,
     POSE_IDS),
], ids=["frame-columns", "pair-columns", "template", "score-above-1", "score-below-0",
        "score-nan", "ratio-0", "ratio-above-1", "no-datasets", "pose-rows", "pose-id-count",
        "pose-id-shape", "pose-id-floats", "pose-id-bools", "pose-id-above", "pose-id-negative",
        "pose-id-unsigned", "pose-id-empty-table"])
def test_malformed_gae_inputs_are_rejected(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_generate_exam_presence_question_format():
    pilot = store([item({"fire truck"})])
    exam, _ = sit(pilot, 3, 0, pilot)
    presence = [q for q in exam.qa_pairs if q.template == "presence"]
    assert presence and presence[0].text == "Is there a fire truck?"
    assert presence[0].answer == "YES"
    assert all(q.tag == "fire truck" for q in exam.qa_pairs)


def test_generate_exam_empty_pilot_is_vacuous():
    pilot = store([item(set()), item(set())])
    exam, result = sit(pilot, 5, 7, store([item({"bus"})]))
    assert len(exam) == 5
    assert all(q.template == "presence" and q.answer == "NO" for q in exam.qa_pairs)
    assert all(q.tag == NOTHING_TAG for q in exam.qa_pairs)
    # vacuous exams are answered correctly by any memory
    assert result == 1.0


def test_generate_exam_deterministic_and_validates():
    pilot = [item({"a", "b"}, ts=1.0), item({"c"}, ts=2.0)]
    one, _ = sit(store(pilot), 9, 99, store(pilot))
    two, _ = sit(store(pilot), 9, 99, store(pilot))
    assert one == two
    # every question asks about content actually present in the pilot
    pilot_tags = {t for it in pilot for t in it.tags}
    assert all(q.tag in pilot_tags for q in one.qa_pairs)
    with pytest.raises(GaeError):
        run_gae([store(pilot)], store(pilot), 1.0, 0, SyntheticBackend(), 1)


def test_random_store_is_the_store_of_random_memory():
    # criterion 06 draws its memories with random_store: the same generator
    # state must give the store of random_memory's items, and leave the
    # generator where random_memory leaves it
    for seed in range(300):
        sizes = np.random.default_rng([seed, 1]).integers([0, 2, 1], [60, 13, 6])
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_store(ours, *sizes.tolist())
        want = store(random_memory(theirs, *sizes.tolist()))
        for column in ("robot_ids", "timestamps", "poses", "hits", "tag_ids"):
            np.testing.assert_array_equal(getattr(got, column), getattr(want, column))
            assert getattr(got, column).dtype == getattr(want, column).dtype
        assert got.tags == want.tags
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_practice_test_self_identity_and_disjoint():
    memory = store(random_memory(np.random.default_rng(5)))
    pilot = sample_pilot(memory, 0.3, 1)
    assert sit(pilot, 12, 2, memory)[1] == 1.0
    # presence-YES questions about tags the memory has never seen all fail
    disjoint = [Question("presence", t, f"Is there a {t}?", "YES") for t in ("ufo", "yeti")]
    assert score(exam_columns(disjoint), store([item({"zebra"}), item({"qux"})])) == 0.0


def test_practice_test_half_overlap():
    exam = [Question("presence", "a", "Is there a a?", "YES"),
            Question("presence", "b", "Is there a b?", "YES")]
    assert score(exam_columns(exam), store([item({"a"})])) == 0.5


def answers(memory, question) -> bool:
    """Does the prepared ``memory`` (a list of items) answer ``question``?"""
    index = SyntheticBackend().prepare_memory(store(memory))
    return bool(index.answers(exam_columns([question]))[0])


def test_location_grading_uses_fifty_metre_radius():
    q_near = Question("location", "cone", "Where is the cone?", (0.0, 0.0, 0.0))
    memory_near = [item({"cone"}, xy=(30.0, 40.0))]   # 50 m exactly
    memory_far = [item({"cone"}, xy=(30.1, 40.0))]    # just outside
    assert answers(memory_near, q_near)
    assert not answers(memory_far, q_near)


# (px, py, x, y) where math.hypot(px - x, py - y) <= 50 disagrees with
# numpy's hypot or with the squared distance <= 2500: both ways for each
HYPOT_ULP_CASES = [tuple(map(float.fromhex, case)) for case in (
    ("-0x1.36402803f5eabp+7", "-0x1.3f1b3a07f563cp+7", "-0x1.4cc1a95c25224p+7",
     "-0x1.bb57fadec08e4p+6"),
    ("0x1.fda7affd1a0e0p+5", "-0x1.32a1eb3fdc37dp+5", "0x1.684a0413418f0p+5",
     "0x1.01bbb39ab6340p+3"),
    ("-0x1.0583ba14d1320p+7", "-0x1.8ee66a6cb0455p+7", "-0x1.28ca3121bff14p+7",
     "-0x1.315411cd1eefap+7"),
    ("0x1.606a754c25c73p+8", "-0x1.9fc4d5e23fa58p+6", "0x1.8ab742beb1020p+8",
     "-0x1.3521e3254c494p+6"),
)]


def test_location_radius_is_math_hypot_to_the_last_ulp():
    expected = [math.hypot(px - x, py - y) <= 50.0 for px, py, x, y in HYPOT_ULP_CASES]
    # the cases tell math.hypot from both shortcuts, in both directions
    numpy_hypot = [bool(np.hypot(px - x, py - y) <= 50.0) for px, py, x, y in HYPOT_ULP_CASES]
    squared = [(px - x) ** 2 + (py - y) ** 2 <= 2500.0 for px, py, x, y in HYPOT_ULP_CASES]
    assert expected[:2] != numpy_hypot[:2] and sorted(expected[:2]) == [False, True]
    assert expected[2:] != squared[2:] and sorted(expected[2:]) == [False, True]
    memory = [item({"cone"}, robot=1, xy=(px, py)) for px, py, _, _ in HYPOT_ULP_CASES]
    for i, (_, _, x, y) in enumerate(HYPOT_ULP_CASES):
        q = Question("location", "cone", "?", (x, y, 0.0))
        assert answers([memory[i]], q) == expected[i] == QuestionIndex(store([memory[i]])).answers(q)


def test_reporter_grading_requires_attribution():
    q = Question("reporter", "bus", "Which robot sees the bus?", 2)
    assert answers([item({"bus"}, robot=2)], q)
    assert not answers([item({"bus"}, robot=1)], q)
    # any attribution set containing the ground-truth robot counts
    both = [item({"bus"}, robot=1), item({"bus"}, robot=2)]
    assert answers(both, q)


def test_first_answering_frame_per_template():
    # "bus" on frame 0 (robot 1, 70 m east) and on frame 2 (robot 0, at the
    # origin), its pairs out of frame order and one of them repeated
    poses = np.zeros((3, 6))
    poses[0, 0] = 70.0
    frames = FrameStore(robot_ids=[1, 0, 0], timestamps=[0.0, 1.0, 2.0], poses=poses,
                        hits=[2, 0, 2], tag_ids=[0, 0, 0], tags=["bus"])
    index = MemoryIndex(frames)

    def first(template, answer, tag="bus"):
        return index.first_frames(exam_columns([Question(template, tag, "?", answer)]))[0]
    assert first("presence", "YES") == 0
    assert first("presence", "YES", tag="taxi") == 3
    assert first("location", (70.0, 0.0, 0.0)) == 0
    assert first("location", (30.0, 40.0, 0.0)) == 2     # 50 m exactly; frame 0 is 57 m off
    assert first("location", (0.0, 51.0, 0.0)) == 3
    assert first("reporter", 1) == 0
    assert first("reporter", 0) == 2
    assert first("reporter", 3) == 3
    # a presence question answered NO is right when no frame has the tag
    no = exam_columns([Question("presence", tag, "?", "NO") for tag in ("bus", "taxi")])
    assert index.answers(no).tolist() == [False, True]


def test_run_gae_duplicate_and_novel_extremes():
    backend = SyntheticBackend()
    rng = np.random.default_rng(8)
    base = store(random_memory(rng, num_items=60))
    duplicate = base
    novel = store([item({"martian"}, ts=float(i)) for i in range(40)])
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
        own = [MemoryItem(it.timestamp_s, it.pose, it.tags, robot) for it in shared]
        for j in range(extra):
            own[j] = MemoryItem(own[j].timestamp_s, own[j].pose,
                                own[j].tags | {f"novel-{robot}-{j}"}, robot)
        datasets.append(store(own))
    report = run_gae(datasets, store(shared), 0.5, 300, backend, 0)
    assert report.scores[0] > report.scores[1] > report.scores[2]


def test_practice_test_monotone_under_memory_growth():
    rng = np.random.default_rng(21)
    for trial in range(100):
        memory = store(random_memory(rng, num_items=30))
        pilot = sample_pilot(memory, 0.4, trial)
        base = random_memory(rng, num_items=10)
        exam, result = sit(pilot, 9, trial, store(base))
        grown = base + random_memory(rng, num_items=15)
        assert score(exam.columns, store(grown)) >= result


def test_merging_own_memory_recovers_full_score():
    rng = np.random.default_rng(33)
    base = random_memory(rng, num_items=25, tag_pool=[f"old-{i}" for i in range(6)])
    robot = random_memory(rng, num_items=25, tag_pool=[f"new-{i}" for i in range(6)])
    pilot = sample_pilot(store(robot), 0.4, 2)
    gae_score = sit(pilot, 15, 2, store(base))[1]
    merged = sit(pilot, 15, 2, store(base + robot))[1]
    assert merged == 1.0
    assert merged - gae_score == pytest.approx(1.0 - gae_score)


def test_run_gae_attaches_robot_index_to_errors():
    backend = SyntheticBackend()
    with pytest.raises(GaeError, match="robot 1"):
        run_gae([store([item({"a"})]), store([])], store([]), 0.5, 3, backend, 0)


def test_from_items_round_trips_items():
    # the test helpers' item-list conversion and its inverse
    memory = [item({"bus", "landmark-01"}, robot=2, ts=0.5, xy=(3.0, 4.0)), item(set(), ts=1.0),
              item({"bus"}, robot=1, ts=2.0)]
    frames = store(memory)
    assert items(frames) == memory
    assert frames.occurrences(["bus"])[0].tolist() == [0, 2]
    assert len(store([])) == 0


@pytest.mark.parametrize("n", [1, 7, 1000, 2**31, 2**33])
@pytest.mark.parametrize("m", [1, 999])
def test_vector_draw_equals_scalar_draws(n, m):
    # run_exams draws each exam's picks in one call; the exams pinned in
    # tests/golden were drawn one pick per call, so the streams must agree
    vector, scalar = np.random.default_rng(42), np.random.default_rng(42)
    values = vector.integers(n, size=m).tolist()
    assert values == [int(scalar.integers(n)) for _ in range(m)]
    assert vector.bit_generator.state == scalar.bit_generator.state


# --- MemoryIndex and columnar exams against the code they replaced --------------

VOCABULARY = ("bus", "landmark-00", "landmark-01")
OBJECT_TAGS = ("taxi", "cone", "landmark-01")     # one named like a landmark
COORDS = (0.0, 30.0, 30.1, 40.0, 60.0, 80.0)     # 30/40 apart: exactly 50 m


@st.composite
def frame_stores(draw, min_frames=0):
    """Random stores: empty ones; sparse or absent landmark tags; object tags
    over overlapping, duplicate and empty windows of frames, one table entry
    per window; tags on no frame; repeated pairs; pairs in any order."""
    n = draw(st.integers(min_frames, 12))
    vocabulary = VOCABULARY[:draw(st.integers(0, len(VOCABULARY)))]
    landmarks = draw(st.lists(st.integers(-1, len(vocabulary) - 1), min_size=n, max_size=n))
    xy = draw(st.lists(st.tuples(st.sampled_from(COORDS), st.sampled_from(COORDS)),
                       min_size=n, max_size=n))
    poses = np.zeros((n, 6))
    if n:
        poses[:, :2] = xy
    window = st.tuples(st.integers(0, n), st.integers(0, n)).map(sorted)
    objects = draw(st.lists(st.tuples(st.sampled_from(OBJECT_TAGS), window), max_size=5))
    pairs = [(i, tag) for i, tag in enumerate(landmarks) if tag >= 0]
    pairs += [(i, len(vocabulary) + j) for j, (_, (start, stop)) in enumerate(objects)
              for i in range(start, stop)]
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
    pairs = draw(st.permutations(pairs))
    return FrameStore(robot_ids=draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)),
                      timestamps=np.arange(n, dtype=float), poses=poses,
                      hits=[i for i, _ in pairs], tag_ids=[tag for _, tag in pairs],
                      tags=vocabulary + tuple(name for name, _ in objects))


def every_question():
    tags = sorted({*VOCABULARY, *OBJECT_TAGS, "unseen"})
    for tag in tags:
        yield Question("presence", tag, "?", "YES")
        yield Question("presence", tag, "?", "NO")
        for robot in range(4):
            yield Question("reporter", tag, "?", robot)
        for x in COORDS:
            for y in COORDS:
                yield Question("location", tag, "?", (x, y, 0.0))


QUESTIONS = list(every_question())
POSITIVE = [q for q in QUESTIONS if q.answer != "NO"]


def one_tag_run(xs, ys, robots) -> FrameStore:
    """Frames at (xs[i], ys[i]) taken by robots[i], each with the one tag "bus"."""
    n = len(xs)
    poses = np.zeros((n, 6))
    poses[:, 0], poses[:, 1] = xs, ys
    return FrameStore(robots, np.arange(n, dtype=float), poses, hits=range(n),
                      tag_ids=[0] * n, tags=("bus",))


@settings(max_examples=100)
@given(frame_stores())
# consecutive frames that differ only in x, only in y or only in robot each
# start a run of their own
@example(one_tag_run([0.0, 60.0, 0.0], [30.0] * 3, [1] * 3))
@example(one_tag_run([30.0] * 3, [0.0, 0.0, 60.0], [0] * 3))
@example(one_tag_run([40.0] * 4, [40.0] * 4, [0, 2, 2, 0]))
def test_memory_index_answers_as_the_set_index(frames):
    memory = items(frames)
    reference = ReferenceIndex(memory)
    singles = [ReferenceIndex([it]) for it in memory]
    expected = [grade(q, reference) for q in QUESTIONS]
    # the first frame that alone answers q, as the set index sees it
    first = [next((i for i, one in enumerate(singles) if grade(q, one)), len(memory))
             for q in POSITIVE]
    questions, positive = exam_columns(QUESTIONS), exam_columns(POSITIVE)
    for index in (MemoryIndex(frames), MemoryIndex(store(memory)),
                  MemoryIndex(frames, questions[1])):
        assert index.answers(questions).tolist() == expected
        assert index.first_frames(positive).tolist() == first


@settings(max_examples=60, derandomize=True)
@given(st.lists(frame_stores(), min_size=1, max_size=4), st.booleans())
@example([FrameStore([], [], [])], False)
def test_a_joined_index_answers_as_its_stores_concatenated(stores, asked_only):
    """An index over a list of stores, lists of one and empty stores included,
    answers a question when any store does, and then a presence question
    answered NO flips, as the index of the stores concatenated does."""
    questions = exam_columns(QUESTIONS)
    tags = questions[1] if asked_only else None
    expected = MemoryIndex(FrameStore.concatenate(stores), tags).answers(questions)
    assert MemoryIndex(stores, tags).answers(questions).tolist() == expected.tolist()


@settings(max_examples=60)
@given(frame_stores(), frame_stores(), st.integers(1, 12), st.integers(0, 2**32),
       st.booleans())
@example(FrameStore([], [], []), FrameStore([0], [0.0], np.zeros(6)), 4, 0, False)
def test_columnar_exams_match_the_per_question_path(pilot, memory, num_questions, seed,
                                                    from_items):
    """Exams (columns, questions and repr), practice-test scores and first
    answering frames equal those of the per-question code they replaced, on
    column-built and item-built stores: empty and tagless pilots, repeated
    pairs, tags on no frame, an object tag named like a landmark."""
    if from_items:
        pilot, memory = store(items(pilot)), store(items(memory))
    exam, result = sit(pilot, num_questions, seed, memory)
    questions = tuple(reference_index.make_questions(pilot, num_questions,
                                                     np.random.default_rng(seed)))
    assert exam.qa_pairs == questions
    assert repr(exam) == f"Exam(robot_id=0, qa_pairs={questions!r})"
    templates, tags, tag_ids, truth = exam.columns
    rebuilt = exam_columns(questions)
    assert templates.tolist() == rebuilt[0].tolist()
    assert [tags[i] for i in tag_ids] == [rebuilt[1][i] for i in rebuilt[2]]
    assert truth.tolist() == rebuilt[3].tolist()

    oracle = QuestionIndex(memory)
    assert result == sum(map(oracle.answers, questions)) / len(exam)
    positive = [q for q in questions if q.answer != "NO"]
    if positive:
        first = [oracle.first_answering_frame(q) for q in positive]
        columns = exam_columns(positive)
        assert MemoryIndex(memory).first_frames(columns).tolist() == first
        assert MemoryIndex(memory, columns[1]).first_frames(columns).tolist() == first


class RecordingBackend(SyntheticBackend):
    """The synthetic backend, keeping the pilots and exam seeds it was given."""

    def run_exams(self, pilots, num_questions, seeds, index):
        self.pilots, self.seeds = pilots, seeds
        return super().run_exams(pilots, num_questions, seeds, index)


def store_bytes(frames: FrameStore) -> tuple:
    return (*(getattr(frames, column).tobytes() for column in
              ("robot_ids", "timestamps", "poses", "hits", "tag_ids")), frames.tags)


@settings(max_examples=40)
@given(st.lists(frame_stores(min_frames=1), min_size=1, max_size=12), frame_stores(),
       st.floats(0.05, 1.0), st.integers(0, 2**32 - 1))
def test_robot_k_draws_from_spawn_keys_k0_and_k1(datasets, base, ratio, seed):
    """Robot k's pilot is sampled with child (k, 0) of the seed's sequence,
    SeedSequence(seed).spawn(K)[k].spawn(2)[0], and its exam drawn with
    child (k, 1), for K from 1 to 12."""
    backend = RecordingBackend()
    report = run_gae(datasets, base, ratio, 5, backend, seed)
    children = [child.spawn(2) for child in np.random.SeedSequence(seed).spawn(len(datasets))]
    pilots = [sample_pilot(frames, ratio, pilot_seed)
              for frames, (pilot_seed, _) in zip(datasets, children)]
    assert list(map(store_bytes, backend.pilots)) == list(map(store_bytes, pilots))
    assert ([s.generate_state(8).tobytes() for s in backend.seeds]
            == [exam_seed.generate_state(8).tobytes() for _, exam_seed in children])
    exams, scores = SyntheticBackend().run_exams(pilots, 5, [c[1] for c in children],
                                                 MemoryIndex(base))
    assert report.exams == tuple(exams)
    assert report.scores.tobytes() == scores.tobytes()


@st.composite
def pilot_lists(draw):
    """1-5 pilots, empty and tagless ones included, each with its tag table
    in an order of its own, so one tag has different ids across pilots."""
    pilots = []
    for frames in draw(st.lists(frame_stores(), min_size=1, max_size=5)):
        order = draw(st.permutations(range(len(frames.tags))))
        position = np.argsort(np.array(order, dtype=np.intp))
        pilots.append(FrameStore(frames.robot_ids, frames.timestamps, frames.poses, frames.hits,
                                 position[frames.tag_ids], [frames.tags[i] for i in order]))
    return pilots


@settings(max_examples=30)
@given(pilot_lists(), frame_stores(), st.integers(1, 12),
       st.lists(st.integers(0, 2**32), min_size=5, max_size=5))
def test_batched_exams_equal_one_pilot_at_a_time(pilots, memory, num_questions, seeds):
    """run_exams over K pilots gives robot k the exam and score that a
    one-pilot call with robot k's seed gives."""
    backend = SyntheticBackend()
    prepared = backend.prepare_memory(memory)
    exams, scores = backend.run_exams(pilots, num_questions, seeds[:len(pilots)], prepared)
    assert len(exams) == len(scores) == len(pilots)
    for k, (pilot, seed) in enumerate(zip(pilots, seeds)):
        (single,), (alone,) = backend.run_exams([pilot], num_questions, [seed], prepared)
        assert repr(exams[k]) == repr(Exam(k, single.qa_pairs))
        assert scores[k] == alone


@settings(max_examples=100)
@given(frame_stores(min_frames=1), st.floats(0.05, 1.0), st.integers(1, 20),
       st.integers(0, 2**32))
def test_self_test_identity_over_frame_stores(frames, ratio, num_questions, seed):
    pilot = sample_pilot(frames, ratio, seed)
    exam, result = sit(pilot, num_questions, seed, frames)
    assert result == 1.0
    assert score(exam.columns, store(items(frames))) == 1.0


def assert_same_store(a: FrameStore, b: FrameStore):
    for column in ("robot_ids", "timestamps", "poses", "hits", "tag_ids"):
        np.testing.assert_array_equal(getattr(a, column), getattr(b, column))
    assert a.tags == b.tags


@st.composite
def stores_and_indices(draw):
    """A random store and an ascending set of its frame indices: none, one,
    all or any of them."""
    frames = draw(frame_stores())
    n = len(frames)
    if n == 0:
        return frames, []
    chosen = draw(st.one_of(st.just(set()), st.just(set(range(n))),
                            st.sets(st.integers(0, n - 1), max_size=1),
                            st.sets(st.integers(0, n - 1))))
    return frames, sorted(chosen)


@settings(max_examples=120)
@given(stores_and_indices(), st.integers(0, 2**32))
def test_column_ops_match_the_item_reference(case, seed):
    frames, chosen = case
    memory = items(frames)
    assert items(frames.take(chosen)) == [memory[i] for i in chosen]
    hit_frames, tag_ids, names = frames.occurrences()
    assert list(zip(hit_frames.tolist(), [names[i] for i in tag_ids.tolist()])) == \
        [(i, tag) for i, it in enumerate(memory) for tag in sorted(it.tags)]
    # the default names are the whole tag table, tags on no frame included,
    # and a sub-store keeps that table
    assert names == tuple(sorted(set(frames.tags))) == frames.take(chosen).occurrences()[2]
    bus = frames.occurrences(["bus", "unseen"])
    assert list(zip(*bus[:2])) == [(i, 0) for i, it in enumerate(memory) if "bus" in it.tags]
    assert captions(frames) == "\n".join(reference_caption(it) for it in memory)
    if memory:
        assert_same_store(sample_pilot(frames, 1.0, seed), frames)
    else:
        with pytest.raises(GaeError):
            sample_pilot(frames, 1.0, seed)


@st.composite
def stores_on_a_shared_table(draw):
    """A pose table of 1-4 rows (x, y and yaw drawn, -0.0 among them) and 1-4
    random stores whose frames point into it, empty stores included."""
    rows = draw(st.integers(1, 4))
    table = np.zeros((rows, 6))
    for column in (0, 1, 5):
        table[:, column] = draw(st.lists(st.sampled_from((*COORDS, -0.0)),
                                         min_size=rows, max_size=rows))
    stores = []
    for frames in draw(st.lists(frame_stores(), min_size=1, max_size=4)):
        ids = draw(st.lists(st.integers(0, rows - 1), min_size=len(frames),
                            max_size=len(frames)))
        stores.append((frames, np.array(ids, dtype=np.intp)))
    return table, stores


@settings(max_examples=60, derandomize=True)
@given(stores_on_a_shared_table(), st.integers(1, 12), st.integers(0, 2**32))
@example((np.zeros((1, 6)), [(FrameStore([], [], []), np.array([], dtype=np.intp))]), 3, 0)
@example((np.ones((2, 6)), [(one_tag_run([0.0, 0.0], [30.0, 30.0], [1, 1]), np.array([1, 0]))]),
         4, 1)
def test_stores_on_a_shared_table_read_as_their_materialized_poses(case, num_questions, seed):
    """Stores whose frames hold ids into one pose table give every result that
    the same stores holding each frame's pose row give: sub-stores, joins,
    occurrences, first frames and answers, captions and drawn exams."""
    table, cases = case
    shared = [FrameStore(f.robot_ids, f.timestamps, table, f.hits, f.tag_ids, f.tags, ids)
              for f, ids in cases]
    flat = [FrameStore(f.robot_ids, f.timestamps, table[ids], f.hits, f.tag_ids, f.tags)
            for f, ids in cases]
    assert all(frames.pose_table is table for frames in shared)
    for ours, theirs in zip(shared, flat):
        assert_same_store(ours, theirs)
        every_other = np.arange(0, len(ours), 2)
        assert ours.take(every_other).pose_table is table
        assert_same_store(ours.take(every_other), theirs.take(every_other))
        for one, other in zip(ours.occurrences(), theirs.occurrences()):
            np.testing.assert_array_equal(one, other)
        assert captions(ours) == captions(theirs)
        assert run_captions(ours) == run_captions(theirs)
    assert_same_store(FrameStore.concatenate(shared), FrameStore.concatenate(flat))
    questions, positive = exam_columns(QUESTIONS), exam_columns(POSITIVE)
    for ours, theirs in ((shared[0], flat[0]), (shared, flat)):
        assert (MemoryIndex(ours).answers(questions).tolist()
                == MemoryIndex(theirs).answers(questions).tolist())
        assert (MemoryIndex(ours).first_frames(positive).tolist()
                == MemoryIndex(theirs).first_frames(positive).tolist())
    draws = [_draw_questions(stores, num_questions,
                             [np.random.default_rng([seed, k]) for k in range(len(stores))])
             for stores in (shared, flat)]
    ours, theirs = draws
    assert ours[1] == theirs[1]
    for column in (0, 2, 3):
        assert ours[column].tobytes() == theirs[column].tobytes()
