import json
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cli_env
from frames import MemoryItem, reference_caption, store
from mcpa import remote
from mcpa.gae import Exam, GaeError, Question, run_gae
from mcpa.remote import (GaeParseError, GaeTransportError, RemoteBackend,
                         chat_completion, grade_text_answer)


class FakeChatServer:
    """Tiny chat-completions stand-in: canned replies, captured requests
    (decoded, and as the raw bytes received).

    ``statuses`` and ``replies`` are consumed one per request; a reply of
    type ``bytes`` is sent as the raw body instead of a chat payload, and
    ``delay_s`` stalls every request before it is answered.
    """

    def __init__(self):
        self.requests = []
        self.replies = []
        self.statuses = []
        self.delay_s = 0.0
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                raw = self.rfile.read(int(self.headers["Content-Length"]))
                server.requests.append({"body": json.loads(raw), "raw": raw,
                                        "auth": self.headers.get("Authorization")})
                time.sleep(server.delay_s)
                status = server.statuses.pop(0) if server.statuses else 200
                if status != 200:
                    self.send_response(status)
                    if 300 <= status < 400:
                        self.send_header("Location", server.url)
                    self.end_headers()
                    self.wfile.write(b"backend exploded")
                    return
                reply = server.replies.pop(0) if server.replies else "OK"
                payload = {"choices": [{"message": {"content": reply}}]}
                data = reply if isinstance(reply, bytes) else json.dumps(payload).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # a client that timed out leaves the stalled handler a broken pipe
        self.httpd.handle_error = lambda request, client_address: None
        self.thread = threading.Thread(target=self.httpd.serve_forever,
                                       kwargs={"poll_interval": 0.05}, daemon=True)
        self.thread.start()

    @property
    def url(self):
        host, port = self.httpd.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()


@pytest.fixture
def server():
    srv = FakeChatServer()
    yield srv
    srv.close()


def encoded(model="m", messages=({"role": "user", "content": "x"},)) -> bytes:
    """A chat request as ``json.dumps`` encodes it."""
    return json.dumps({"model": model, "messages": list(messages), "temperature": 0}).encode()


def test_chat_completion_request_shape_and_reply(server):
    server.replies = ["hello there"]
    sent = encoded("test-model", [{"role": "system", "content": "sys"},
                                  {"role": "user", "content": "usr"}])
    out = chat_completion(server.url, sent, token="sekrit", retries=1)
    assert out == "hello there"
    assert server.requests[0]["raw"] == sent
    body = server.requests[0]["body"]
    assert body["model"] == "test-model"
    assert body["temperature"] == 0
    assert [m["role"] for m in body["messages"]] == ["system", "user"]
    assert server.requests[0]["auth"] == "Bearer sekrit"


def test_chat_completion_encodes_a_model_and_messages(server):
    messages = [{"role": "user", "content": "Is there a bus? \"é\" \U0001F68C"}]
    assert chat_completion(server.url, "probe", messages, retries=1) == "OK"
    assert server.requests[0]["raw"] == encoded("probe", messages)
    assert server.requests[0]["auth"] is None


def test_chat_completion_retries_on_server_error(server):
    server.statuses = [500, 200]
    server.replies = ["recovered"]
    out = chat_completion(server.url, encoded(), retries=3, backoff_s=0.0)
    assert out == "recovered"
    assert len(server.requests) == 2


def test_chat_completion_gives_up_after_retries(server):
    server.statuses = [500, 500, 500]
    with pytest.raises(GaeTransportError):
        chat_completion(server.url, encoded(), retries=3, backoff_s=0.0)
    assert len(server.requests) == 3


def test_chat_completion_writes_transcript(server, tmp_path):
    server.replies = ["logged", "YES"]
    path = tmp_path / "transcript.jsonl"
    backend = RemoteBackend(url=server.url, model="m", retries=1,
                            transcript_path=str(path))
    assert backend._chat(remote._request("m", "sys", "usr")) == "logged"
    exam = Exam(robot_id=0, qa_pairs=(Question("presence", "bus", 'Is there a "bus"?', "YES"),))
    assert backend.test(exam, backend.prepare_memory(BASE)) == 1.0
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 2
    assert lines[0]["response"] == "logged"
    assert lines[0]["request"]["messages"][1]["content"] == "usr"
    # an answer request is logged as the object it encodes
    context = f'{remote.captions(BASE)}\n\nQuestion: Is there a "bus"?'
    assert lines[1]["response"] == "YES"
    assert lines[1]["request"]["messages"][1]["content"] == context
    assert lines[1]["request"] == {
        "model": "m", "temperature": 0,
        "messages": [{"role": "system", "content": remote._ANSWER_PROMPT},
                     {"role": "user", "content": context}]}


def test_chat_completion_retries_rate_limit(server):
    server.statuses = [429, 200]
    server.replies = ["after the wait"]
    out = chat_completion(server.url, encoded(), retries=3, backoff_s=0.0)
    assert out == "after the wait"
    assert len(server.requests) == 2


@pytest.mark.parametrize("status", [400, 302])
def test_chat_completion_fails_at_once_on_client_error(server, status):
    # a redirect is not followed either: it would resend the bearer token
    server.statuses = [status, 200]
    with pytest.raises(GaeTransportError, match=f"HTTP {status}"):
        chat_completion(server.url, encoded(), token="sekrit", retries=3, backoff_s=0.0)
    assert len(server.requests) == 1


def test_chat_completion_non_json_reply_is_parse_error(server, tmp_path):
    server.replies = [b"<html><body>gateway says hi</body></html>"]
    path = tmp_path / "transcript.jsonl"
    backend = RemoteBackend(url=server.url, model="m", retries=3,
                            transcript_path=str(path))
    with pytest.raises(GaeParseError):
        backend._chat(remote._request("m", "sys", "usr"))
    assert len(server.requests) == 1
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 1 and "error" in lines[0] and "response" not in lines[0]


def test_chat_completion_refused_connection_uses_every_attempt(monkeypatch):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    sleeps = []
    monkeypatch.setattr(remote.time, "sleep", sleeps.append)
    with pytest.raises(GaeTransportError, match="after 3 attempt"):
        chat_completion(f"http://127.0.0.1:{port}/v1/chat/completions", encoded(),
                        retries=3, backoff_s=0.5)
    assert sleeps == [0.5, 1.0]


def test_chat_completion_times_out_and_retries(server):
    server.delay_s = 0.5
    with pytest.raises(GaeTransportError, match="after 2 attempt"):
        chat_completion(server.url, encoded(), timeout_s=0.2, retries=2, backoff_s=0.0)
    assert len(server.requests) == 2


@pytest.mark.parametrize("scheme", ["file", "ftp"])
def test_chat_completion_refuses_non_http_urls(monkeypatch, tmp_path, scheme):
    reply = tmp_path / "reply.json"
    reply.write_text(json.dumps({"choices": [{"message": {"content": "leaked"}}]}))
    url = reply.as_uri() if scheme == "file" else "ftp://127.0.0.1/chat"

    def no_io(*args, **kwargs):
        raise AssertionError("a non-http URL was opened")
    monkeypatch.setattr(remote._OPENER, "open", no_io)
    transcript = tmp_path / "transcript.jsonl"
    backend = RemoteBackend(url=url, model="m", transcript_path=str(transcript))
    with pytest.raises(GaeTransportError, match="not an http"):
        backend.make_exam(BASE, 1, 0)
    exam = Exam(robot_id=0, qa_pairs=(Question("presence", "bus", "Is there a bus?", "YES"),))
    with pytest.raises(GaeTransportError, match="not an http"):
        backend.test(exam, backend.prepare_memory(BASE))
    assert not transcript.exists()


def test_remote_backend_requires_endpoint(monkeypatch):
    monkeypatch.delenv("MCPA_REMOTE_URL", raising=False)
    with pytest.raises(GaeError):
        RemoteBackend()


def test_cli_import_needs_no_http_package():
    # the remote backend, and with it the stdlib HTTP client, loads only for --backend remote
    probe = ("import sys, mcpa.cli; print(sorted(m for m in ('requests', 'urllib3', "
             "'http.client', 'urllib.request') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=cli_env(), check=True).stdout
    assert out.strip() == "[]"


def test_remote_exam_generation_parses_json(server):
    server.replies = [json.dumps([
        {"template": "presence", "tag": "bus", "question": "Is there a bus?",
         "answer": "yes"},
        {"template": "location", "tag": "bus", "question": "Where is the bus?",
         "answer": "12.0, -3.5, 0.4"},
        {"template": "reporter", "tag": "bus", "question": "Which robot sees the bus?",
         "answer": "robot 3"},
    ])]
    backend = RemoteBackend(url=server.url, model="m", retries=1)
    pilot = store([MemoryItem(0.0, (1.0, 2.0, 10.0, 0, 0, 0), frozenset({"bus"}), 3)])
    exam = backend.make_exam(pilot, 3, 0)
    assert [q.template for q in exam.qa_pairs] == ["presence", "location", "reporter"]
    assert exam.qa_pairs[0].answer == "YES"
    assert exam.qa_pairs[1].answer == (12.0, -3.5, 0.4)
    assert exam.qa_pairs[2].answer == 3
    # pilot captions went up in the request
    assert "bus" in server.requests[0]["body"]["messages"][1]["content"]


def test_remote_exam_generation_rejects_garbage(server):
    server.replies = ["no json here at all"]
    backend = RemoteBackend(url=server.url, model="m", retries=1)
    pilot = store([MemoryItem(0.0, (0, 0, 10, 0, 0, 0), frozenset({"bus"}), 0)])
    with pytest.raises(GaeParseError):
        backend.make_exam(pilot, 2, 0)


def test_remote_practice_test_grades_answers(server):
    exam = Exam(robot_id=0, qa_pairs=(
        Question("presence", "bus", "Is there a bus?", "YES"),
        Question("location", "bus", "Where is the bus?", (10.0, 20.0, 0.0)),
        Question("reporter", "bus", "Which robot sees the bus?", 2),
        Question("presence", "cat", "Is there a cat?", "NO"),
    ))
    server.replies = [
        "YES, clearly.",
        "[30.0, 60.0, 0.0]",   # 44.7 m away: inside the 50 m radius
        "I think robot 2 saw it",
        "mumble mumble",       # malformed: graded incorrect
    ]
    backend = RemoteBackend(url=server.url, model="m", retries=1)
    memory = store([MemoryItem(0.0, (10.0, 20.0, 10, 0, 0, 0), frozenset({"bus"}), 2)])
    assert backend.test(exam, backend.prepare_memory(memory)) == 0.75


def test_grade_text_answer_rules():
    presence = Question("presence", "bus", "?", "YES")
    assert grade_text_answer(presence, "  yes ")
    assert not grade_text_answer(presence, "no")
    assert not grade_text_answer(presence, "")
    location = Question("location", "bus", "?", (0.0, 0.0, 0.0))
    assert grade_text_answer(location, "(30, 40, 0)")
    assert not grade_text_answer(location, "(300, 400, 0)")
    assert not grade_text_answer(location, "somewhere east")
    reporter = Question("reporter", "bus", "?", 4)
    assert grade_text_answer(reporter, "drone 4")
    assert not grade_text_answer(reporter, "drone 5")


def test_remote_concurrent_answers(server):
    exam = Exam(robot_id=0, qa_pairs=tuple(
        Question("presence", f"t{i}", f"Is there a t{i}?", "YES") for i in range(6)))
    server.replies = ["YES"] * 6
    backend = RemoteBackend(url=server.url, model="m", retries=1, max_concurrency=3)
    memory = store([MemoryItem(0.0, (0, 0, 10, 0, 0, 0),
                               frozenset({f"t{i}" for i in range(6)}), 0)])
    assert backend.test(exam, backend.prepare_memory(memory)) == 1.0
    assert len(server.requests) == 6


def test_run_gae_captions_the_base_memory_once(server, monkeypatch):
    captioned = []

    def counted(frames):
        captioned.append(frames)
        return remote_captions(frames)
    remote_captions = remote.captions
    monkeypatch.setattr(remote, "captions", counted)
    base_items = [MemoryItem(float(i), (0, 0, 10, 0, 0, 0), frozenset({"bus"}), 0)
                  for i in range(4)]
    base = store(base_items)
    datasets = [store([MemoryItem(float(i), (0, 0, 10, 0, 0, 0), frozenset({f"t{k}"}), k)
                       for i in range(5)]) for k in range(3)]
    question = json.dumps([{"template": "presence", "tag": "bus",
                            "question": "Is there a bus?", "answer": "YES"}])
    # the robots' exams repeat one text, which is asked once against the base memory
    server.replies = [question, "YES", question, question]
    backend = RemoteBackend(url=server.url, model="m", retries=1)
    report = run_gae(datasets, base, 0.4, 1, backend, 0)
    assert list(report.scores) == [1.0] * 3
    # one captioning of the base memory, then one per robot's pilot
    assert len(captioned) == 1 + len(datasets)
    assert captioned[0] is base
    systems = [r["body"]["messages"][0]["content"] for r in server.requests]
    asking, answering = remote._QUESTION_PROMPT.format(n=1), remote._ANSWER_PROMPT
    assert systems == [asking, answering, asking, asking]
    # the one answer request carried the whole base memory's captions
    context = "\n".join(reference_caption(it) for it in base_items)
    assert server.requests[1]["body"]["messages"][1]["content"] == \
        f"{context}\n\nQuestion: Is there a bus?"


MALFORMED = "<malformed>"


def text_keyed_chat(monkeypatch, replies: dict):
    """Replace ``remote.chat_completion`` by a pure responder: an answer
    prompt gets ``replies[text]`` (a parse error for ``MALFORMED``; an
    exception value is raised), a question prompt gets ``replies[None]``.
    Returns the list of (system, user) prompts it received."""
    prompts = []

    def chat(url, body, **kwargs):
        system, user = (m["content"] for m in json.loads(body)["messages"])
        prompts.append((system, user))
        if system != remote._ANSWER_PROMPT:
            return replies[None]
        reply = replies[user.rpartition("\n\nQuestion: ")[2]]
        if isinstance(reply, Exception):
            raise reply
        if reply == MALFORMED:
            raise GaeParseError("malformed chat response")
        return reply
    monkeypatch.setattr(remote, "chat_completion", chat)
    return prompts


def offline_backend(max_concurrency=1):
    return RemoteBackend(url="http://127.0.0.1:9/v1", model="m", retries=1,
                         max_concurrency=max_concurrency)


BASE = store([MemoryItem(0.0, (10.0, 20.0, 10, 0, 0, 0), frozenset({"bus"}), 2)])
TEXTS = ("Is there a bus?", "Where is the bus?", "Which robot sees the bus?",
         "Is there a cat?", "Where is the cat?")
REPLIES = ("YES", "NO", "30.0, 60.0, 0.0", "robot 2", "robots 1, 3", "unknown", MALFORMED)
QUESTIONS = st.one_of(
    st.builds(Question, st.just("presence"), st.just("bus"), st.sampled_from(TEXTS),
              st.sampled_from(["YES", "NO"])),
    st.builds(Question, st.just("location"), st.just("bus"), st.sampled_from(TEXTS),
              st.sampled_from([(10.0, 20.0, 0.0), (200.0, 0.0, 0.0)])),
    st.builds(Question, st.just("reporter"), st.just("bus"), st.sampled_from(TEXTS),
              st.integers(0, 3)))


@settings(max_examples=60)
@given(replies=st.fixed_dictionaries({text: st.sampled_from(REPLIES) for text in TEXTS}),
       exams=st.lists(st.lists(QUESTIONS, min_size=1, max_size=12), min_size=1, max_size=4),
       max_concurrency=st.sampled_from([1, 3]))
def test_reply_memo_grades_like_one_request_per_question(replies, exams, max_concurrency):
    with pytest.MonkeyPatch.context() as monkeypatch:
        prompts = text_keyed_chat(monkeypatch, replies)
        backend = offline_backend(max_concurrency)
        prepared = backend.prepare_memory(BASE)
        for k, questions in enumerate(exams):
            expected = sum(replies[q.text] != MALFORMED and grade_text_answer(q, replies[q.text])
                           for q in questions) / len(questions)
            assert backend.test(Exam(robot_id=k, qa_pairs=tuple(questions)), prepared) == expected
    asked = [user.rpartition("\n\nQuestion: ")[2] for _, user in prompts]
    assert sorted(asked) == sorted({q.text for questions in exams for q in questions})
    assert {system for system, _ in prompts} <= {remote._ANSWER_PROMPT}


def test_questions_sharing_a_text_are_graded_apart_from_one_reply(monkeypatch):
    prompts = text_keyed_chat(monkeypatch, {"Which robot sees the bus?": "robot 2"})
    exam = Exam(robot_id=0, qa_pairs=(
        Question("reporter", "bus", "Which robot sees the bus?", 2),
        Question("reporter", "bus", "Which robot sees the bus?", 3)))
    backend = offline_backend()
    assert backend.test(exam, backend.prepare_memory(BASE)) == 0.5
    assert len(prompts) == 1
    # the memo lives as long as one prepared memory: a new practice test asks again
    assert backend.test(exam, backend.prepare_memory(BASE)) == 0.5
    assert len(prompts) == 2


def test_answer_concurrency_sends_the_same_prompts(monkeypatch):
    replies = {"Is there a bus?": "YES", "Where is the bus?": "30.0, 60.0, 0.0",
               "Which robot sees the bus?": MALFORMED, "Is there a cat?": "NO"}
    cycle = (Question("presence", "bus", "Is there a bus?", "YES"),
             Question("location", "bus", "Where is the bus?", (10.0, 20.0, 0.0)),
             Question("reporter", "bus", "Which robot sees the bus?", 2),
             Question("presence", "cat", "Is there a cat?", "YES"))
    exam = Exam(robot_id=0, qa_pairs=(cycle * 3)[:10])   # 3 + 3 right of 10
    sent, scores = [], []
    for max_concurrency in (1, 3):
        prompts = text_keyed_chat(monkeypatch, replies)
        backend = offline_backend(max_concurrency)
        scores.append(backend.test(exam, backend.prepare_memory(BASE)))
        sent.append(sorted(prompts))
    assert scores == [0.6, 0.6]
    assert sent[0] == sent[1] and len(sent[0]) == len(replies)


def test_transport_failure_while_answering_fails_run_gae(monkeypatch):
    question = json.dumps([{"template": "presence", "tag": "t0",
                            "question": "Is there a t0?", "answer": "YES"}])
    text_keyed_chat(monkeypatch, {None: question,
                                  "Is there a t0?": GaeTransportError("HTTP 503")})
    datasets = [store([MemoryItem(0.0, (0, 0, 10, 0, 0, 0), frozenset({"t0"}), 0)])]
    with pytest.raises(GaeError, match="robot 0: HTTP 503") as error:
        run_gae(datasets, BASE, 1.0, 1, offline_backend(), 0)
    assert isinstance(error.value.__cause__, GaeTransportError)


# quotes, backslashes, control characters, non-ASCII, astral and lone surrogates
AWKWARD = st.text(st.one_of(st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f\x80é中 \ud83d'
                                            '\U0001F68C\U0010FFFF'), st.characters()),
                  max_size=30)


@settings(max_examples=100)
@given(model=AWKWARD, context=AWKWARD, texts=st.lists(AWKWARD, min_size=1, max_size=4))
def test_answer_bodies_are_byte_identical_to_json_dumps(model, context, texts):
    """The prepared head plus each question's tail is the request json.dumps
    encodes, byte for byte."""
    sent = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(remote, "captions", lambda frames: context)
        monkeypatch.setattr(remote, "chat_completion",
                            lambda url, body, **kwargs: sent.append(body) or "YES")
        backend = RemoteBackend(url="http://127.0.0.1:9/v1", model=model)
        exam = Exam(robot_id=0, qa_pairs=tuple(Question("presence", "t", text, "YES")
                                               for text in texts))
        assert backend.test(exam, backend.prepare_memory(BASE)) == 1.0
    assert sent == [encoded(model, [{"role": "system", "content": remote._ANSWER_PROMPT},
                                    {"role": "user", "content": f"{context}\n\nQuestion: {text}"}])
                    for text in dict.fromkeys(texts)]


def test_every_request_goes_through_chat_completion_on_the_calling_thread(server, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(threading.get_ident())
        return chat_completion(*args, **kwargs)
    monkeypatch.setattr(remote, "chat_completion", counted)

    def asked(*texts):
        return json.dumps([{"template": "presence", "tag": "bus", "question": text,
                            "answer": "YES"} for text in texts])
    base = store([MemoryItem(0.0, (0, 0, 10, 0, 0, 0), frozenset({"bus"}), 0)])
    datasets = [store([MemoryItem(float(i), (0, 0, 10, 0, 0, 0), frozenset({"bus"}), k)
                       for i in range(3)]) for k in range(3)]
    # robot 0 asks a and b, robot 1 b and c (only c is new), robot 2 a and c (none new)
    server.replies = [asked("a?", "b?"), "YES", "NO", asked("b?", "c?"), "YES",
                      asked("a?", "c?")]
    backend = RemoteBackend(url=server.url, model="m", retries=1)
    report = run_gae(datasets, base, 1.0, 2, backend, 0)
    assert list(report.scores) == [0.5, 0.5, 1.0]
    assert len(calls) == len(server.requests) == 6
    assert set(calls) == {threading.get_ident()}
