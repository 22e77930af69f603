import json
import socket
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from conftest import cli_env
from mcpa import remote
from mcpa.config import build_scenario
from mcpa.gae import (Exam, GaeError, MemoryItem, Question, generate_exam, practice_test,
                      run_gae)
from mcpa.remote import (GaeParseError, GaeTransportError, RemoteBackend,
                         chat_completion, grade_text_answer)


class FakeChatServer:
    """Tiny chat-completions stand-in: canned replies, captured requests.

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
                length = int(self.headers["Content-Length"])
                body = json.loads(self.rfile.read(length))
                server.requests.append(
                    {"body": body, "auth": self.headers.get("Authorization")})
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


def test_chat_completion_request_shape_and_reply(server):
    server.replies = ["hello there"]
    out = chat_completion(server.url, "test-model",
                          [{"role": "system", "content": "sys"},
                           {"role": "user", "content": "usr"}],
                          token="sekrit", retries=1)
    assert out == "hello there"
    body = server.requests[0]["body"]
    assert body["model"] == "test-model"
    assert body["temperature"] == 0
    assert [m["role"] for m in body["messages"]] == ["system", "user"]
    assert server.requests[0]["auth"] == "Bearer sekrit"


def test_chat_completion_retries_on_server_error(server):
    server.statuses = [500, 200]
    server.replies = ["recovered"]
    out = chat_completion(server.url, "m", [{"role": "user", "content": "x"}],
                          retries=3, backoff_s=0.0)
    assert out == "recovered"
    assert len(server.requests) == 2


def test_chat_completion_gives_up_after_retries(server):
    server.statuses = [500, 500, 500]
    with pytest.raises(GaeTransportError):
        chat_completion(server.url, "m", [{"role": "user", "content": "x"}],
                        retries=3, backoff_s=0.0)
    assert len(server.requests) == 3


def test_chat_completion_writes_transcript(server, tmp_path):
    server.replies = ["logged"]
    path = tmp_path / "transcript.jsonl"
    backend = RemoteBackend(url=server.url, model="m", retries=1,
                            transcript_path=str(path))
    assert backend._chat("sys", "usr") == "logged"
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 1
    assert lines[0]["response"] == "logged"
    assert lines[0]["request"]["messages"][1]["content"] == "usr"


def test_chat_completion_retries_rate_limit(server):
    server.statuses = [429, 200]
    server.replies = ["after the wait"]
    out = chat_completion(server.url, "m", [{"role": "user", "content": "x"}],
                          retries=3, backoff_s=0.0)
    assert out == "after the wait"
    assert len(server.requests) == 2


@pytest.mark.parametrize("status", [400, 302])
def test_chat_completion_fails_at_once_on_client_error(server, status):
    # a redirect is not followed either: it would resend the bearer token
    server.statuses = [status, 200]
    with pytest.raises(GaeTransportError, match=f"HTTP {status}"):
        chat_completion(server.url, "m", [{"role": "user", "content": "x"}],
                        token="sekrit", retries=3, backoff_s=0.0)
    assert len(server.requests) == 1


def test_chat_completion_non_json_reply_is_parse_error(server, tmp_path):
    server.replies = [b"<html><body>gateway says hi</body></html>"]
    path = tmp_path / "transcript.jsonl"
    backend = RemoteBackend(url=server.url, model="m", retries=3,
                            transcript_path=str(path))
    with pytest.raises(GaeParseError):
        backend._chat("sys", "usr")
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
        chat_completion(f"http://127.0.0.1:{port}/v1/chat/completions", "m",
                        [{"role": "user", "content": "x"}], retries=3, backoff_s=0.5)
    assert sleeps == [0.5, 1.0]


def test_chat_completion_times_out_and_retries(server):
    server.delay_s = 0.5
    with pytest.raises(GaeTransportError, match="after 2 attempt"):
        chat_completion(server.url, "m", [{"role": "user", "content": "x"}],
                        timeout_s=0.2, retries=2, backoff_s=0.0)
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
        backend._chat("sys", "usr")
    assert not transcript.exists()


def test_remote_backend_requires_endpoint(monkeypatch):
    monkeypatch.delenv("MCPA_REMOTE_URL", raising=False)
    with pytest.raises(GaeError):
        RemoteBackend()


def test_remote_backend_from_settings_carries_every_field(tmp_path):
    transcript = tmp_path / "transcript.jsonl"
    settings = build_scenario({"remote": {
        "url": "http://127.0.0.1:9/v1", "model": "m2", "timeout_s": 5.0, "retries": 2,
        "max_concurrency": 3, "transcript_path": str(transcript)}}).remote
    backend = RemoteBackend.from_settings(settings)
    assert (backend.url, backend.model, backend.timeout_s, backend.retries,
            backend.max_concurrency) == ("http://127.0.0.1:9/v1", "m2", 5.0, 2, 3)
    backend.transcript.log({"probe": 1}, "ok")
    assert transcript.exists()


def test_cli_import_needs_no_http_package():
    probe = ("import sys, mcpa.cli; "
             "print(sorted(m for m in ('requests', 'urllib3') if m in sys.modules))")
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
    pilot = [MemoryItem(0.0, (1.0, 2.0, 10.0, 0, 0, 0), frozenset({"bus"}), 3)]
    exam = generate_exam(pilot, 3, backend, 0)
    assert [q.template for q in exam.qa_pairs] == ["presence", "location", "reporter"]
    assert exam.qa_pairs[0].answer == "YES"
    assert exam.qa_pairs[1].answer == (12.0, -3.5, 0.4)
    assert exam.qa_pairs[2].answer == 3
    # pilot captions went up in the request
    assert "bus" in server.requests[0]["body"]["messages"][1]["content"]


def test_remote_exam_generation_rejects_garbage(server):
    server.replies = ["no json here at all"]
    backend = RemoteBackend(url=server.url, model="m", retries=1)
    pilot = [MemoryItem(0.0, (0, 0, 10, 0, 0, 0), frozenset({"bus"}), 0)]
    with pytest.raises(GaeParseError):
        generate_exam(pilot, 2, backend, 0)


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
    memory = [MemoryItem(0.0, (10.0, 20.0, 10, 0, 0, 0), frozenset({"bus"}), 2)]
    assert practice_test(exam, memory, backend) == 0.75


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
    memory = [MemoryItem(0.0, (0, 0, 10, 0, 0, 0),
                         frozenset({f"t{i}" for i in range(6)}), 0)]
    assert practice_test(exam, memory, backend) == 1.0
    assert len(server.requests) == 6


def test_run_gae_captions_the_base_memory_once(server, monkeypatch):
    captioned = []

    def counted(item):
        captioned.append(item)
        return remote_caption(item)
    remote_caption = remote.caption
    monkeypatch.setattr(remote, "caption", counted)
    base = [MemoryItem(float(i), (0, 0, 10, 0, 0, 0), frozenset({"bus"}), 0) for i in range(4)]
    datasets = [[MemoryItem(float(i), (0, 0, 10, 0, 0, 0), frozenset({f"t{k}"}), k)
                 for i in range(5)] for k in range(3)]
    question = json.dumps([{"template": "presence", "tag": "bus",
                            "question": "Is there a bus?", "answer": "YES"}])
    server.replies = [question, "YES"] * 3
    backend = RemoteBackend(url=server.url, model="m", retries=1)
    report = run_gae(datasets, base, 0.4, 1, backend, 0)
    assert list(report.scores) == [1.0] * 3
    assert len(captioned) == len(base) + sum(report.pilot_sizes)
    # every answer request carried the whole base memory's captions
    context = "\n".join(remote_caption(it) for it in base)
    answers = [r["body"]["messages"][1]["content"] for r in server.requests[1::2]]
    assert answers == [f"{context}\n\nQuestion: Is there a bus?"] * 3
