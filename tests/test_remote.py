import json
import random
import re
import socket
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from functools import partial
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR, cli_env
from frames import MemoryItem, items, reference_caption, store
from mcpa import remote
from mcpa.config import build_scenario, load_config
from mcpa.gae import Exam, FrameStore, GaeError, MemoryIndex, Question, per_robot, run_gae
from mcpa.harness import prepare_seed
from mcpa.remote import (GaeParseError, GaeTransportError, RemoteBackend,
                         chat_completion, grade_text_answer)


class FakeChatServer:
    """Tiny chat-completions stand-in: canned replies, captured requests
    (decoded, and as the raw bytes received).

    ``statuses`` and ``replies`` are consumed one per request, in arrival
    order; a reply of type ``bytes`` is sent as the raw body instead of a
    chat payload, and ``delay_s`` stalls every request before it is
    answered. When ``respond`` is set, it is called on each request's
    system prompt and question text (for an answer request the text after
    ``Question:``, for an exam request the captions) and its result is the
    reply: this does not depend on the order requests arrive in, which is
    not fixed once they overlap. An ``int`` result is sent as that HTTP
    status instead.
    """

    def __init__(self):
        self.requests = []
        self.replies = []
        self.statuses = []
        self.delay_s = 0.0
        self.respond = None
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                raw = self.rfile.read(int(self.headers["Content-Length"]))
                body = json.loads(raw)
                server.requests.append({"body": body, "raw": raw,
                                        "auth": self.headers.get("Authorization")})
                time.sleep(server.delay_s)
                if server.respond is not None:
                    system, user = (m["content"] for m in body["messages"])
                    reply = server.respond(system, user.rpartition("\n\nQuestion: ")[2])
                    status = reply if isinstance(reply, int) else 200
                else:
                    status = server.statuses.pop(0) if server.statuses else 200
                if status != 200:
                    self.send_response(status)
                    if 300 <= status < 400:
                        self.send_header("Location", server.url)
                    self.end_headers()
                    self.wfile.write(b"backend exploded")
                    return
                if server.respond is None:
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


class RawServer:
    """One-shot socket server: each connection gets the next canned reply,
    sent as raw bytes once the whole request is in, and is then closed.
    ``requests`` holds each request as received (head and body)."""

    def __init__(self, *replies: bytes):
        self.replies = list(replies)
        self.requests = []
        self.sock = socket.create_server(("127.0.0.1", 0))
        self.sock.settimeout(10)
        self.url = f"http://127.0.0.1:{self.sock.getsockname()[1]}/v1/chat/completions"
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        for reply in self.replies:
            conn, _ = self.sock.accept()
            with conn:
                data = b""
                while b"\r\n\r\n" not in data:
                    data += conn.recv(65536)
                length = int(re.search(rb"Content-Length: (\d+)", data)[1])
                while len(data.partition(b"\r\n\r\n")[2]) < length:
                    data += conn.recv(65536)
                self.requests.append(data)
                conn.sendall(reply)

    def close(self):
        self.thread.join(timeout=10)
        self.sock.close()
        assert not self.thread.is_alive(), "a canned reply was never asked for"


@pytest.fixture
def raw_server():
    """Start a ``RawServer`` with the given replies; each is closed at teardown."""
    servers = []
    yield lambda *replies: servers.append(RawServer(*replies)) or servers[-1]
    for srv in servers:
        srv.close()


CHAT_OK = b'{"choices": [{"message": {"content": "fine"}}]}'


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


def test_both_request_forms_send_the_same_bytes(server):
    # a model and messages, or the backend's own encoded request: one JSON shape,
    # and the answer request's cut at remote._CLOSE relies on its tail
    system, user = "sys \u00e9", "Is there a bus? \"\U0001F68C\""
    messages = [{"role": "system", "content": system}, {"role": "user", "content": user}]
    assert chat_completion(server.url, "probe", messages, retries=1) == "OK"
    assert chat_completion(server.url, remote._request("probe", system, user), retries=1) == "OK"
    first, second = (request["raw"] for request in server.requests)
    assert first == second and first.endswith(remote._CLOSE)


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
    exam = json.dumps([as_entry(Question("presence", "bus", 'Is there a "bus"?', "YES"))])
    server.respond = by_prompt({2: exam}, {'Is there a "bus"?': "YES"})   # BASE is robot 2's
    path = tmp_path / "transcript.jsonl"
    backend = RemoteBackend(url=server.url, model="m", retries=1,
                            transcript_path=str(path))
    assert backend.run_exams([BASE], 1, None, backend.prepare_memory(BASE))[1] == (1.0,)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 2
    assert lines[0]["response"] == exam
    assert lines[0]["request"] == json.loads(
        remote._request("m", remote._QUESTION_PROMPT.format(n=1), remote.captions(BASE)))
    # an answer request is logged as the object it encodes
    context = f'{remote.run_captions(BASE)}\n\nQuestion: Is there a "bus"?'
    assert lines[1]["response"] == "YES"
    assert lines[1]["request"]["messages"][1]["content"] == context
    assert lines[1]["request"] == {
        "model": "m", "temperature": 0,
        "messages": [{"role": "system", "content": remote._ANSWER_PROMPT},
                     {"role": "user", "content": context}]}


def test_an_empty_transcript_path_keeps_no_transcript(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    backend = RemoteBackend(url="http://127.0.0.1:9/v1", transcript_path="")
    assert backend._ask(lambda body, log: log, [encoded()]) == [None]
    assert list(tmp_path.iterdir()) == []


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
    with pytest.raises(GaeError, match="^robot 0: malformed chat response") as error:
        backend.run_exams([BASE], 1, None, backend.prepare_memory(BASE))
    assert isinstance(error.value.__cause__, GaeParseError)
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
    monkeypatch.setattr(remote.socket, "create_connection", no_io)
    transcript = tmp_path / "transcript.jsonl"
    backend = RemoteBackend(url=url, model="m", transcript_path=str(transcript))
    with pytest.raises(GaeError, match="^robot 0: not an http") as error:
        backend.run_exams([BASE], 1, None, backend.prepare_memory(BASE))
    assert isinstance(error.value.__cause__, GaeTransportError)
    assert not transcript.exists()


@pytest.mark.parametrize("url, token", [
    ("http:///v1/chat/completions", None),           # no host: never a default one
    ("http://127.0.0.1:99999/v1", None),             # port out of range
    ("http://127.0.0.1:8080/v1/chat completions", None),
    ("http://127.0.0.1:8080/v1/chät", None),
    ("http://bücher.example/v1", None),
    ("http://127.0.0.1:8080/v1", "sekrit\r\nX-Injected: 1"),
    ("http://127.0.0.1:8080/v1", "sekrit\n"),
], ids=["no-host", "bad-port", "space-in-path", "non-ascii-path", "non-ascii-host",
        "header-in-token", "newline-in-token"])
def test_unusable_endpoints_and_tokens_are_refused_before_any_io(monkeypatch, url, token):
    def no_io(*args, **kwargs):
        raise AssertionError("a connection was opened")
    monkeypatch.setattr(remote.socket, "create_connection", no_io)
    with pytest.raises(GaeTransportError, match="not an http|outside ASCII"):
        chat_completion(url, encoded(), token=token, retries=1)


@pytest.mark.parametrize("head", [b"HTTP/1.0 200 OK\r\nContent-Type: application/json",
                                  b"HTTP/1.1 200 OK\r\nconnection: close", b"HTTP/1.0 200"])
def test_a_reply_without_content_length_ends_at_the_close(head, raw_server):
    raw = raw_server(head + b"\r\n\r\n" + CHAT_OK)
    assert chat_completion(raw.url, encoded(), retries=1) == "fine"


@pytest.mark.parametrize("status", [201, 203, 299])
def test_a_2xx_reply_other_than_200_is_accepted(status, raw_server):
    raw = raw_server(b"HTTP/1.0 %d Whatever\r\nContent-Length: %d\r\n\r\n%s"
                    % (status, len(CHAT_OK), CHAT_OK))
    assert chat_completion(raw.url, encoded(), retries=1) == "fine"


def test_a_reply_is_cut_to_its_content_length(raw_server):
    raw = raw_server(b"HTTP/1.0 200 OK\r\nCONTENT-LENGTH:%d\r\n\r\n%s trailing bytes"
                    % (len(CHAT_OK), CHAT_OK))
    assert chat_completion(raw.url, encoded(), retries=1) == "fine"


BAD_REPLIES = {
    "short": b"HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(CHAT_OK) + 1, CHAT_OK),
    "garbled-status": b"HTP/1.0 200 OK\r\n\r\n" + CHAT_OK,
    "no-status-code": b"HTTP/1.0 OK\r\n\r\n" + CHAT_OK,
    "no-blank-line": b"HTTP/1.0 200 OK\r\nContent-Length: 3",
    "empty": b"",
}
GOOD_REPLY = b"HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(CHAT_OK), CHAT_OK)


@pytest.mark.parametrize("bad", BAD_REPLIES.values(), ids=BAD_REPLIES.keys())
def test_a_short_or_garbled_reply_is_a_retried_transport_error(bad, raw_server):
    held = remote._Held()
    raw = raw_server(bad, GOOD_REPLY, bad)
    assert chat_completion(raw.url, encoded(), retries=2, backoff_s=0.0) == "fine"
    with pytest.raises(GaeTransportError, match="after 1 attempt") as error:
        chat_completion(raw.url, encoded(), retries=1, backoff_s=0.0, transcript=held)
    assert isinstance(error.value.__cause__, ConnectionError)
    assert len(raw.requests) == 3
    [line] = held
    record = json.loads(line)
    assert "error" in record and "response" not in record


@pytest.mark.parametrize("token", [None, "", "sekrit"])
def test_a_request_keeps_its_query_and_sends_authorization_only_with_a_token(token, raw_server):
    raw = raw_server(GOOD_REPLY)
    assert chat_completion(raw.url + "?api-version=2", encoded(), token=token, retries=1) == "fine"
    head, _, body = raw.requests[0].partition(b"\r\n\r\n")
    request_line, *headers = head.decode().split("\r\n")
    assert request_line == "POST /v1/chat/completions?api-version=2 HTTP/1.0"
    host = raw.url.split("/")[2]
    expected = [f"Host: {host}", "Content-Type: application/json",
                f"Content-Length: {len(encoded())}"]
    assert headers == expected + ([f"Authorization: Bearer {token}"] if token else [])
    assert body == encoded()


def test_an_https_url_goes_through_the_default_ssl_context(monkeypatch, raw_server):
    import ssl
    built, wrapped = [], []

    class Context:
        def __init__(self):
            built.append(self)

        def wrap_socket(self, sock, server_hostname):
            wrapped.append(server_hostname)
            return sock   # no handshake: the one-shot server speaks plain HTTP
    monkeypatch.setattr(ssl, "create_default_context", Context)
    monkeypatch.setattr(remote, "_tls", None)   # no context left from an earlier test
    raw = raw_server(GOOD_REPLY, GOOD_REPLY)
    for _ in range(2):
        assert chat_completion(raw.url.replace("http://", "https://"), encoded(),
                               retries=1) == "fine"
    assert wrapped == ["127.0.0.1"] * 2
    assert len(built) == 1   # one context per process, made on the first https request


def test_concurrent_https_requests_build_one_ssl_context(monkeypatch, raw_server):
    import ssl
    built = []

    class Context:
        def __init__(self):
            built.append(self)
            time.sleep(0.05)   # loading a CA store takes tens of ms: a wide window

        def wrap_socket(self, sock, server_hostname):
            return sock
    monkeypatch.setattr(ssl, "create_default_context", Context)
    monkeypatch.setattr(remote, "_tls", None)
    raw = raw_server(*[GOOD_REPLY] * 4)
    backend = RemoteBackend(url=raw.url.replace("http://", "https://"), retries=1)
    assert backend._ask(backend._chat, [encoded()] * 4) == ["fine"] * 4
    assert len(built) == 1


@pytest.mark.parametrize("url, address", [
    ("http://chat.invalid/v1", ("chat.invalid", 80)),
    ("https://chat.invalid/v1", ("chat.invalid", 443)),
    ("https://[::1]:8443/v1", ("::1", 8443)),
])
def test_the_port_defaults_to_the_scheme(monkeypatch, url, address):
    opened = []

    def refused(where, timeout):
        opened.append((where, timeout))
        raise ConnectionRefusedError("no route")
    monkeypatch.setattr(remote.socket, "create_connection", refused)
    with pytest.raises(GaeTransportError, match="after 1 attempt"):
        chat_completion(url, encoded(), timeout_s=7.0, retries=1)
    assert opened == [(address, 7.0)]


def test_importing_the_remote_backend_loads_no_http_client_or_ssl():
    probe = ("import sys, mcpa.remote; print(sorted(m for m in ('http.client', "
             "'urllib.request', 'urllib.error', 'ssl') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=cli_env(), check=True).stdout
    assert out.strip() == "[]"


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
    [exam], _ = backend.run_exams([pilot], 3, None, backend.prepare_memory(pilot))
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
    with pytest.raises(GaeError, match="^robot 0: question reply contains no JSON") as error:
        backend.run_exams([pilot], 2, None, backend.prepare_memory(pilot))
    assert isinstance(error.value.__cause__, GaeParseError)
    assert len(server.requests) == 1


def entry(template="presence", answer="YES"):
    return {"template": template, "tag": "bus", "question": "?", "answer": answer}


@pytest.mark.parametrize("reply, message", [
    ("[not json]", "question reply is not valid JSON"),
    (json.dumps([entry("colour", "red")]), "unknown template 'colour'"),
    (json.dumps([entry("presence", "maybe")]), "presence answer must say YES or NO"),
    (json.dumps([entry("presence", "yes or no")]), "presence answer must say YES or NO"),
    (json.dumps([entry("location", "near 12.0")]), "location answer needs coordinates"),
    (json.dumps([entry("reporter", "some robot")]), "bad question entry .*index out of range"),
    (json.dumps([{"template": "presence", "tag": "bus", "question": "?"}]),
     "bad question entry .*'answer'"),
    ("[]", "question reply parsed to an empty exam"),
], ids=["not-json", "template", "presence", "presence-both", "location", "reporter",
        "no-answer", "empty"])
def test_question_replies_that_make_no_exam_are_parse_errors(server, reply, message):
    server.replies = [reply]
    backend = RemoteBackend(url=server.url, model="m", retries=3)
    with pytest.raises(GaeError, match=message) as error:
        backend.run_exams([BASE], 2, None, backend.prepare_memory(BASE))
    assert str(error.value).startswith("robot 0: ")
    assert isinstance(error.value.__cause__, GaeParseError)
    assert len(server.requests) == 1


def test_a_reply_whose_content_is_not_a_string_is_a_logged_parse_error(server, tmp_path):
    server.replies = [json.dumps({"choices": [{"message": {"content": 5}}]}).encode()]
    path = tmp_path / "transcript.jsonl"
    backend = RemoteBackend(url=server.url, model="m", retries=3, transcript_path=str(path))
    with pytest.raises(GaeError, match="^robot 0: malformed chat response: "
                                       "choice content is not a string") as error:
        backend.run_exams([BASE], 2, None, backend.prepare_memory(BASE))
    assert isinstance(error.value.__cause__, GaeParseError)
    assert len(server.requests) == 1
    [line] = [json.loads(line) for line in path.read_text().splitlines()]
    assert line["error"] == "choice content is not a string" and "response" not in line


def robot_of(captions: str) -> int:
    return int(re.search(r"robot=(\d+)", captions)[1])


def by_prompt(exams, answers=None):
    """A ``FakeChatServer.respond`` keyed by prompt: robot k's exam request
    (its captions say ``robot=k``) gets ``exams[k]``, an answer request
    ``answers[text]``."""
    def respond(system, text):
        return answers[text] if system == remote._ANSWER_PROMPT else exams[robot_of(text)]
    return respond


def test_a_question_parse_error_fails_run_gae_naming_the_robot(server):
    server.respond = by_prompt([json.dumps([entry()]), "[]"], {"?": "YES"})
    datasets = [store([MemoryItem(0.0, (0, 0, 10, 0, 0, 0), frozenset({"bus"}), k)])
                for k in range(2)]
    backend = RemoteBackend(url=server.url, model="m", retries=1)
    with pytest.raises(GaeError, match="^robot 1: question reply parsed to an empty") as error:
        run_gae(datasets, BASE, 1.0, 1, backend, 0)
    assert isinstance(error.value.__cause__, GaeParseError)


def test_remote_practice_test_grades_answers(server):
    exam = Exam(robot_id=0, qa_pairs=(
        Question("presence", "bus", "Is there a bus?", "YES"),
        Question("location", "bus", "Where is the bus?", (10.0, 20.0, 0.0)),
        Question("reporter", "bus", "Which robot sees the bus?", 2),
        Question("presence", "cat", "Is there a cat?", "NO"),
    ))
    server.respond = by_prompt({2: json.dumps([as_entry(q) for q in exam.qa_pairs])}, {
        "Is there a bus?": "YES, clearly.",
        "Where is the bus?": "[30.0, 60.0, 0.0]",   # 44.7 m away: inside the 50 m radius
        "Which robot sees the bus?": "I think robot 2 saw it",
        "Is there a cat?": "mumble mumble",         # malformed: graded incorrect
    })
    backend = RemoteBackend(url=server.url, model="m", retries=1)
    memory = store([MemoryItem(0.0, (10.0, 20.0, 10, 0, 0, 0), frozenset({"bus"}), 2)])
    [asked], scores = backend.run_exams([memory], 4, None, backend.prepare_memory(memory))
    assert asked.qa_pairs == exam.qa_pairs and scores == (0.75,)


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


PRESENCE_GRADES = [
    # (answer, graded right when the truth is YES, graded right when it is NO)
    ("YES", True, False),
    ("  yes ", True, False),
    ("Yes, clearly.", True, False),
    ("NO", False, True),
    ("no.", False, True),
    ("I see no bus", False, True),
    ("yes or no", False, False),
    ("No, yes.", False, False),
    ("not sure", False, False),
    ("nothing", False, False),
    ("noted", False, False),
    ("yesterday", False, False),
    ("eyes", False, False),
    ("", False, False),
]


@pytest.mark.parametrize("answer, if_yes, if_no", PRESENCE_GRADES)
def test_a_presence_answer_must_say_the_truth_and_not_its_opposite(answer, if_yes, if_no):
    assert grade_text_answer(Question("presence", "bus", "?", "YES"), answer) is if_yes
    assert grade_text_answer(Question("presence", "bus", "?", "NO"), answer) is if_no


NUMBER_GRADES = [
    # (template, truth, answer, graded right); the fake server's reply shapes first
    ("location", (187.9, 55.1, 0.0), "187.9, 55.1, 0.0", True),
    ("location", (-12.5, 3.0, 0.0), "-12.5, 3.0, 0.0", True),
    ("location", (0.0, 0.0, 0.0), "unknown", False),
    ("reporter", 1, "1, 3", True),
    ("reporter", 3, "1, 3", True),
    ("reporter", 2, "1, 3", False),
    ("reporter", 0, "unknown", False),
    ("location", (187.9, 55.1, 0.0), "at landmark-03, (187.9, 55.1)", True),
    ("location", (187.9, 55.1, 0.0), "landmark-03 at 187.9, 55.1", True),
    ("location", (0.0, -3.0, 0.0), "landmark-03", False),
    ("location", (10.0, 40.0, 0.0), "[10.0,-20.0]", False),   # 60 m from (10, -20)
    ("location", (10.0, -20.0, 0.0), "[10.0,-20.0]", True),
    ("reporter", 2, "landmark-03 by robot 2", True),
    ("reporter", -3, "landmark-03 by robot 2", False),
    ("reporter", 3, "landmark-03 by robot 2", False),
    ("reporter", 2, "robot 2.", True),
    ("reporter", 4, "drone 4", True),
    ("reporter", 4, "drone4", False),
    ("reporter", 4, "robot_4", False),
    ("reporter", 4, "4th robot", False),
    ("reporter", 5, "robot 5.5", True),
    ("reporter", 5, "robot 12.5", False),
]


@pytest.mark.parametrize("template, truth, answer, right", NUMBER_GRADES)
def test_numbers_are_read_only_where_they_stand_alone(template, truth, answer, right):
    assert grade_text_answer(Question(template, "t", "?", truth), answer) is right


@pytest.mark.parametrize("answer, truth", [("yes", "YES"), ("Yes.", "YES"), ("NO", "NO"),
                                           ("No, there is none", "NO")])
def test_a_presence_answer_in_an_exam_is_read_as_yes_or_no(answer, truth):
    [question] = RemoteBackend._parse_questions(json.dumps([entry("presence", answer)]), 1)
    assert question.answer == truth
    assert grade_text_answer(question, truth.lower())


def test_a_hyphenated_name_in_an_exam_answer_is_no_number():
    reply = json.dumps([
        {"template": "reporter", "tag": "landmark-03", "question": "Which robot sees it?",
         "answer": "landmark-03 by robot 2"},
        {"template": "location", "tag": "landmark-03", "question": "Where is it?",
         "answer": "at landmark-03, (187.9, 55.1)"}])
    reporter, location = RemoteBackend._parse_questions(reply, 2)
    assert reporter.answer == 2
    assert location.answer == (187.9, 55.1)


PROBE_ASCII_LOCALE = r"""
import sys
from mcpa import remote
backend = remote.RemoteBackend(sys.argv[1], retries=1, transcript_path=sys.argv[2])
print(backend._ask(backend._chat, [b'{"q": "\u00e9"}']) == ["\u4e2d"])
"""


def test_the_transcript_is_utf8_under_an_ascii_locale(server, tmp_path):
    server.replies = ["中"]
    path = tmp_path / "transcript.jsonl"
    env = {**cli_env(), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    done = subprocess.run([sys.executable, "-c", PROBE_ASCII_LOCALE, server.url, str(path)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "True"
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record["request"] == {"q": "é"} and record["response"] == "中"


RUN_TAGS = ("bus", "cone", "landmark-03")
RUN_COORDS = (0.0, -0.0, 12.5, 12.54)     # -0.0 and 12.54 print like 0.0 and 12.5


@st.composite
def run_stores(draw):
    """Stores of runs: segments of frames sharing a robot, a position and a tag
    set, often equal to the segment before. Each pair has its own tag table
    entry (so names repeat), some pairs repeat and pairs come in any order."""
    segments = draw(st.lists(st.tuples(
        st.integers(0, 1), st.sampled_from(RUN_COORDS), st.sampled_from(RUN_COORDS),
        st.frozensets(st.sampled_from(RUN_TAGS), max_size=2), st.integers(1, 4)), max_size=6))
    memory = [MemoryItem(0.0, (x, y, 10.0, 0.0, 0.0, 0.0), tags, robot)
              for robot, x, y, tags, length in segments for _ in range(length)]
    times = draw(st.lists(st.floats(0.0, 1e4), min_size=len(memory), max_size=len(memory)))
    pairs = [(i, tag) for i, it in enumerate(memory) for tag in it.tags]
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))
    pairs = draw(st.permutations(pairs))
    return FrameStore([it.robot_id for it in memory], times, [it.pose for it in memory],
                      [i for i, _ in pairs], range(len(pairs)),
                      [tag for _, tag in pairs] + ["unseen"])


def one_apart(**change):
    """Two frames at t = 0 and 1 that differ only in ``change`` (robot, x, y
    or tags), each after a frame repeating it."""
    first = dict(robot_id=0, x=12.5, y=0.0, tags=frozenset({"bus"}))
    second = {**first, **change}
    return store([MemoryItem(float(t), (f["x"], f["y"], 10.0, 0.0, 0.0, 0.0), f["tags"],
                             f["robot_id"])
                  for t, f in enumerate([first, first, second, second])])


def reference_runs(memory: list[MemoryItem]) -> list[list[MemoryItem]]:
    """The frames in runs: consecutive frames with one robot, position
    (``repr`` tells -0.0 from 0.0) and tag set."""
    runs = []
    for it in memory:
        key = (it.robot_id, repr(it.pose[0]), repr(it.pose[1]), it.tags)
        if runs and runs[-1][0] == key:
            runs[-1][1].append(it)
        else:
            runs.append((key, [it]))
    return [run for _, run in runs]


@settings(max_examples=150)
@given(run_stores())
@example(one_apart(robot_id=1))
@example(one_apart(x=12.54))
@example(one_apart(x=-0.0, y=0.0))
@example(one_apart(y=-0.0))
@example(one_apart(tags=frozenset({"bus", "cone"})))
@example(one_apart(tags=frozenset()))
@example(one_apart())
@example(store([]))
@example(store([MemoryItem(3.0, (1.0, 2.0, 10.0, 0, 0, 0), frozenset({"bus"}), 1)]))
def test_run_captions_expand_to_the_frame_captions(frames):
    runs = reference_runs(items(frames))
    lines = remote.run_captions(frames).splitlines()
    assert len(lines) == len(runs)
    # each run line, its span swapped for each frame's timestamp, gives back
    # that frame's caption, line for line
    expanded = [re.sub(r"^\[t=[^s]*s", f"[t={it.timestamp_s:.2f}s", line)
                for line, run in zip(lines, runs) for it in run]
    assert expanded == remote.captions(frames).splitlines()
    for line, run in zip(lines, runs):
        head = reference_caption(run[0])
        if len(run) > 1:
            head = head.replace(f"[t={run[0].timestamp_s:.2f}s",
                                f"[t={run[0].timestamp_s:.2f}-{run[-1].timestamp_s:.2f}s", 1)
        assert line == head      # a one-frame run reads as its frame's caption


def test_exam_requests_caption_every_pilot_frame(server):
    """Runs shorten only the answer context: the exam request still carries
    one caption per pilot frame, byte for byte as before."""
    pilot_items = [MemoryItem(float(t), (1.0, 2.0, 10.0, 0, 0, 0), frozenset({"bus"}), 3)
                   for t in range(3)]
    server.replies = [json.dumps([entry()])]
    backend = RemoteBackend(url=server.url, model="m", retries=1)
    backend.run_exams([store(pilot_items)], 1, None, backend.prepare_memory(BASE))
    context = "\n".join(reference_caption(it) for it in pilot_items)
    assert server.requests[0]["raw"] == encoded("m", [
        {"role": "system", "content": remote._QUESTION_PROMPT.format(n=1)},
        {"role": "user", "content": context}])


def test_run_gae_captions_the_base_memory_once(server, monkeypatch):
    captioned = []

    def counted(render):
        def caption(frames):
            captioned.append((render.__name__, frames))
            return render(frames)
        return caption
    monkeypatch.setattr(remote, "run_captions", counted(remote.run_captions))
    monkeypatch.setattr(remote, "captions", counted(remote.captions))
    base_items = [MemoryItem(float(i), (0, 0, 10, 0, 0, 0), frozenset({"bus"}), 0)
                  for i in range(4)]
    base = store(base_items)
    datasets = [store([MemoryItem(float(i), (0, 0, 10, 0, 0, 0), frozenset({f"t{k}"}), k)
                       for i in range(5)]) for k in range(3)]
    question = json.dumps([{"template": "presence", "tag": "bus",
                            "question": "Is there a bus?", "answer": "YES"}])
    # the robots' exams repeat one text, which is asked once against the base memory
    server.respond = by_prompt([question] * 3, {"Is there a bus?": "YES"})
    backend = RemoteBackend(url=server.url, model="m", retries=1)
    report = run_gae(datasets, base, 0.4, 1, backend, 0)
    assert list(report.scores) == [1.0] * 3
    # one captioning of the base memory, by runs, then one per robot's pilot, by frames
    assert len(captioned) == 1 + len(datasets)
    assert captioned[0][0] == "run_captions" and captioned[0][1] is base
    assert [name for name, _ in captioned[1:]] == ["captions"] * len(datasets)
    systems = [r["body"]["messages"][0]["content"] for r in server.requests]
    asking, answering = remote._QUESTION_PROMPT.format(n=1), remote._ANSWER_PROMPT
    assert systems == [asking, asking, asking, answering]   # every exam, then the answers
    # the one answer request carried the whole base memory: its four frames
    # differ only in their timestamps, so they are one run
    context = reference_caption(base_items[0]).replace("[t=0.00s", "[t=0.00-3.00s")
    assert server.requests[3]["body"]["messages"][1]["content"] == \
        f"{context}\n\nQuestion: Is there a bus?"


MALFORMED = "<malformed>"


def text_keyed_chat(monkeypatch, replies: dict, exams):
    """Replace ``remote.chat_completion`` by a pure responder: an answer
    prompt gets ``replies[text]`` (a parse error for ``MALFORMED``; an
    exception value is raised), robot k's exam prompt (its captions say
    ``robot=k``) the questions ``exams[k]``, written as a service would.
    Returns the list of (system, user) prompts it received."""
    prompts = []

    def chat(url, body, **kwargs):
        system, user = (m["content"] for m in json.loads(body)["messages"])
        prompts.append((system, user))
        if system != remote._ANSWER_PROMPT:
            return json.dumps([as_entry(q) for q in exams[robot_of(user)]])
        reply = replies[user.rpartition("\n\nQuestion: ")[2]]
        if isinstance(reply, Exception):
            raise reply
        if reply == MALFORMED:
            raise GaeParseError("malformed chat response")
        return reply
    monkeypatch.setattr(remote, "chat_completion", chat)
    return prompts


def offline_backend():
    return RemoteBackend(url="http://127.0.0.1:9/v1", model="m", retries=1)


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
       exams=st.lists(st.lists(QUESTIONS, min_size=1, max_size=12), min_size=1, max_size=4))
def test_reply_memo_grades_like_one_request_per_question(replies, exams):
    with pytest.MonkeyPatch.context() as monkeypatch:
        prompts = text_keyed_chat(monkeypatch, replies, exams)
        backend = offline_backend()
        asked, scores = backend.run_exams(pilots_of(len(exams)), 12, None,
                                          backend.prepare_memory(BASE))
    assert [exam.qa_pairs for exam in asked] == [tuple(questions) for questions in exams]
    assert scores == tuple(
        sum(replies[q.text] != MALFORMED and grade_text_answer(q, replies[q.text])
            for q in questions) / len(questions) for questions in exams)
    # one exam request per robot, and one answer request per distinct text
    answered = [user.rpartition("\n\nQuestion: ")[2] for system, user in prompts
                if system == remote._ANSWER_PROMPT]
    assert sorted(answered) == sorted({q.text for questions in exams for q in questions})
    assert len(prompts) == len(exams) + len(answered)


def test_questions_sharing_a_text_are_graded_apart_from_one_reply(monkeypatch):
    questions = [Question("reporter", "bus", "Which robot sees the bus?", 2),
                 Question("reporter", "bus", "Which robot sees the bus?", 3)]
    prompts = text_keyed_chat(monkeypatch, {"Which robot sees the bus?": "robot 2"}, [questions])
    backend = offline_backend()
    prepared = backend.prepare_memory(BASE)

    def answered():
        return sum(system == remote._ANSWER_PROMPT for system, _ in prompts)
    assert backend.run_exams(pilots_of(1), 2, None, prepared)[1] == (0.5,)
    assert answered() == 1
    # the memo lives for one run_exams call: a second call on the same
    # prepared memory asks again
    assert backend.run_exams(pilots_of(1), 2, None, prepared)[1] == (0.5,)
    assert answered() == 2


def test_transport_failure_while_answering_fails_run_gae(monkeypatch):
    text_keyed_chat(monkeypatch, {"Is there a t0?": GaeTransportError("HTTP 503")},
                    [[Question("presence", "t0", "Is there a t0?", "YES")]])
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
    exam = json.dumps([as_entry(Question("presence", "t", text, "YES")) for text in texts])

    def chat(url, body, **kwargs):
        sent.append(body)
        return exam if len(sent) == 1 else "YES"   # the one exam request goes first
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(remote, "run_captions", lambda frames: context)
        monkeypatch.setattr(remote, "chat_completion", chat)
        backend = RemoteBackend(url="http://127.0.0.1:9/v1", model=model)
        assert backend.run_exams([BASE], len(texts), None,
                                 backend.prepare_memory(BASE))[1] == (1.0,)
    assert sent[1:] == [encoded(model, [{"role": "system", "content": remote._ANSWER_PROMPT},
                                    {"role": "user", "content": f"{context}\n\nQuestion: {text}"}])
                    for text in dict.fromkeys(texts)]


def sequential_run_exams(backend, pilots, num_questions, seeds, memory, transcript):
    """The remote backend's exam loop from before its requests overlapped,
    kept as the reference: robot by robot, its exam and then each of its
    texts not yet asked in this call, in first-appearance order, one request
    at a time after the prepared ``memory`` bytes. Each request's transcript
    line goes to ``transcript``."""
    prompt = remote._QUESTION_PROMPT.format(n=num_questions)
    replies = {}

    def chat(body):
        return chat_completion(backend.url, body, retries=backend.retries, transcript=transcript)

    def sit(k):
        reply = chat(remote._request(backend.model, prompt, remote.captions(pilots[k])))
        exam = Exam(k, RemoteBackend._parse_questions(reply, num_questions))
        for text in dict.fromkeys(q.text for q in exam.qa_pairs if q.text not in replies):
            tail = json.dumps(f"\n\nQuestion: {text}")[1:-1].encode()
            try:
                replies[text] = chat(memory + tail + remote._CLOSE)
            except GaeParseError:
                replies[text] = None
        return exam, sum(replies[q.text] is not None and grade_text_answer(q, replies[q.text])
                         for q in exam.qa_pairs) / len(exam)
    return tuple(zip(*per_robot(sit, len(pilots))))


def by_step(lines) -> list[dict]:
    """Transcript records without their timestamps: the exam requests', then
    the answer requests', each step in request order."""
    records = [{key: value for key, value in json.loads(line).items() if key != "ts"}
               for line in lines]
    return sorted(records, key=lambda record:
                  record["request"]["messages"][0]["content"] == remote._ANSWER_PROMPT)


def as_entry(question: Question) -> dict:
    """The exam entry a service writes for ``question``."""
    answer = question.answer
    return {"template": question.template, "tag": question.tag, "question": question.text,
            "answer": ", ".join(map(str, answer)) if isinstance(answer, tuple) else str(answer)}


def pilots_of(num_robots: int) -> list[FrameStore]:
    return [store([MemoryItem(0.0, (0, 0, 10, 0, 0, 0), frozenset({"bus"}), k)])
            for k in range(num_robots)]


@pytest.fixture(scope="module")
def shared_server():
    srv = FakeChatServer()
    yield srv
    srv.close()


DELAYS = st.sampled_from([0.0, 0.0005, 0.002])


@settings(max_examples=20)
@given(exams=st.lists(st.lists(QUESTIONS, min_size=1, max_size=6), min_size=1, max_size=5),
       replies=st.fixed_dictionaries({text: st.sampled_from(REPLIES) for text in TEXTS}),
       answer_delays=st.fixed_dictionaries({text: DELAYS for text in TEXTS}),
       exam_delays=st.lists(DELAYS, min_size=5, max_size=5))
def test_overlapped_requests_match_the_sequential_loop(shared_server, exams, replies,
                                                       answer_delays, exam_delays):
    def respond(system, text):
        if system != remote._ANSWER_PROMPT:
            time.sleep(exam_delays[robot_of(text)])
            return json.dumps([as_entry(q) for q in exams[robot_of(text)]])
        time.sleep(answer_delays[text])
        return b"<malformed>" if replies[text] == MALFORMED else replies[text]
    shared_server.respond = respond
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "transcript.jsonl"
        backend = RemoteBackend(url=shared_server.url, model="m", retries=1,
                                transcript_path=str(path))
        held = remote._Held()
        reference = partial(sequential_run_exams, backend, transcript=held)
        for run, lines in ((backend.run_exams, lambda: path.read_text().splitlines()),
                           (reference, lambda: held)):
            shared_server.requests.clear()
            outcome = run(pilots_of(len(exams)), 6, None, backend.prepare_memory(BASE))
            runs.append((*outcome, by_step(lines()),
                         Counter(request["raw"] for request in shared_server.requests)))
    (exams_now, scores_now, log_now, sent_now), (exams_then, scores_then, log_then, sent_then) \
        = runs
    assert [exam.qa_pairs for exam in exams_now] == [exam.qa_pairs for exam in exams_then]
    assert scores_now == scores_then
    assert log_now == log_then      # the same replies, exams by robot and answers by text
    assert sent_now == sent_then


def exam_of(*texts) -> str:
    return json.dumps([{"template": "presence", "tag": "bus", "question": text, "answer": "YES"}
                       for text in texts])


def test_at_most_four_requests_are_open_at_once(server, monkeypatch):
    lock, open_now, peak = threading.Lock(), [0], [0]
    calls = []

    def counted(*args, **kwargs):
        calls.append(threading.get_ident())
        return chat_completion(*args, **kwargs)
    monkeypatch.setattr(remote, "chat_completion", counted)

    def respond(system, text):
        with lock:
            open_now[0] += 1
            peak[0] = max(peak[0], open_now[0])
        time.sleep(0.02)
        with lock:
            open_now[0] -= 1
        if system == remote._ANSWER_PROMPT:
            return "YES"
        return exam_of(*(f"{robot_of(text)}.{i}?" for i in range(4)))
    server.respond = respond
    backend = RemoteBackend(url=server.url, model="m", retries=1)
    report = run_gae(pilots_of(4), BASE, 1.0, 4, backend, 0)
    assert list(report.scores) == [1.0] * 4
    # every request went through the module's chat_completion, from worker
    # threads, and some overlapped
    assert len(calls) == len(server.requests) == 4 + 16
    assert threading.get_ident() not in calls
    assert 1 < peak[0] <= 4


def test_the_first_failure_in_request_order_is_raised(server, tmp_path):
    # robot 1's text b? fails after robot 2's c? has failed, and is still the
    # one named (robot 2's exam holds b? too, but robot 1's holds it first);
    # the texts queued after c? are not asked once it has failed
    texts = [["a?"], ["b?"], ["c?", "b?"] + [f"later {i}?" for i in range(12)]]

    def respond(system, text):
        if system != remote._ANSWER_PROMPT:
            return exam_of(*texts[robot_of(text)])
        if text != "a?" and text != "c?":
            time.sleep(0.1)
        return 400 if text in ("b?", "c?") else "YES"
    server.respond = respond
    path = tmp_path / "transcript.jsonl"
    backend = RemoteBackend(url=server.url, model="m", retries=1, transcript_path=str(path))
    with pytest.raises(GaeError, match=r"^robot 1: chat request failed after 1 attempt\(s\): "
                                       r"HTTP 400") as error:
        run_gae(pilots_of(3), BASE, 1.0, 13, backend, 0)
    assert isinstance(error.value.__cause__, GaeTransportError)
    # every request that started was awaited and logged, and those that
    # started are the first ones in request order
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == len(server.requests) < 3 + 14
    asked = [line["request"]["messages"][1]["content"].rpartition("Question: ")[2]
             for line in lines[3:]]
    assert asked == list(dict.fromkeys(text for robot in texts for text in robot))[:len(asked)]
    assert [line.get("error", "")[:8] for line in lines[4:6]] == ["HTTP 400"] * 2


def test_the_transcript_keeps_request_order_whatever_the_delays(server, tmp_path):
    texts = [["a?", "b?"], ["b?", "c?", "d?"], ["a?", "e?"]]
    rng = random.Random(0)

    def respond(system, text):
        time.sleep(rng.random() * 0.003)
        if system != remote._ANSWER_PROMPT:
            return exam_of(*texts[robot_of(text)])
        return "YES"
    server.respond = respond
    sequences = []
    for run in range(20):
        path = tmp_path / f"transcript{run}.jsonl"
        backend = RemoteBackend(url=server.url, model="m", retries=1, transcript_path=str(path))
        run_gae(pilots_of(3), BASE, 1.0, 3, backend, 0)
        sequences.append([{key: value for key, value in json.loads(line).items() if key != "ts"}
                          for line in path.read_text().splitlines()])
    assert all(sequence == sequences[0] for sequence in sequences)
    # exams by robot, then answers by first appearance
    users = [line["request"]["messages"][1]["content"] for line in sequences[0]]
    assert [robot_of(user) for user in users[:3]] == [0, 1, 2]
    assert [user.rpartition("Question: ")[2] for user in users[3:]] == ["a?", "b?", "c?", "d?", "e?"]


def test_each_body_is_taken_once_under_fast_thread_switching():
    # four workers on fewer cores share one order of bodies; a body taken
    # twice, or an outcome lost, shows in the counts. Body 1000 fails: the
    # bodies taken are then a prefix of the order, and the rest are not asked
    failing, taken = 1000, []

    def task(body, log):
        taken.append(int(body))
        if int(body) == failing:
            raise GaeTransportError("refused")
        return body.decode()
    bodies = [str(i).encode() for i in range(3000)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        started = time.perf_counter()
        outcomes = offline_backend()._ask(task, bodies)
        assert time.perf_counter() - started < 5.0
    finally:
        sys.setswitchinterval(interval)
    assert sorted(taken) == list(range(len(taken))) and len(taken) > failing
    assert outcomes[:failing] == [str(i) for i in range(failing)]
    assert isinstance(outcomes[failing], GaeTransportError)
    assert outcomes[failing + 1:len(taken)] == [str(i) for i in range(failing + 1, len(taken))]
    assert all(str(outcome).startswith("not asked") for outcome in outcomes[len(taken):])


def test_a_remote_seed_builds_one_memory_index(server, monkeypatch):
    # the remote backend prepares the base memory as caption bytes, so the
    # seed's one index is the harness's over the hosts, which also gives the
    # base answers; a synthetic seed builds the backend's base index too
    built = []
    original = MemoryIndex.__init__

    def counted(self, frames, tags=None):
        built.append(frames)
        original(self, frames, tags)
    monkeypatch.setattr(MemoryIndex, "__init__", counted)
    server.respond = lambda system, text: (
        "YES" if system == remote._ANSWER_PROMPT else exam_of(f"{robot_of(text)}?"))
    scenario = build_scenario(load_config(CONFIG_DIR / "staged_k5.json"),
                              {"gae": {"questions_per_robot": 1}})
    remote_stage = prepare_seed(scenario, 0, RemoteBackend(url=server.url, model="m", retries=1))
    assert len(built) == 1 and isinstance(built[0], list)
    synthetic_stage = prepare_seed(scenario, 0)
    assert len(built) == 3 and built[1] is synthetic_stage.world.base_memory
    assert remote_stage.base_answers.tolist() == synthetic_stage.base_answers.tolist()
