"""Deterministic chat-completions stand-in for the remote exam backend.

Run as ``python3 perfbench/fake_chat.py``: it binds 127.0.0.1 on a free
port, prints the port on one stdout line and serves one request at a time
until it is terminated. Standard library only, so it starts fast.

It plays both roles the remote backend asks of a model, from the frame
captions in the prompt and with the synthetic oracle's rules:

* question generation: occurrences (caption, tag) are drawn with
  replacement, templates cycle presence -> location -> reporter, and a
  tagless pilot yields "nothing notable" presence questions answered NO.
  The draw is seeded from a hash of the prompt, so replies are repeatable.
  A location question names the position of the occurrence it was drawn
  from, which lets the answerer apply the oracle's "any sighting within
  50 m" rule.
* answering: presence is YES iff a caption carries the tag; location
  replies with the sighting nearest to the named position; reporter lists
  every robot that saw the tag.

``GET /stats`` returns the requests served, their body bytes and the time
spent inside the handler (``busy_s``).
"""
from __future__ import annotations

import hashlib
import json
import math
import random
import re
import signal
import subprocess
import sys
import time
import urllib.request
from http.server import BaseHTTPRequestHandler, HTTPServer

TEMPLATES = ("presence", "location", "reporter")
NOTHING_TAG = "__nothing_observed__"

_CAPTION = re.compile(
    r"^\[t=[-\d.]+s robot=(\d+) pos=\((-?[\d.]+), (-?[\d.]+)\)\] saw: (.*)$")
_NUM_QUESTIONS = re.compile(r"(\d+) question/answer pairs")
_PRESENCE = re.compile(r"^Is there a (.+)\?$")
_LOCATION = re.compile(r"^Where is the (.+) near \((-?[\d.]+), (-?[\d.]+)\)\?$")
_REPORTER = re.compile(r"^Which robot sees the (.+)\?$")


def parse_captions(text: str) -> list[tuple[int, str, str, list[str]]]:
    """(robot, x, y, tags) per caption line; coordinates stay as printed."""
    frames = []
    for line in text.splitlines():
        match = _CAPTION.match(line.strip())
        if match is None:
            continue
        robot, x, y, seen = match.groups()
        tags = [] if seen == "nothing notable" else seen.split(", ")
        frames.append((int(robot), x, y, tags))
    return frames


def make_questions(captions: str, count: int) -> list[dict]:
    seed = int.from_bytes(hashlib.sha256(f"{count}\0{captions}".encode()).digest()[:8], "big")
    rng = random.Random(seed)
    occurrences = [(frame, tag) for frame in parse_captions(captions)
                   for tag in sorted(frame[3])]
    questions = []
    for i in range(count):
        if not occurrences:
            questions.append({"template": "presence", "tag": NOTHING_TAG,
                              "question": "Is there anything notable on record?",
                              "answer": "NO"})
            continue
        template = TEMPLATES[i % len(TEMPLATES)]
        (robot, x, y, _), tag = occurrences[rng.randrange(len(occurrences))]
        if template == "presence":
            text, answer = f"Is there a {tag}?", "YES"
        elif template == "location":
            text, answer = f"Where is the {tag} near ({x}, {y})?", f"{x}, {y}, 0.0"
        else:
            text, answer = f"Which robot sees the {tag}?", str(robot)
        questions.append({"template": template, "tag": tag, "question": text,
                          "answer": answer})
    return questions


class Memory:
    """Tag lookup over one caption block: tag -> [(robot, x, y)]."""

    def __init__(self, captions: str):
        self.sightings: dict[str, list[tuple[int, float, float]]] = {}
        for robot, x, y, tags in parse_captions(captions):
            for tag in tags:
                self.sightings.setdefault(tag, []).append((robot, float(x), float(y)))

    def answer(self, question: str) -> str:
        match = _PRESENCE.match(question)
        if match:
            return "YES" if match.group(1) in self.sightings else "NO"
        match = _LOCATION.match(question)
        if match:
            tag, gx, gy = match.group(1), float(match.group(2)), float(match.group(3))
            seen = self.sightings.get(tag)
            if not seen:
                return "unknown"
            _, x, y = min(seen, key=lambda s: math.hypot(s[1] - gx, s[2] - gy))
            return f"{x}, {y}, 0.0"
        match = _REPORTER.match(question)
        if match:
            robots = sorted({robot for robot, _, _ in self.sightings.get(match.group(1), ())})
            return ", ".join(map(str, robots)) if robots else "unknown"
        return "NO"


class FakeChat:
    """Reply logic plus counters; the captions of the last answer prompt are
    parsed once and reused, since every question of an exam repeats them."""

    def __init__(self):
        self.requests = 0
        self.request_bytes = 0
        self.busy_s = 0.0
        self._memory_text: str | None = None
        self._memory: Memory | None = None

    def reply(self, body: dict) -> str:
        messages = body["messages"]
        system = messages[0]["content"]
        user = messages[-1]["content"]
        wanted = _NUM_QUESTIONS.search(system)
        if wanted:
            return json.dumps(make_questions(user, int(wanted.group(1))))
        captions, _, question = user.rpartition("\n\nQuestion: ")
        if captions != self._memory_text:
            self._memory_text, self._memory = captions, Memory(captions)
        return self._memory.answer(question.strip())


def make_handler(chat: FakeChat):
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            started = time.perf_counter()
            length = int(self.headers["Content-Length"])
            raw = self.rfile.read(length)
            try:
                content = chat.reply(json.loads(raw))
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                self._send(400, {"error": str(exc)})
            else:
                self._send(200, {"object": "chat.completion", "choices": [
                    {"index": 0, "finish_reason": "stop",
                     "message": {"role": "assistant", "content": content}}]})
            chat.requests += 1
            chat.request_bytes += length
            chat.busy_s += time.perf_counter() - started

        def do_GET(self):
            if self.path != "/stats":
                self._send(404, {"error": "not found"})
                return
            self._send(200, {"requests": chat.requests,
                             "request_bytes": chat.request_bytes,
                             "busy_s": chat.busy_s})

        def _send(self, status: int, payload: dict) -> None:
            data = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    return Handler


class FakeChatProcess:
    """Runs this file as a child process; ``close`` stops it and waits."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdout=subprocess.PIPE,
                                      text=True)
        port = self._proc.stdout.readline().strip()
        if not port.isdigit():
            self.close()
            raise RuntimeError("fake chat server did not report a port")
        self.base = f"http://127.0.0.1:{port}"
        self.url = f"{self.base}/v1/chat/completions"

    def stats(self) -> dict:
        with urllib.request.urlopen(f"{self.base}/stats", timeout=10) as reply:
            return json.load(reply)

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.terminate()
        self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    server = HTTPServer(("127.0.0.1", 0), make_handler(FakeChat()))
    try:
        print(server.server_address[1], flush=True)
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
