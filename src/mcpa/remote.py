"""Chat-completion backend for exam generation and answering.

Speaks the usual JSON-over-HTTP chat shape: the request carries
``{"model", "messages", "temperature": 0}`` and the reply's first choice
``content`` string is used. The endpoint URL and bearer token come from the
``MCPA_REMOTE_URL`` / ``MCPA_REMOTE_TOKEN`` environment variables unless set
explicitly. Every prompt and raw response is appended to a JSON-lines
transcript file when one is configured.
"""
from __future__ import annotations

import http.client
import json
import math
import os
import re
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from dataclasses import dataclass, field

import numpy as np

from .gae import LOCATION_RADIUS_M, TEMPLATES, Exam, FrameStore, GaeError, Question, per_robot

__all__ = [
    "URL_ENV_VAR",
    "TOKEN_ENV_VAR",
    "GaeTransportError",
    "GaeParseError",
    "RemoteBackend",
    "chat_completion",
    "captions",
    "grade_text_answer",
]

URL_ENV_VAR = "MCPA_REMOTE_URL"
TOKEN_ENV_VAR = "MCPA_REMOTE_TOKEN"


class GaeTransportError(GaeError):
    """The request was refused, or its transport failed on every attempt."""


class GaeParseError(GaeError):
    """The service replied but the payload could not be interpreted."""


def chat_completion(url: str, body: bytes | str, messages: list[dict] | None = None, *,
                    token: str | None = None, timeout_s: float = 60.0,
                    retries: int = 3, backoff_s: float = 1.0,
                    transcript=None) -> str:
    """POST one chat request, ``body`` encoded (or ``body`` the model name and
    ``messages`` to encode), and return the first choice's content string.

    Only http(s) URLs are accepted. Transport failures, 429 and 5xx are retried
    with exponential backoff; any other status (redirects are not followed) or
    an unparsable reply fails at once, as retrying cannot help.
    """
    if urllib.parse.urlsplit(url).scheme not in ("http", "https"):
        raise GaeTransportError(f"not an http(s) endpoint: {url!r}")
    if messages is not None:
        body = json.dumps({"model": body, "messages": messages, "temperature": 0}).encode()
    headers = {"Content-Type": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    request = urllib.request.Request(url, body, headers)
    log = transcript.log if transcript is not None else lambda *args, **kwargs: None

    for attempt in range(1, max(1, retries) + 1):
        try:
            with _OPENER.open(request, timeout=timeout_s) as response:
                reply = response.read()
        except urllib.error.HTTPError as exc:
            with exc:
                last_error = GaeTransportError(
                    f"HTTP {exc.code}: {exc.read(500).decode(errors='replace')}")
            if exc.code != 429 and exc.code < 500:
                break
        except (OSError, http.client.HTTPException) as exc:
            last_error = exc
        else:
            try:
                choice = json.loads(reply)["choices"][0]
                content = choice["message"]["content"] if "message" in choice else choice["content"]
                if not isinstance(content, str):
                    raise TypeError("choice content is not a string")
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                log(body, error=str(exc))
                raise GaeParseError(f"malformed chat response: {exc}") from exc
            log(body, content)
            return content
        if attempt < retries:
            time.sleep(backoff_s * (2 ** (attempt - 1)))
    log(body, error=str(last_error))
    raise GaeTransportError(
        f"chat request failed after {attempt} attempt(s): {last_error}") from last_error


class _NoRedirect(urllib.request.HTTPRedirectHandler):
    def redirect_request(self, *args, **kwargs):
        return None  # a 3xx stays an error, so the bearer token never leaves the host


_OPENER = urllib.request.build_opener(_NoRedirect)


def _request(model: str, system: str, user: str) -> bytes:
    """The encoded chat request of a system prompt and one user message."""
    messages = [{"role": "system", "content": system}, {"role": "user", "content": user}]
    return json.dumps({"model": model, "messages": messages, "temperature": 0}).encode()


def captions(frames: FrameStore) -> str:
    """Render each frame the way a captioner would describe it, one line each."""
    hit_frames, tag_ids, names = frames.occurrences()
    tags = [names[i] for i in tag_ids.tolist()]
    bounds = np.searchsorted(hit_frames, np.arange(len(frames) + 1)).tolist()
    return "\n".join(
        f"[t={t:.2f}s robot={robot} pos=({x:.1f}, {y:.1f})] saw: "
        + (", ".join(tags[a:b]) or "nothing notable")
        for t, robot, x, y, a, b in zip(frames.timestamps.tolist(), frames.robot_ids.tolist(),
                                        frames.poses[:, 0].tolist(), frames.poses[:, 1].tolist(),
                                        bounds, bounds[1:]))


_NUMBER = re.compile(r"-?\d+(?:\.\d+)?")


def grade_text_answer(question: Question, answer: str) -> bool:
    """Grade a free-text answer with the synthetic rules.

    Presence answers are case-folded and trimmed; location answers must
    parse to coordinates within the 50 m radius; reporter answers must name
    the observing robot's id. Malformed answers grade as incorrect.
    """
    text = (answer or "").strip()
    if question.template == "presence":
        folded = text.casefold()
        expected = str(question.answer).casefold()
        return folded.startswith(expected) or expected in folded.split()
    if question.template == "location":
        numbers = _NUMBER.findall(text)
        if len(numbers) < 2:
            return False
        x, y = float(numbers[0]), float(numbers[1])
        gx, gy = question.answer[0], question.answer[1]
        return math.hypot(x - gx, y - gy) <= LOCATION_RADIUS_M
    numbers = _NUMBER.findall(text)
    return any(int(float(n)) == question.answer for n in numbers)


class _Transcript:
    """Append-only JSON-lines log of prompts and raw responses."""

    def __init__(self, path: str):
        self._path = path
        self._lock = threading.Lock()

    def log(self, request: bytes, content: str | None = None, error: str | None = None) -> None:
        record = {"ts": time.time(), "request": json.loads(request)}  # decoded only to log
        if content is not None:
            record["response"] = content
        if error is not None:
            record["error"] = error
        line = json.dumps(record, ensure_ascii=False)
        with self._lock, open(self._path, "a") as fh:
            fh.write(line + "\n")


_QUESTION_PROMPT = (
    "You are generating a memory exam. Below are captions of frames a robot "
    "just sampled. Write {n} question/answer pairs that are answerable from "
    "these captions alone. Use the templates presence (answer YES or NO), "
    "location (answer 'x, y, yaw' in metres) and reporter (answer the robot "
    "id). Reply with a JSON array of objects with keys 'template', 'tag', "
    "'question' and 'answer'."
)

_ANSWER_PROMPT = (
    "You answer questions about a robot team's memory. Below are captions of "
    "everything on record. Answer the user's question from the captions "
    "alone. For presence questions reply YES or NO; for location questions "
    "reply 'x, y, yaw' in metres; for reporter questions reply the robot id."
)

_CLOSE = b'"}], "temperature": 0}'   # the bytes after an encoded request's user message


@dataclass
class _AnsweringMemory:
    """The encoded answer request up to its question, and the reply already
    received for each question text (``None`` for a malformed one)."""

    head: bytes
    replies: dict[str, str | None] = field(default_factory=dict)


class RemoteBackend:
    """Questioner/answerer that delegates to a chat-completion service.

    Requests share no session. Within one prepared memory the system prompt
    and captions are fixed, so a question text fixes the prompt: each
    distinct text is asked once and its reply graded for every question that
    repeats it. The request up to the question is encoded once per prepared
    memory; answers are asked in the calling thread unless ``max_concurrency`` > 1.
    """

    name = "remote"

    def __init__(self, url: str | None = None, model: str = "qwen3-8b", *,
                 token: str | None = None, timeout_s: float = 60.0, retries: int = 3,
                 backoff_s: float = 1.0, max_concurrency: int = 1,
                 transcript_path: str | None = None):
        self.url = url or os.environ.get(URL_ENV_VAR)
        if not self.url:
            raise GaeError(
                f"no remote endpoint configured (set {URL_ENV_VAR} or pass url=...)")
        self.model = model
        self.token = token if token is not None else os.environ.get(TOKEN_ENV_VAR)
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.max_concurrency = max(1, int(max_concurrency))
        self.transcript = _Transcript(transcript_path) if transcript_path else None

    def _chat(self, body: bytes) -> str:
        return chat_completion(self.url, body, token=self.token, timeout_s=self.timeout_s,
                               retries=self.retries, backoff_s=self.backoff_s,
                               transcript=self.transcript)

    def prepare_memory(self, memory: FrameStore) -> _AnsweringMemory:
        """The answer request with the whole memory's captions as context,
        encoded up to the question, with an empty reply memo."""
        head = _request(self.model, _ANSWER_PROMPT, captions(memory))[:-len(_CLOSE)]
        return _AnsweringMemory(head)

    def make_exam(self, pilot: FrameStore, num_questions: int, robot_id: int) -> Exam:
        """Robot ``robot_id``'s exam, written by the service from the pilot's captions."""
        prompt = _QUESTION_PROMPT.format(n=num_questions)
        reply = self._chat(_request(self.model, prompt, captions(pilot)))
        return Exam(robot_id, self._parse_questions(reply, num_questions))

    @staticmethod
    def _parse_questions(reply: str, num_questions: int) -> list[Question]:
        start, end = reply.find("["), reply.rfind("]")
        if start < 0 or end <= start:
            raise GaeParseError("question reply contains no JSON array")
        try:
            raw = json.loads(reply[start:end + 1])
        except json.JSONDecodeError as exc:
            raise GaeParseError(f"question reply is not valid JSON: {exc}") from exc
        questions = []
        for entry in raw[:num_questions]:
            try:
                template = str(entry["template"]).strip().casefold()
                if template not in TEMPLATES:
                    raise ValueError(f"unknown template {template!r}")
                answer: object = str(entry["answer"]).strip()
                if template == "presence":
                    answer = str(answer).upper()
                elif template == "location":
                    numbers = _NUMBER.findall(str(entry["answer"]))
                    answer = tuple(float(n) for n in numbers[:3])
                    if len(answer) < 2:
                        raise ValueError("location answer needs coordinates")
                else:
                    answer = int(float(_NUMBER.findall(str(entry["answer"]))[0]))
                questions.append(Question(template, str(entry.get("tag", "")),
                                          str(entry["question"]), answer))
            except (KeyError, ValueError, IndexError, TypeError) as exc:
                raise GaeParseError(f"bad question entry {entry!r}: {exc}") from exc
        if not questions:
            raise GaeParseError("question reply parsed to an empty exam")
        return questions

    def run_exams(self, pilots, num_questions: int, seeds, memory: _AnsweringMemory):
        """Each robot's exam, asked and then answered, one robot after another.
        The service owns question sampling, so ``seeds`` go unused."""
        def sit(k):
            exam = self.make_exam(pilots[k], num_questions, k)
            return exam, self.test(exam, memory)
        return tuple(zip(*per_robot(sit, len(pilots))))

    def test(self, exam, memory: _AnsweringMemory) -> float:
        """Ask every question text the memory has no reply for yet, with its
        captions in context, then grade each exam question on its text's reply."""
        def ask(text: str) -> str | None:
            tail = json.dumps(f"\n\nQuestion: {text}")[1:-1].encode()  # escaped, unquoted
            try:
                return self._chat(memory.head + tail + _CLOSE)
            except GaeParseError:
                return None  # malformed answer counts as incorrect (logged)

        replies = memory.replies
        new = list(dict.fromkeys(q.text for q in exam.qa_pairs if q.text not in replies))
        if self.max_concurrency == 1:
            replies.update(zip(new, map(ask, new)))
        else:
            from concurrent.futures import ThreadPoolExecutor  # loads only when used
            with ThreadPoolExecutor(max_workers=self.max_concurrency) as pool:
                replies.update(zip(new, pool.map(ask, new)))
        return sum(replies[q.text] is not None and grade_text_answer(q, replies[q.text])
                   for q in exam.qa_pairs) / len(exam)
