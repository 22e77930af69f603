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
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .gae import (LOCATION_RADIUS_M, TEMPLATES, GaeError, MemoryItem, Question)

__all__ = [
    "URL_ENV_VAR",
    "TOKEN_ENV_VAR",
    "GaeTransportError",
    "GaeParseError",
    "RemoteBackend",
    "chat_completion",
    "caption",
    "grade_text_answer",
]

URL_ENV_VAR = "MCPA_REMOTE_URL"
TOKEN_ENV_VAR = "MCPA_REMOTE_TOKEN"


class GaeTransportError(GaeError):
    """The request was refused, or its transport failed on every attempt."""


class GaeParseError(GaeError):
    """The service replied but the payload could not be interpreted."""


def chat_completion(url: str, model: str, messages: list[dict], *,
                    token: str | None = None, timeout_s: float = 60.0,
                    retries: int = 3, backoff_s: float = 1.0,
                    transcript=None) -> str:
    """POST one chat request and return the first choice's content string.

    Only http(s) URLs are accepted. Transport failures, 429 and 5xx are retried
    with exponential backoff; any other status (redirects are not followed) or
    an unparsable reply fails at once, as retrying cannot help.
    """
    if urllib.parse.urlsplit(url).scheme not in ("http", "https"):
        raise GaeTransportError(f"not an http(s) endpoint: {url!r}")
    payload = {"model": model, "messages": messages, "temperature": 0}
    headers = {"Content-Type": "application/json"}
    if token:
        headers["Authorization"] = f"Bearer {token}"
    request = urllib.request.Request(url, json.dumps(payload).encode(), headers)
    log = transcript.log if transcript is not None else lambda *args, **kwargs: None

    for attempt in range(1, max(1, retries) + 1):
        try:
            with _OPENER.open(request, timeout=timeout_s) as response:
                body = response.read()
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
                choice = json.loads(body)["choices"][0]
                content = choice["message"]["content"] if "message" in choice else choice["content"]
                if not isinstance(content, str):
                    raise TypeError("choice content is not a string")
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                log(payload, error=str(exc))
                raise GaeParseError(f"malformed chat response: {exc}") from exc
            log(payload, content)
            return content
        if attempt < retries:
            time.sleep(backoff_s * (2 ** (attempt - 1)))
    log(payload, error=str(last_error))
    raise GaeTransportError(
        f"chat request failed after {attempt} attempt(s): {last_error}") from last_error


class _NoRedirect(urllib.request.HTTPRedirectHandler):
    def redirect_request(self, *args, **kwargs):
        return None  # a 3xx stays an error, so the bearer token never leaves the host


_OPENER = urllib.request.build_opener(_NoRedirect)


def caption(item: MemoryItem) -> str:
    """Render one memory item the way a captioner would describe the frame."""
    seen = ", ".join(sorted(item.tags)) if item.tags else "nothing notable"
    x, y = item.xy
    return (f"[t={item.timestamp_s:.2f}s robot={item.robot_id} "
            f"pos=({x:.1f}, {y:.1f})] saw: {seen}")


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

    def log(self, request: dict, content: str | None = None, error: str | None = None) -> None:
        record = {"ts": time.time(), "request": request}
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


class RemoteBackend:
    """Questioner/answerer that delegates to a chat-completion service.

    Each request is independent (no shared session); up to
    ``max_concurrency`` answer requests may be in flight at once.
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

    @classmethod
    def from_settings(cls, settings) -> "RemoteBackend":
        """Build from a ``config.RemoteSettings``, whose fields are keywords here."""
        return cls(**vars(settings))

    def _chat(self, system: str, user: str) -> str:
        messages = [{"role": "system", "content": system},
                    {"role": "user", "content": user}]
        return chat_completion(self.url, self.model, messages, token=self.token,
                               timeout_s=self.timeout_s, retries=self.retries,
                               backoff_s=self.backoff_s, transcript=self.transcript)

    def prepare_memory(self, memory) -> str:
        """The captions of the whole memory: every answer's context."""
        return "\n".join(caption(item) for item in memory)

    def make_questions(self, pilot, num_questions: int,
                       rng: np.random.Generator) -> list[Question]:
        del rng  # the service owns question sampling
        captions = "\n".join(caption(item) for item in pilot)
        reply = self._chat(_QUESTION_PROMPT.format(n=num_questions), captions)
        return self._parse_questions(reply, num_questions)

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

    def test(self, exam, captions: str) -> float:
        """Submit each exam question with the memory captions in context."""
        def ask(question: Question) -> bool:
            try:
                reply = self._chat(_ANSWER_PROMPT, f"{captions}\n\nQuestion: {question.text}")
            except GaeParseError:
                return False  # malformed answer counts as incorrect (logged)
            return grade_text_answer(question, reply)

        with ThreadPoolExecutor(max_workers=self.max_concurrency) as pool:
            return sum(pool.map(ask, exam.qa_pairs)) / len(exam)
