"""Chat-completion backend for exam generation and answering.

Speaks the usual JSON-over-HTTP chat shape: the request carries
``{"model", "messages", "temperature": 0}`` and the reply's first choice
``content`` string is used. The endpoint URL and bearer token come from the
``MCPA_REMOTE_URL`` / ``MCPA_REMOTE_TOKEN`` environment variables unless set
explicitly. Each request is one HTTP/1.0 POST on its own connection (TLS
for https), the reply read to the connection's close. :class:`RemoteBackend`
keeps at most ``_IN_FLIGHT`` = 4 requests open at once: a pass waits on
round trips rather than on the service, and more open connections than a
small server's accept backlog stall on dropped connections. Requests go out
in a fixed order, exams by robot and then answers by the first appearance
of their question text, and every result, error and transcript record is
taken in that order, so none depends on which reply arrives first. Every
prompt and raw response is appended to a JSON-lines transcript file (UTF-8)
when one is configured.

Frames are captioned ``[t=12.00s robot=2 pos=(187.9, 55.1)] saw: bus, cone``.
An exam request carries one caption per pilot frame (:func:`captions`): a
questioner draws its questions from the sightings it is sent, weighted by
how often each was seen, so joining frames there would change the exams. An
answer request carries the base memory one caption per run of consecutive
frames that differ only in their timestamp (:func:`run_captions`), a run of
two or more written ``[t=12.00-15.00s robot=2 pos=(187.9, 55.1)] saw: bus,
cone``: the repeats add no sighting, and a staged_k5 answer request shrinks
from 65 KB to 2.7 KB.
"""
from __future__ import annotations

import json
import math
import os
import re
import socket
import threading
import time
import urllib.parse

import numpy as np

from .gae import LOCATION_RADIUS_M, TEMPLATES, Exam, FrameStore, GaeError, Question

__all__ = [
    "URL_ENV_VAR",
    "TOKEN_ENV_VAR",
    "GaeTransportError",
    "GaeParseError",
    "RemoteBackend",
    "chat_completion",
    "captions",
    "run_captions",
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

    Only http(s) URLs with a host are accepted. Transport failures, 429 and 5xx
    are retried with exponential backoff; any other status (redirects are not
    followed) or an unparsable reply fails at once, as retrying cannot help.
    """
    parts = urllib.parse.urlsplit(url)
    try:
        address = (parts.hostname, parts.port or _PORTS[parts.scheme])
    except (KeyError, ValueError):   # not http(s), or a port that is no number in range
        address = None
    if address is None or not parts.hostname:
        raise GaeTransportError(f"not an http(s) endpoint: {url!r}")
    host = parts.netloc.rpartition("@")[2]
    target = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
    if _UNSAFE.search(host + target + (token or "")):
        raise GaeTransportError("endpoint or token holds a space, a control character "
                                "or a character outside ASCII")
    if messages is not None:
        body = _encode(body, messages)
    head = (f"POST {target} HTTP/1.0\r\nHost: {host}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n")
    if token:
        head += f"Authorization: Bearer {token}\r\n"
    request = (head + "\r\n").encode("ascii") + body
    log = transcript.log if transcript is not None else lambda *args, **kwargs: None

    for attempt in range(1, max(1, retries) + 1):
        try:
            status, reply = _post(address, parts.scheme == "https", request, timeout_s)
        except OSError as exc:
            last_error = exc
        else:
            if 200 <= status < 300:
                try:
                    choice = json.loads(reply)["choices"][0]
                    content = (choice["message"]["content"] if "message" in choice
                               else choice["content"])
                    if not isinstance(content, str):
                        raise TypeError("choice content is not a string")
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    log(body, error=str(exc))
                    raise GaeParseError(f"malformed chat response: {exc}") from exc
                log(body, content)
                return content
            # a 3xx stays an error too, so the bearer token never leaves the host
            last_error = GaeTransportError(
                f"HTTP {status}: {reply[:500].decode(errors='replace')}")
            if status != 429 and status < 500:
                break
        if attempt < retries:
            time.sleep(backoff_s * (2 ** (attempt - 1)))
    log(body, error=str(last_error))
    raise GaeTransportError(
        f"chat request failed after {attempt} attempt(s): {last_error}") from last_error


_PORTS = {"http": 80, "https": 443}
_UNSAFE = re.compile(r"[^!-~]")   # anything but printable ASCII, space excluded
_STATUS = re.compile(rb"HTTP/\d\.\d (\d{3})\b")
_LENGTH = re.compile(rb"\r\ncontent-length:[ \t]*(\d+)", re.IGNORECASE)
_tls = None   # the process's one ssl context, built on its first https request
_tls_lock = threading.Lock()   # held while it is built: requests run on several threads


def _post(address: tuple[str, int], https: bool, request: bytes,
          timeout_s: float) -> tuple[int, bytes]:
    """Send one encoded HTTP/1.0 request on a new connection and read the reply
    to its close (an HTTP/1.0 reply is never chunked): its status and body."""
    global _tls
    sock = socket.create_connection(address, timeout=timeout_s)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # send the tail unheld
        if https:
            with _tls_lock:
                if _tls is None:   # loading the CA store takes tens of ms: do it once
                    import ssl   # loaded only for an https endpoint
                    _tls = ssl.create_default_context()
            sock = _tls.wrap_socket(sock, server_hostname=address[0])
        sock.sendall(request)
        reply = b"".join(iter(lambda: sock.recv(65536), b""))
    finally:
        sock.close()
    head, blank, body = reply.partition(b"\r\n\r\n")
    status, length = _STATUS.match(head), _LENGTH.search(head)
    if not blank or status is None:
        raise ConnectionError(f"malformed HTTP reply: {head[:80]!r}")
    if length is not None and len(body) < int(length[1]):
        raise ConnectionError(f"reply ended after {len(body)} of {int(length[1])} body bytes")
    return int(status[1]), body if length is None else body[:int(length[1])]


def captions(frames: FrameStore) -> str:
    """Render each frame the way a captioner would describe it, one line each."""
    return _caption_lines(frames, np.arange(len(frames) + 1), *frames.occurrences())


def run_captions(frames: FrameStore) -> str:
    """Render the frames one line per run: a stretch of consecutive frames with
    the same robot, the same x and y (bit for bit) and the same tag set, whose
    captions differ only in their timestamp. A one-frame run reads as
    :func:`captions` renders it; a longer one as ``[t=<first>-<last>s robot=…
    pos=(…)] saw: …``. Runs are found from the columns, so a repeated frame
    costs no string."""
    occurrences = hit_frames, tag_ids, _ = frames.occurrences()
    counts = np.bincount(hit_frames, minlength=len(frames))
    xy = frames.pose(slice(2)).view(np.int64)                       # -0.0 prints apart from 0.0
    place = np.column_stack([frames.robot_ids, xy, counts])
    new = np.ones(len(frames) + 1, dtype=bool)                      # [-1]: ends the last run
    new[1:-1] = (place[1:] != place[:-1]).any(axis=1)
    # a frame with as many tags as the one before: compare its pairs with those
    # that many pairs back, tag by tag
    new[hit_frames[tag_ids != tag_ids[np.arange(len(tag_ids)) - counts[hit_frames]]]] = True
    return _caption_lines(frames, new.nonzero()[0], *occurrences)


def _caption_lines(frames: FrameStore, starts: np.ndarray, hit_frames: np.ndarray,
                   tag_ids: np.ndarray, names: tuple[str, ...]) -> str:
    """One caption per run of frames ``starts[i]:starts[i + 1]``, given the
    store's ``occurrences()``: the run's first frame, its timestamp a span
    when the run is longer."""
    first, last = starts[:-1], starts[1:] - 1
    lo, hi = np.searchsorted(hit_frames, [first, first + 1]).tolist()
    tags = [names[i] for i in tag_ids.tolist()]
    return "\n".join(
        f"[t={t:.2f}{f'-{u:.2f}' if long else ''}s robot={robot} pos=({x:.1f}, {y:.1f})] saw: "
        + (", ".join(tags[a:b]) or "nothing notable")
        for t, u, long, robot, x, y, a, b in zip(
            frames.timestamps[first].tolist(), frames.timestamps[last].tolist(),
            (last > first).tolist(), frames.robot_ids[first].tolist(),
            frames.pose(0, first).tolist(), frames.pose(1, first).tolist(), lo, hi))


# a number standing on its own: not part of a word or a hyphenated name, so
# the 03 of "landmark-03" is no number, and not cut from a longer one
_NUMBER = re.compile(r"(?<![\w.-])-?\d+(?:\.\d+)?(?!\w|\.\d)")
_WORD = re.compile(r"\w+")


def _yes_or_no(text: str) -> str | None:
    """The YES or NO that ``text`` says: its case-folded words include exactly
    one of the two. ``None`` for "yes or no", "not sure", "noted" and the like."""
    said = {"yes", "no"}.intersection(_WORD.findall(text.casefold()))
    return said.pop().upper() if len(said) == 1 else None


def grade_text_answer(question: Question, answer: str) -> bool:
    """Grade a free-text answer with the synthetic rules.

    A presence answer is right when its case-folded words include the
    expected YES or NO and not the other one; location answers must parse to
    coordinates within the 50 m radius; reporter answers must name the
    observing robot's id. Malformed answers grade as incorrect.
    """
    text = answer or ""
    if question.template == "presence":
        return _yes_or_no(text) == str(question.answer).upper()
    if question.template == "location":
        numbers = _NUMBER.findall(text)
        if len(numbers) < 2:
            return False
        x, y = float(numbers[0]), float(numbers[1])
        gx, gy = question.answer[0], question.answer[1]
        return math.hypot(x - gx, y - gy) <= LOCATION_RADIUS_M
    numbers = _NUMBER.findall(text)
    return any(int(float(n)) == question.answer for n in numbers)


class _Held(list):
    """One request's transcript lines, held so that they are written in
    request order rather than as replies arrive."""

    def log(self, request: bytes, content: str | None = None, error: str | None = None) -> None:
        """Hold one line: the request (decoded only to log) and its reply or error."""
        record = {"ts": time.time(), "request": json.loads(request)}
        if content is not None:
            record["response"] = content
        if error is not None:
            record["error"] = error
        self.append(json.dumps(record, ensure_ascii=False))


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


def _encode(model: str, messages: list[dict]) -> bytes:
    """A chat request, encoded: the one place its JSON shape is written."""
    return json.dumps({"model": model, "messages": messages, "temperature": 0}).encode()


def _request(model: str, system: str, user: str) -> bytes:
    """The encoded chat request of a system prompt and one user message."""
    return _encode(model, [{"role": "system", "content": system},
                           {"role": "user", "content": user}])


_CLOSE = b'"}], "temperature": 0}'   # the bytes after an encoded request's user message
_IN_FLIGHT = 4   # requests open at once: below http.server's accept backlog of 5


class RemoteBackend:
    """Questioner/answerer that delegates to a chat-completion service: the
    backend protocol (:meth:`prepare_memory`, :meth:`run_exams`) and no more.

    Requests share no session. Within one :meth:`run_exams` call the system
    prompt and captions are fixed, so a question text fixes the prompt: each
    distinct text is asked once and its reply graded for every question that
    repeats it. The reply memo lives for that one call. The request up to the
    question is encoded once per prepared memory.

    At most ``_IN_FLIGHT`` = 4 requests are open at once, each sent by a
    worker thread through :func:`chat_completion`. A pass spends most of a
    round trip waiting rather than in the service, so overlapping them pays;
    above the accept backlog of 5 that Python's ``http.server`` listens with,
    a pass stalls on dropped connections (8 open: 2.1 s against 0.1 s), so
    there is no setting for it. Requests are queued in a fixed order (see
    :meth:`run_exams`) and taken in that order: the first failure in it is
    the one raised, no queued request starts once one has failed and the
    open ones are awaited, and each request's transcript record is appended
    to ``transcript_path`` whole, in that order, once its step has ended.
    """

    name = "remote"

    def __init__(self, url: str | None = None, model: str = "qwen3-8b", *,
                 token: str | None = None, timeout_s: float = 60.0, retries: int = 3,
                 transcript_path: str | None = None):
        self.url = url or os.environ.get(URL_ENV_VAR)
        if not self.url:
            raise GaeError(
                f"no remote endpoint configured (set {URL_ENV_VAR} or pass url=...)")
        self.model = model
        self.token = token if token is not None else os.environ.get(TOKEN_ENV_VAR)
        self.timeout_s = timeout_s
        self.retries = retries
        self.transcript_path = transcript_path

    def _chat(self, body: bytes, log) -> str:
        return chat_completion(self.url, body, token=self.token, timeout_s=self.timeout_s,
                               retries=self.retries, transcript=log)

    def _ask(self, task, bodies: list[bytes]) -> list:
        """``task(body, log)`` for each body, ``log`` the request's held
        transcript lines, run by at most ``_IN_FLIGHT`` worker threads that
        take the bodies in order. Returns, in body order, each task's result
        or the exception it raised, once every started task has ended. Once
        a task has failed no worker starts another; a body left unasked
        holds a "not asked" error. The transcript gets each request's lines
        in body order."""
        outcomes = [GaeError("not asked: an earlier request failed")] * len(bodies)
        held = [_Held() if self.transcript_path else None for _ in bodies]
        lock, order, failed = threading.Lock(), iter(range(len(bodies))), []

        def work():
            while True:
                with lock:   # each body is taken once, and none once one has failed
                    i = None if failed else next(order, None)
                if i is None:
                    return
                try:
                    outcomes[i] = task(bodies[i], held[i])
                except Exception as exc:   # kept, to be raised in request order
                    outcomes[i] = exc
                    with lock:
                        failed.append(i)
        workers = [threading.Thread(target=work) for _ in range(min(_IN_FLIGHT, len(bodies)))]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        lines = [line + "\n" for lines in held if lines for line in lines]
        if lines:
            with open(self.transcript_path, "a", encoding="utf-8") as fh:
                fh.writelines(lines)
        return outcomes

    def prepare_memory(self, memory: FrameStore) -> bytes:
        """The answer request with the whole memory as context, encoded up to
        the question. The context is :func:`run_captions`: a frame repeating
        the one before but for its timestamp adds no sighting, so
        ``[t=3.00s …] saw: bus`` and ``[t=4.00s …] saw: bus`` become
        ``[t=3.00-4.00s …] saw: bus``. On staged_k5 that is 40 lines (2.7 KB)
        instead of 1,050 (65 KB) per request; on town and city_desk 11 KB and
        28 KB instead of 300 KB. An exam request still sends a caption per
        frame, as a questioner weighs each sighting by how often it was seen."""
        return _request(self.model, _ANSWER_PROMPT, run_captions(memory))[:-len(_CLOSE)]

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
                    answer = _yes_or_no(answer)
                    if answer is None:
                        raise ValueError("presence answer must say YES or NO")
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

    def run_exams(self, pilots, num_questions: int, seeds, memory: bytes):
        """Every robot's exam and score, in three steps: ask each robot's exam
        from its pilot's captions; ask each distinct question text once, in
        first-appearance order (robot 0's first), after the prepared
        ``memory``; grade each exam from those replies. An error names the
        robot whose exam failed, or for an answer the first robot whose exam
        holds the text. The service owns question sampling, so ``seeds`` go
        unused."""
        prompt = _QUESTION_PROMPT.format(n=num_questions)
        asked = self._ask(
            lambda body, log: self._parse_questions(self._chat(body, log), num_questions),
            [_request(self.model, prompt, captions(pilot)) for pilot in pilots])
        exams = [Exam(k, questions)
                 for k, questions in enumerate(_settle(range(len(pilots)), asked))]
        first = {}
        for exam in exams:
            for q in exam.qa_pairs:
                first.setdefault(q.text, exam.robot_id)
        # each text JSON-escaped, without its quotes, between the head and the close
        answered = self._ask(self._answer, [
            memory + json.dumps(f"\n\nQuestion: {text}")[1:-1].encode() + _CLOSE
            for text in first])
        replies = dict(zip(first, _settle(first.values(), answered)))
        return tuple(exams), tuple(_score(exam, replies) for exam in exams)

    def _answer(self, body: bytes, log) -> str | None:
        try:
            return self._chat(body, log)
        except GaeParseError:
            return None  # malformed answer counts as incorrect (logged)


def _settle(robots, outcomes: list) -> list:
    """The outcomes of :meth:`RemoteBackend._ask`, each request's owner in
    ``robots``; the first failure in request order is raised, naming its robot."""
    for k, outcome in zip(robots, outcomes):
        if isinstance(outcome, Exception):
            raise GaeError(f"robot {k}: {outcome}") from outcome
    return outcomes


def _score(exam, replies: dict) -> float:
    """The share of the exam's questions graded right on their texts' replies."""
    return sum(replies[q.text] is not None and grade_text_answer(q, replies[q.text])
               for q in exam.qa_pairs) / len(exam)
