"""Chat-completion clients: an OpenAI-compatible HTTP client and a
deterministic scripted mock for tests and dry runs.

Token accounting: when the provider reports usage it is recorded exactly;
when it does not, tokens are estimated as ceil(byte_length / 4) and the
response is flagged so downstream results stay honest.
"""

from __future__ import annotations

import math
import os
import random
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import requests

DEFAULT_TIMEOUT = 120.0
DEFAULT_RETRIES = 3
RETRYABLE_STATUS = frozenset((408, 429, 500, 502, 503, 504))
MAX_RETRY_AFTER = 60  # seconds; a longer Retry-After is cut to this


class TransportError(Exception):
    """Network-level failure after exhausting retries."""


class ApiError(Exception):
    """Non-retryable (or retry-exhausted) HTTP error from the provider."""

    def __init__(self, status: int, body: str):
        super().__init__(f"HTTP {status}: {body[:200]}")
        self.status = status
        self.body = body


class ScriptExhausted(Exception):
    """A scripted mock was asked for more responses than it holds."""


@dataclass(frozen=True)
class ChatRequest:
    model: str
    messages: Tuple[Tuple[str, str], ...]  # (role, content) pairs
    temperature: float = 0.0
    response_format: Optional[str] = None  # "json_object" or None

    def body(self) -> dict:
        body = {
            "model": self.model,
            "messages": [{"role": r, "content": c} for r, c in self.messages],
            "temperature": self.temperature,
        }
        if self.response_format is not None:
            body["response_format"] = {"type": self.response_format}
        return body


@dataclass(frozen=True)
class ChatResponse:
    content: str
    prompt_tokens: int
    completion_tokens: int
    finish_reason: str = "stop"
    usage_estimated: bool = False  # provider omitted usage; tokens are estimates


def estimate_tokens(text: str) -> int:
    """Fallback when a provider omits usage: ceil(bytes / 4)."""
    return math.ceil(len(text.encode("utf-8")) / 4)


class HttpClient:
    """OpenAI-compatible ``/chat/completions`` client.

    Transient transport failures and retryable HTTP statuses are retried.
    A retryable response's ``Retry-After`` in whole seconds sets the wait,
    capped at MAX_RETRY_AFTER; otherwise the wait is the exponential backoff
    times a factor drawn uniformly from [0.5, 1], so clients that failed
    together do not retry together.  Only the final successful response's
    usage is recorded.  Shareable across threads.
    """

    def __init__(self, endpoint: str, api_key_env: str = "TOONBENCH_API_KEY",
                 timeout: float = DEFAULT_TIMEOUT, retries: int = DEFAULT_RETRIES,
                 backoff: float = 1.0):
        self.endpoint = endpoint.rstrip("/")
        self.api_key_env = api_key_env
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self._session = requests.Session()

    def complete(self, req: ChatRequest) -> ChatResponse:
        url = self.endpoint + "/chat/completions"
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.api_key_env)
        if key:
            headers["Authorization"] = f"Bearer {key}"
        last_error: Optional[Exception] = None
        asked: Optional[int] = None  # the last response's Retry-After
        for attempt in range(self.retries + 1):
            if attempt:
                if asked is None:
                    time.sleep(self.backoff * 2 ** (attempt - 1) * random.uniform(0.5, 1.0))
                else:
                    time.sleep(asked)
            asked = None
            try:
                resp = self._session.post(url, json=req.body(), headers=headers,
                                          timeout=self.timeout)
            except requests.RequestException as e:
                last_error = e
                continue
            if resp.status_code in RETRYABLE_STATUS:
                last_error = ApiError(resp.status_code, resp.text)
                asked = _retry_after(resp.headers.get("Retry-After", ""))
                continue
            if resp.status_code != 200:
                raise ApiError(resp.status_code, resp.text)
            try:
                payload = resp.json()
            except requests.JSONDecodeError:
                raise ApiError(200, f"completion body is not JSON: {resp.text}")
            return _parse_response(payload)
        if isinstance(last_error, ApiError):
            raise last_error
        raise TransportError(f"request failed after {self.retries + 1} attempts: "
                             f"{last_error}")


def _retry_after(value: str) -> Optional[int]:
    """The wait a ``Retry-After`` header asks for, as a non-negative whole
    number of seconds capped at MAX_RETRY_AFTER, or None for an HTTP-date,
    a malformed value or no header ("")."""
    value = value.strip()
    if not (value.isascii() and value.isdigit()):
        return None
    return min(int(value), MAX_RETRY_AFTER)


def _parse_response(payload: dict) -> ChatResponse:
    try:
        choice = payload["choices"][0]
        content = choice["message"]["content"]
    except (KeyError, IndexError, TypeError) as e:
        raise ApiError(200, f"malformed completion payload: {e}")
    finish = choice.get("finish_reason", "stop")
    if not isinstance(content, str):
        # refusals, tool calls and truncations can carry no text at all
        raise ApiError(200, f"completion has no text content (finish_reason={finish!r})")
    try:  # a lone surrogate escape in the body decodes to text no file can hold
        content.encode("utf-8")
    except UnicodeEncodeError as e:
        raise ApiError(200, f"completion text is not valid Unicode: {e}")
    usage = payload.get("usage")
    if isinstance(usage, dict) and "prompt_tokens" in usage and "completion_tokens" in usage:
        tokens = usage["prompt_tokens"], usage["completion_tokens"]
        if not all(type(t) is int and t >= 0 for t in tokens):
            raise ApiError(200, f"usage token counts are not non-negative integers: {usage}")
        return ChatResponse(content, *tokens, finish)
    return ChatResponse(content, 0, estimate_tokens(content), finish,
                        usage_estimated=True)


@dataclass(frozen=True)
class ScriptedTurn:
    content: str
    prompt_tokens: int
    completion_tokens: int


class ScriptedClient:
    """Deterministic mock: returns canned responses in order, with the
    scripted usage flowing unchanged into result totals."""

    def __init__(self, script: Sequence[ScriptedTurn]):
        self._script: List[ScriptedTurn] = list(script)
        self._pos = 0
        self._lock = threading.Lock()
        self.requests: List[ChatRequest] = []  # recorded for assertions

    def complete(self, req: ChatRequest) -> ChatResponse:
        with self._lock:
            if self._pos >= len(self._script):
                raise ScriptExhausted(
                    f"script has {len(self._script)} turns; turn "
                    f"{self._pos + 1} requested")
            turn = self._script[self._pos]
            self._pos += 1
            self.requests.append(req)
        return ChatResponse(turn.content, turn.prompt_tokens, turn.completion_tokens)
