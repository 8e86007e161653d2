"""Chat clients: request construction, retries, usage accounting, mocks."""

import csv
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests

from toonbench.client import (MAX_RETRY_AFTER, ApiError, ChatRequest, HttpClient,
                              ScriptExhausted, ScriptedClient, ScriptedTurn,
                              TransportError, estimate_tokens)
from toonbench.harness import run_benchmark


# -- request construction ----------------------------------------------------


def test_request_body_defaults():
    req = ChatRequest(model="m", messages=(("user", "hi"),))
    body = req.body()
    assert body == {"model": "m", "temperature": 0.0,
                    "messages": [{"role": "user", "content": "hi"}]}


def test_request_body_response_format_is_the_only_jso_difference():
    base = ChatRequest(model="m", messages=(("user", "p"),))
    jso = ChatRequest(model="m", messages=(("user", "p"),),
                      response_format="json_object")
    b1, b2 = base.body(), jso.body()
    assert b2.pop("response_format") == {"type": "json_object"}
    assert b1 == b2


def test_estimate_tokens():
    assert estimate_tokens("") == 0
    assert estimate_tokens("abcd") == 1
    assert estimate_tokens("abcde") == 2
    assert estimate_tokens("é" * 4) == 2  # counts bytes, not characters


# -- scripted mock -----------------------------------------------------------


def test_scripted_client_plays_in_order():
    c = ScriptedClient([ScriptedTurn("one", 10, 1), ScriptedTurn("two", 20, 2)])
    req = ChatRequest(model="m", messages=(("user", "p"),))
    r1, r2 = c.complete(req), c.complete(req)
    assert (r1.content, r1.prompt_tokens, r1.completion_tokens) == ("one", 10, 1)
    assert (r2.content, r2.prompt_tokens, r2.completion_tokens) == ("two", 20, 2)
    assert len(c.requests) == 2


def test_scripted_client_exhaustion():
    c = ScriptedClient([])
    with pytest.raises(ScriptExhausted):
        c.complete(ChatRequest(model="m", messages=(("user", "p"),)))


# -- HTTP client against a local mock server ---------------------------------


class _Handler(BaseHTTPRequestHandler):
    script = []  # list of (status, payload_dict_or_text[, extra_headers])
    seen = []

    def do_POST(self):
        n = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(n))
        type(self).seen.append((self.path, body,
                                self.headers.get("Authorization")))
        status, payload, *extra = type(self).script.pop(0)
        data = (json.dumps(payload) if isinstance(payload, dict)
                else payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (extra[0] if extra else {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    _Handler.script = []
    _Handler.seen = []
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    # a short poll interval keeps shutdown() from waiting half a second per test
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.02},
                              daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_address[1]}"
    finally:
        httpd.shutdown()
        httpd.server_close()


def _ok_payload(content="hello", usage=True):
    payload = {"choices": [{"message": {"content": content},
                            "finish_reason": "stop"}]}
    if usage:
        payload["usage"] = {"prompt_tokens": 12, "completion_tokens": 7}
    return payload


REQ = ChatRequest(model="m", messages=(("user", "p"),))


def test_http_happy_path(server, monkeypatch):
    monkeypatch.setenv("TOONBENCH_API_KEY", "sekrit")
    _Handler.script = [(200, _ok_payload())]
    resp = HttpClient(server).complete(REQ)
    assert resp.content == "hello"
    assert (resp.prompt_tokens, resp.completion_tokens) == (12, 7)
    assert not resp.usage_estimated
    path, body, auth = _Handler.seen[0]
    assert path == "/chat/completions"
    assert body["model"] == "m" and auth == "Bearer sekrit"


def test_http_retries_429_then_succeeds(server):
    _Handler.script = [(429, {"error": "slow down"}), (200, _ok_payload())]
    resp = HttpClient(server, backoff=0.01).complete(REQ)
    assert resp.content == "hello"
    assert len(_Handler.seen) == 2
    # only the final successful response's usage is recorded
    assert (resp.prompt_tokens, resp.completion_tokens) == (12, 7)


def test_http_missing_usage_is_flagged_and_estimated(server):
    _Handler.script = [(200, _ok_payload("abcdefgh", usage=False))]
    resp = HttpClient(server).complete(REQ)
    assert resp.usage_estimated
    assert resp.completion_tokens == estimate_tokens("abcdefgh")


def test_http_null_content_is_api_error(server):
    # a refusal, tool call or truncation can come back with no text at all;
    # as an ApiError it costs one attempt, not the whole run
    client = HttpClient(server)
    for usage in (True, False):
        _Handler.script = [(200, _ok_payload(None, usage=usage))]
        with pytest.raises(ApiError) as ei:
            client.complete(REQ)
        assert ei.value.status == 200


def test_http_malformed_payload_is_api_error(server):
    _Handler.script = [(200, {"choices": []})]
    with pytest.raises(ApiError) as ei:
        HttpClient(server).complete(REQ)
    assert ei.value.status == 200
    assert "malformed completion payload" in str(ei.value)


def test_http_lone_surrogate_content_is_api_error(server):
    """A ``\\ud83d`` escape decodes to text that cannot be encoded as UTF-8;
    it is refused before the token estimate that used to raise
    UnicodeEncodeError, with usage or without."""
    client = HttpClient(server)
    for usage in (False, True):
        _Handler.script = [(200, _ok_payload("k: \ud83d", usage=usage))]
        with pytest.raises(ApiError) as ei:
            client.complete(REQ)
        assert ei.value.status == 200
        str(ei.value).encode("utf-8")  # the message itself is writable


def test_a_sweep_records_a_lone_surrogate_completion_and_goes_on(server, tmp_path):
    _Handler.script = [(200, _ok_payload("\ud83d", usage=False))]
    config = {"provider": "http", "endpoint": server, "models": ["m"], "runs": 1,
              "cases": ["order"], "tracks": ["J"], "max_repairs": 0, "retries": 0}
    out, log = tmp_path / "r.csv", tmp_path / "attempts.jsonl"
    run_benchmark(config, out, log)
    with open(out, newline="", encoding="utf-8") as f:
        (row,) = csv.DictReader(f)
    assert (row["attempts"], row["final_success"], row["flags"]) == ("1", "0", "all_transport")
    (record,) = map(json.loads, log.read_text(encoding="utf-8").splitlines())
    assert record["outcome"] == "transport_error"
    assert "not valid Unicode" in record["error_text"]


def test_http_non_json_body_is_api_error(server):
    _Handler.script = [(200, "<html>gateway hiccup</html>")]
    with pytest.raises(ApiError) as ei:
        HttpClient(server).complete(REQ)
    assert ei.value.status == 200
    assert len(_Handler.seen) == 1


@pytest.mark.parametrize("count", ["n/a", None, -5, True, 12.9])
def test_http_non_integer_usage_is_api_error(server, count):
    # negative, boolean and fractional counts would reach the CSV as token totals
    payload = _ok_payload()
    payload["usage"]["prompt_tokens"] = count
    _Handler.script = [(200, payload)]
    with pytest.raises(ApiError) as ei:
        HttpClient(server).complete(REQ)
    assert ei.value.status == 200


def test_http_client_error_raises_api_error(server):
    _Handler.script = [(400, {"error": "bad request"})]
    with pytest.raises(ApiError) as ei:
        HttpClient(server).complete(REQ)
    assert ei.value.status == 400
    assert len(_Handler.seen) == 1  # 400 is not retryable


def test_http_retry_exhaustion_raises(server):
    _Handler.script = [(503, "down")] * 3
    with pytest.raises(ApiError) as ei:
        HttpClient(server, retries=2, backoff=0.01).complete(REQ)
    assert ei.value.status == 503


@pytest.fixture
def waits(monkeypatch):
    """The client's sleeps, recorded instead of slept."""
    seen = []
    monkeypatch.setattr(time, "sleep", seen.append)
    return seen


@pytest.mark.parametrize("status, retry_after, wait", [
    (429, "2", 2),
    (503, "0", 0),
    (503, "999", MAX_RETRY_AFTER),
])
def test_http_retry_after_sets_the_wait(server, waits, status, retry_after, wait):
    _Handler.script = [(status, "busy", {"Retry-After": retry_after}),
                       (200, _ok_payload())]
    assert HttpClient(server, backoff=5.0).complete(REQ).content == "hello"
    assert waits == [wait]


@pytest.mark.parametrize("retry_after", [
    "Wed, 21 Oct 2015 07:28:00 GMT", "soon", "-1", "1.5", "", "\u00b2"])
def test_http_date_or_malformed_retry_after_falls_back_to_backoff(server, waits,
                                                                  retry_after):
    _Handler.script = [(429, "busy", {"Retry-After": retry_after}),
                       (200, _ok_payload())]
    HttpClient(server, backoff=4.0).complete(REQ)
    assert len(waits) == 1 and 2.0 <= waits[0] <= 4.0


def test_http_retry_after_holds_for_one_attempt_only(server, waits):
    _Handler.script = [(429, "busy", {"Retry-After": "7"}), (503, "down"),
                       (200, _ok_payload())]
    HttpClient(server, backoff=4.0).complete(REQ)
    assert waits[0] == 7 and 4.0 <= waits[1] <= 8.0


def test_http_retry_after_is_not_carried_past_a_transport_error(server, waits):
    client = HttpClient(server, backoff=4.0)
    post = client._session.post
    calls = []

    def flaky_post(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise requests.ConnectionError("reset")
        return post(*args, **kwargs)

    client._session.post = flaky_post
    _Handler.script = [(429, "busy", {"Retry-After": "1"}), (200, _ok_payload())]
    assert client.complete(REQ).content == "hello"
    assert waits[0] == 1 and 4.0 <= waits[1] <= 8.0


def test_http_backoff_is_jittered_within_half_to_full(server, waits):
    retries = 5
    for _ in range(4):
        _Handler.script = [(503, "down")] * (retries + 1)
        with pytest.raises(ApiError):
            HttpClient(server, retries=retries, backoff=1.0).complete(REQ)
    assert len(waits) == 4 * retries
    for k, wait in enumerate(waits):
        full = 2.0 ** (k % retries)
        assert full / 2 <= wait <= full
    # drawn, not fixed at either end
    assert len({w / 2.0 ** (k % retries) for k, w in enumerate(waits)}) > 1


def test_http_connection_refused_is_transport_error():
    client = HttpClient("http://127.0.0.1:1", retries=1, backoff=0.01)
    with pytest.raises(TransportError):
        client.complete(REQ)
