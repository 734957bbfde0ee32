from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logaudit
from logaudit.cli import main
from logaudit.errors import (
    BackendUnreachable,
    GatewayError,
    MissingPlaceholder,
    ScriptExhausted,
    TransportError,
)
from logaudit.gateway import (
    RETRY_MAX_ATTEMPTS,
    ChatRequest,
    Completion,
    CostLedger,
    CostRecord,
    HttpBackend,
    PromptTemplate,
    RateTable,
    ScriptEntry,
    chat,
    cost_report,
    make_scripted_backend,
)
from logaudit.synthetic import build_script, generate_demo
from oracles import NaiveScript

TEMPLATE = PromptTemplate.from_text("executor_subtask", "audit {user} for {subtask}")


def _request(prompt="hello world", name="executor_subtask", stage="subtask"):
    return ChatRequest(prompt=prompt, template_name=name, stage=stage)


# --- templates ---

def test_template_placeholder_extraction():
    assert TEMPLATE.placeholders == ("subtask", "user")


def test_template_missing_placeholder():
    with pytest.raises(MissingPlaceholder):
        TEMPLATE.render({"user": "u"})


def test_template_renders_extra_vars_ignored():
    text = TEMPLATE.render({"user": "u", "subtask": "s", "junk": 1})
    assert text == "audit u for s"


# --- scripted backend ---

def test_scripted_matches_template_name():
    backend = make_scripted_backend([("executor_subtask", "Decision: Benign")])
    completion = backend.complete(_request())
    assert completion.text == "Decision: Benign"


def test_scripted_single_use_exhaustion():
    backend = make_scripted_backend([("executor_subtask", "Decision: Benign")])
    backend.complete(_request())
    with pytest.raises(ScriptExhausted):
        backend.complete(_request())


def test_scripted_repeat_entry():
    backend = make_scripted_backend([ScriptEntry("executor_subtask", "ok", repeat=True)])
    for _ in range(5):
        assert backend.complete(_request()).text == "ok"


_PARTS = ("tpl_a", "tpl_b", "alpha", "beta", "gamma", "[stage: x]")


@settings(max_examples=200, deadline=None)
@given(
    script=st.lists(
        st.tuples(
            st.one_of(st.sampled_from(_PARTS),
                      st.lists(st.sampled_from(_PARTS), max_size=3)),
            st.booleans(),
        ),
        max_size=12,
    ),
    requests=st.lists(
        st.tuples(st.sampled_from(("tpl_a", "tpl_b")),
                  st.lists(st.sampled_from(_PARTS[2:]), max_size=4)),
        max_size=15,
    ),
)
def test_scripted_backend_matches_linear_first_match(script, requests):
    entries = [ScriptEntry(when, f"r{i}", repeat=repeat) for i, (when, repeat) in enumerate(script)]
    backend = make_scripted_backend(entries)
    oracle = NaiveScript(entries)
    for name, words in requests:
        prompt = " ".join(words)
        expected = oracle.complete(name, prompt)
        if expected is None:
            with pytest.raises(ScriptExhausted):
                backend.complete(_request(prompt=prompt, name=name))
        else:
            assert backend.complete(_request(prompt=prompt, name=name)).text == expected


def test_scripted_whitespace_token_counts():
    backend = make_scripted_backend([("hello", "a b c")])
    completion = backend.complete(_request(prompt="hello world"))
    assert completion.completion_tokens == 3
    assert completion.prompt_tokens == 2


def test_scripted_conjunction_matcher():
    backend = make_scripted_backend([
        ScriptEntry(["[stage: merge]", "verdict: malicious"], "Decision: Malicious"),
        ScriptEntry("[stage: merge]", "Decision: Benign"),
    ])
    benign = backend.complete(_request(prompt="[stage: merge] verdict: benign x2"))
    assert benign.text == "Decision: Benign"
    malicious = backend.complete(_request(prompt="[stage: merge] verdict: malicious"))
    assert malicious.text == "Decision: Malicious"


def test_scripted_first_match_wins_in_order():
    backend = make_scripted_backend([("alpha", "first"), ("alpha", "second")])
    assert backend.complete(_request(prompt="alpha beta")).text == "first"
    assert backend.complete(_request(prompt="alpha beta")).text == "second"


def test_scripted_determinism():
    def run():
        backend = make_scripted_backend([
            ScriptEntry("a", "one two"), ScriptEntry("b", "three", repeat=True)
        ])
        out = []
        for prompt in ("a x", "b y", "b z"):
            c = backend.complete(_request(prompt=prompt))
            out.append((c.text, c.prompt_tokens, c.completion_tokens))
        return out

    assert run() == run()


# --- chat retry and accounting ---

class FlakyBackend:
    name = "flaky"

    def __init__(self, failures: int, text: str = "ok one two"):
        self.failures = failures
        self.calls = 0
        self.text = text

    def complete(self, request):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransportError("boom")
        return Completion(text=self.text, prompt_tokens=10, completion_tokens=3, latency_ms=5.0)


def test_chat_retries_then_succeeds():
    ledger = CostLedger()
    backend = FlakyBackend(failures=2)
    delays: list[float] = []
    completion, record = chat(
        backend, TEMPLATE, {"user": "u", "subtask": "s"},
        stage="subtask", ledger=ledger, sleep=delays.append,
    )
    assert completion.text == "ok one two"
    assert backend.calls == 3
    assert delays == [1.0, 2.0]
    assert len(ledger) == 1


def test_chat_gives_up_after_three_attempts():
    ledger = CostLedger()
    backend = FlakyBackend(failures=5)
    delays: list[float] = []
    with pytest.raises(BackendUnreachable):
        chat(backend, TEMPLATE, {"user": "u", "subtask": "s"},
             stage="subtask", ledger=ledger, sleep=delays.append)
    assert backend.calls == 3
    assert delays == [1.0, 2.0]
    assert len(ledger) == 0


def test_chat_does_not_retry_script_exhaustion():
    ledger = CostLedger()
    backend = make_scripted_backend([])
    with pytest.raises(ScriptExhausted):
        chat(backend, TEMPLATE, {"user": "u", "subtask": "s"},
             stage="subtask", ledger=ledger, sleep=lambda _s: None)


def test_chat_records_backend_reported_tokens_exactly():
    ledger = CostLedger()
    backend = FlakyBackend(failures=0)
    _, record = chat(backend, TEMPLATE, {"user": "u", "subtask": "s"},
                     stage="subtask", ledger=ledger)
    assert record.prompt_tokens == 10
    assert record.completion_tokens == 3
    assert record.latency_ms == 5.0
    assert ledger.records() == [record]


def test_cost_rate_table_hand_example():
    rates = RateTable(input_per_1k=0.0005, output_per_1k=0.0015)
    assert abs(rates.dollars(1000, 1000) - 0.002) <= 1e-9


def test_cost_report_totals():
    records = [
        CostRecord("b", 100, 50, 0.0, 1.0, "subtask"),
        CostRecord("b", 200, 100, 0.0, 3.0, "merge"),
    ]
    report = cost_report(records)
    assert report.total_tokens == 450
    assert report.calls == 2
    assert report.per_stage["subtask"].calls == 1
    assert report.per_stage["merge"].mean_latency_ms == 3.0


def test_cost_report_empty_ledger():
    report = cost_report([])
    assert report.calls == 0
    assert report.total_tokens == 0
    assert report.dollars == 0.0
    assert report.per_stage == {}


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10_000),
            st.integers(min_value=0, max_value=10_000),
            st.sampled_from(["subtask", "merge", "rebuttal", "decompose"]),
        ),
        max_size=40,
    )
)
@settings(max_examples=50, deadline=None)
def test_ledger_conservation_property(items):
    rates = RateTable(input_per_1k=0.5, output_per_1k=1.5)
    records = [
        CostRecord("b", p, c, rates.dollars(p, c), 1.0, stage) for p, c, stage in items
    ]
    report = cost_report(records)
    assert report.prompt_tokens == sum(p for p, _c, _s in items)
    assert report.completion_tokens == sum(c for _p, c, _s in items)
    assert abs(report.dollars - sum(r.dollars for r in records)) <= 1e-9
    assert sum(s.calls for s in report.per_stage.values()) == len(records)


# --- HTTP backend with a stubbed transport ---

class FakeResponse:
    def __init__(self, status_code=200, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload or {}
        self.text = text

    def json(self):
        return self._payload


def test_http_backend_parses_completion(monkeypatch):
    captured = {}

    def post(url, json=None, headers=None, timeout=None):
        captured["url"] = url
        captured["body"] = json
        captured["headers"] = headers
        return FakeResponse(payload={
            "choices": [{"message": {"content": "Decision: Benign"}}],
            "usage": {"prompt_tokens": 42, "completion_tokens": 7},
        })

    monkeypatch.setenv("LOGAUDIT_API_KEY", "secret-token")
    backend = HttpBackend("http://llm.local/v1/chat/completions", "test-model", post=post)
    completion = backend.complete(_request(prompt="judge this"))
    assert completion.text == "Decision: Benign"
    assert completion.prompt_tokens == 42
    assert completion.completion_tokens == 7
    assert captured["url"] == "http://llm.local/v1/chat/completions"
    assert captured["body"]["model"] == "test-model"
    assert captured["body"]["temperature"] == 0
    assert captured["body"]["messages"][-1] == {"role": "user", "content": "judge this"}
    assert captured["headers"]["Authorization"] == "Bearer secret-token"


def test_http_backend_5xx_is_retryable():
    backend = HttpBackend("http://x", "m", post=lambda *a, **k: FakeResponse(status_code=503))
    with pytest.raises(TransportError):
        backend.complete(_request())


def test_http_backend_4xx_is_fatal():
    backend = HttpBackend("http://x", "m",
                          post=lambda *a, **k: FakeResponse(status_code=401, text="no"))
    with pytest.raises(GatewayError) as excinfo:
        backend.complete(_request())
    assert not isinstance(excinfo.value, TransportError)


def test_http_backend_connection_error_is_retryable():
    def post(*args, **kwargs):
        raise OSError("connection refused")

    backend = HttpBackend("http://x", "m", post=post)
    with pytest.raises(TransportError):
        backend.complete(_request())


def test_http_backend_token_fallback_when_usage_missing():
    backend = HttpBackend(
        "http://x", "m",
        post=lambda *a, **k: FakeResponse(payload={
            "choices": [{"message": {"content": "one two three"}}]
        }),
    )
    completion = backend.complete(_request(prompt="a b"))
    assert completion.prompt_tokens == 2
    assert completion.completion_tokens == 3


@pytest.mark.parametrize("usage, counted", [
    ({"prompt_tokens": 42, "completion_tokens": 7}, []),
    ({"prompt_tokens": 42}, ["one two three"]),
    ({"completion_tokens": 7}, ["a b"]),
], ids=["both-counts", "no-completion-count", "no-prompt-count"])
def test_http_backend_counts_only_the_tokens_the_server_leaves_out(monkeypatch, usage,
                                                                   counted):
    """The prompt and reply are split into whitespace tokens only for a
    count the reply's ``usage`` does not give."""
    split = []

    def counting(text):
        split.append(text)
        return len(text.split())

    monkeypatch.setattr(logaudit.gateway, "whitespace_tokens", counting)
    backend = HttpBackend("http://x", "m", post=lambda *a, **k: FakeResponse(payload={
        "choices": [{"message": {"content": "one two three"}}], "usage": usage}))
    completion = backend.complete(_request(prompt="a b"))
    assert split == counted
    assert (completion.prompt_tokens, completion.completion_tokens) == (
        usage.get("prompt_tokens", 2), usage.get("completion_tokens", 3))


class UndecodableResponse(FakeResponse):
    def json(self):
        return json.loads("<html>busy</html>")


@pytest.mark.parametrize("response", [
    UndecodableResponse(),
    FakeResponse(payload=["not", "an", "object"]),
    FakeResponse(payload={"choices": []}),
    FakeResponse(payload={"choices": [{"message": {"content": None}}]}),
    FakeResponse(payload={"choices": [{"message": {"content": "ok"}}], "usage": "many"}),
    FakeResponse(payload={"choices": [{"message": {"content": "ok"}}], "usage": [1, 2]}),
    FakeResponse(payload={"choices": [{"message": {"content": "ok"}}],
                          "usage": {"prompt_tokens": "many", "completion_tokens": 1}}),
    FakeResponse(payload={"choices": [{"message": {"content": "ok"}}],
                          "usage": {"prompt_tokens": 1, "completion_tokens": None}}),
    FakeResponse(payload={"choices": [{"message": {"content": "ok"}}],
                          "usage": {"prompt_tokens": float("inf")}}),
], ids=["body-not-json", "payload-not-an-object", "no-choice", "content-not-text",
        "usage-text", "usage-list", "prompt-tokens-text", "completion-tokens-null",
        "prompt-tokens-infinite"])
def test_http_backend_malformed_payload_is_a_gateway_error(response):
    backend = HttpBackend("http://x", "m", post=lambda *a, **k: response)
    with pytest.raises(GatewayError, match="malformed completion payload$") as excinfo:
        backend.complete(_request())
    assert not isinstance(excinfo.value, TransportError)


def test_backends_declare_whether_replies_depend_on_call_order():
    assert HttpBackend("http://x", "m", post=lambda *a, **k: None).order_free
    assert not make_scripted_backend([]).order_free


# --- HTTP backend over the standard-library transport ---

_PROXY_VARS = ("HTTP_PROXY", "http_proxy", "HTTPS_PROXY", "https_proxy",
               "ALL_PROXY", "all_proxy", "NO_PROXY", "no_proxy")


class _Handler(BaseHTTPRequestHandler):
    """``/ok`` echoes the prompt as a completion, ``/limited`` answers 429
    first and then as ``/ok``, ``/busy`` answers 503 and ``/denied`` 401;
    every POST is counted per path."""

    def do_POST(self):  # noqa: N802 (http.server naming)
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.hits[self.path] = self.server.hits.get(self.path, 0) + 1
        prompt = request["messages"][-1]["content"]
        if self.path == "/limited" and self.server.hits[self.path] == 1:
            status, body = 429, "rate limited"
        elif self.path in ("/ok", "/limited"):
            status, body = 200, json.dumps({
                "choices": [{"message": {"role": "assistant", "content": f"echo: {prompt}"}}],
                "usage": {"prompt_tokens": 5, "completion_tokens": 2},
            })
        elif self.path == "/busy":
            status, body = 503, "try later"
        else:
            status, body = 401, "invalid api key"
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args):
        pass


@contextmanager
def _serving(handler):
    """A server for ``handler`` on a free 127.0.0.1 port, in a thread."""
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    thread = threading.Thread(target=httpd.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield httpd, f"http://127.0.0.1:{httpd.server_address[1]}"
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


@pytest.fixture
def server(monkeypatch):
    """A local chat-completions server; proxy variables are cleared so calls
    go to it directly unless a test sets them."""
    for name in _PROXY_VARS:
        monkeypatch.delenv(name, raising=False)
    with _serving(_Handler) as (httpd, url):
        httpd.hits = {}
        yield httpd, url


def _closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_http_transport_200_gives_a_completion(server):
    _httpd, url = server
    completion = HttpBackend(f"{url}/ok", "m").complete(_request(prompt="judge this"))
    assert completion.text == "echo: judge this"
    assert (completion.prompt_tokens, completion.completion_tokens) == (5, 2)
    assert completion.latency_ms > 0


def test_http_transport_503_is_retried_then_unreachable(server):
    httpd, url = server
    backend = HttpBackend(f"{url}/busy", "m")
    with pytest.raises(TransportError, match="HTTP 503"):
        backend.complete(_request())
    with pytest.raises(BackendUnreachable):
        chat(backend, TEMPLATE, {"user": "u", "subtask": "s"}, stage="subtask",
             ledger=CostLedger(), sleep=lambda _s: None)
    assert httpd.hits["/busy"] == 1 + RETRY_MAX_ATTEMPTS


def test_http_transport_429_is_retried(server):
    httpd, url = server
    ledger, delays = CostLedger(), []
    completion, _ = chat(HttpBackend(f"{url}/limited", "m"), TEMPLATE,
                         {"user": "u", "subtask": "s"}, stage="subtask", ledger=ledger,
                         sleep=delays.append)
    assert completion.text.startswith("echo: ")
    assert httpd.hits["/limited"] == 2 and len(delays) == 1
    assert len(ledger) == 1


def test_http_transport_401_is_a_gateway_error_with_the_body(server):
    _httpd, url = server
    with pytest.raises(GatewayError, match="HTTP 401: invalid api key") as excinfo:
        HttpBackend(f"{url}/denied", "m").complete(_request())
    assert not isinstance(excinfo.value, TransportError)


def test_http_transport_closed_port_is_retryable(server):
    with pytest.raises(TransportError):
        HttpBackend(f"http://127.0.0.1:{_closed_port()}/ok", "m").complete(_request())


def test_http_transport_honours_proxy_and_no_proxy(server, monkeypatch):
    _httpd, url = server
    monkeypatch.setenv("HTTP_PROXY", f"http://127.0.0.1:{_closed_port()}")
    # The proxy is used: it is dead, so the call fails...
    with pytest.raises(TransportError):
        HttpBackend(f"{url}/ok", "m").complete(_request())
    # ...unless NO_PROXY lists the host.
    monkeypatch.setenv("NO_PROXY", "localhost,127.0.0.1")
    assert HttpBackend(f"{url}/ok", "m").complete(_request(prompt="hi")).text == "echo: hi"


def test_http_detect_never_imports_requests(tmp_path):
    """A whole detect over HTTP, in a fresh interpreter, against a local
    server that answers from the demo script (whose detect entries all
    repeat, so every reply depends on the prompt alone)."""
    generate_demo(tmp_path)
    config_path = tmp_path / "config.json"
    assert main(["ingest", "--config", str(config_path)]) == 0
    assert main(["forge", "--config", str(config_path)]) == 0
    script = make_scripted_backend([ScriptEntry(**entry) for entry in build_script()])

    class DemoHandler(BaseHTTPRequestHandler):
        def do_POST(self):  # noqa: N802
            request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            prompt = request["messages"][-1]["content"]
            text = script.complete(ChatRequest(prompt, "", "")).text
            data = json.dumps({"choices": [{"message": {"content": text}}]}).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, format, *args):
            pass

    with _serving(DemoHandler) as (_httpd, url):
        doc = json.loads(config_path.read_text())
        doc["backend"] = {"type": "http", "model": "m", "endpoint": f"{url}/v1"}
        http_config = tmp_path / "http.json"
        http_config.write_text(json.dumps(doc))
        env = {k: v for k, v in os.environ.items() if k not in _PROXY_VARS}
        src = str(Path(logaudit.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        code = ("import sys, logaudit\n"
                "from logaudit.cli import main\n"
                "status = main(['detect', '--config', sys.argv[1]])\n"
                "print(status, 'requests' in sys.modules)\n")
        run = subprocess.run([sys.executable, "-c", code, str(http_config)], env=env,
                             capture_output=True, text=True, timeout=120)
    assert run.stdout.splitlines()[-1] == "0 False", run.stderr
    conclusions = json.loads((tmp_path / "out" / "conclusions.json").read_text())
    assert sorted(u for u, c in conclusions["users"].items()
                  if c["verdict"] == "malicious") == ["KEYL0001", "LEAK0001"]
