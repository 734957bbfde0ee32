"""Chat-completion gateway: one abstraction over a live HTTP backend and a
deterministic scripted backend, with retries and cost/latency accounting.

Every completion flows through :func:`chat`, which appends one CostRecord to
the run ledger; no call path may bypass it.
"""

from __future__ import annotations

import json
import logging
import os
import string
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

from .errors import (
    BackendUnreachable,
    GatewayError,
    MissingPlaceholder,
    ScriptExhausted,
    TransportError,
)

logger = logging.getLogger(__name__)

# Transport retry policy: base 1s, doubling, at most 3 attempts in total.
RETRY_BASE_SECONDS = 1.0
RETRY_FACTOR = 2.0
RETRY_MAX_ATTEMPTS = 3


def whitespace_tokens(text: str) -> int:
    return len(text.split())


@dataclass(frozen=True)
class PromptTemplate:
    """Named system prompt with required placeholders."""

    name: str
    system_text: str
    placeholders: tuple[str, ...]

    @classmethod
    def from_text(cls, name: str, system_text: str) -> "PromptTemplate":
        names = tuple(
            sorted({f for _, f, _, _ in string.Formatter().parse(system_text) if f})
        )
        return cls(name=name, system_text=system_text, placeholders=names)

    def render(self, variables: dict[str, object]) -> str:
        missing = [p for p in self.placeholders if p not in variables]
        if missing:
            raise MissingPlaceholder(f"template {self.name!r} missing variables {missing}")
        return self.system_text.format(**{k: variables[k] for k in self.placeholders})


@dataclass(frozen=True)
class Completion:
    text: str
    prompt_tokens: int
    completion_tokens: int
    latency_ms: float


@dataclass(frozen=True)
class CostRecord:
    backend_name: str
    prompt_tokens: int
    completion_tokens: int
    dollars: float
    latency_ms: float
    stage: str
    note: str = ""


@dataclass(frozen=True)
class RateTable:
    """Dollar rates per 1,000 tokens."""

    input_per_1k: float = 0.0
    output_per_1k: float = 0.0

    def dollars(self, prompt_tokens: int, completion_tokens: int) -> float:
        return (
            prompt_tokens * self.input_per_1k + completion_tokens * self.output_per_1k
        ) / 1000.0


@dataclass(frozen=True)
class ChatRequest:
    prompt: str
    template_name: str
    stage: str
    seed_hint: int | None = None


class Backend(Protocol):
    """A completion source. ``order_free`` is true when a reply depends on
    the request alone, not on which calls came before it, so independent
    calls may be made concurrently."""

    name: str
    order_free: bool

    def complete(self, request: ChatRequest) -> Completion:
        ...


class CostLedger:
    """Append-only sink of CostRecords, priced at the run's ``rates``;
    appends are atomic."""

    def __init__(self, rates: RateTable | None = None) -> None:
        self.rates = rates or RateTable()
        self._records: list[CostRecord] = []
        self._lock = threading.Lock()

    def append(self, record: CostRecord) -> None:
        with self._lock:
            self._records.append(record)

    def extend(self, records: Sequence[CostRecord]) -> None:
        with self._lock:
            self._records.extend(records)

    def records(self) -> list[CostRecord]:
        with self._lock:
            return list(self._records)

    def fresh(self) -> "CostLedger":
        """An empty ledger at the same rates."""
        return CostLedger(self.rates)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


# ---------------------------------------------------------------------------
# Scripted backend
# ---------------------------------------------------------------------------

@dataclass
class ScriptEntry:
    """One canned response.

    ``when`` matches a request if it equals the template name or appears as a
    substring of the rendered prompt; a sequence means every part must match.
    Entries are single-use unless ``repeat`` is set.
    """

    when: str | Sequence[str]
    response: str
    repeat: bool = False

    @property
    def parts(self) -> tuple[str, ...]:
        return (self.when,) if isinstance(self.when, str) else tuple(self.when)


def _part_matches(part: str, request: ChatRequest) -> bool:
    return part == request.template_name or part in request.prompt


class ScriptedBackend:
    """Deterministic backend replaying an ordered script.

    Each call consumes the first unconsumed matching entry. Token counts are
    whitespace-token counts of the prompt and response.

    Entries are grouped by their first ``when`` part (None for an empty
    ``when``), so a call tests each distinct first part once and scans only
    the groups it matches.

    Not order-free: two identical prompts get different replies by the
    order in which they arrive.
    """

    order_free = False

    def __init__(self, entries: Sequence[ScriptEntry], name: str = "scripted") -> None:
        self.name = name
        self._entries = list(entries)
        self._rest = [entry.parts[1:] for entry in self._entries]
        # Unconsumed script positions per first part, ascending.
        self._groups: dict[str | None, list[int]] = {}
        for idx, entry in enumerate(self._entries):
            parts = entry.parts
            self._groups.setdefault(parts[0] if parts else None, []).append(idx)
        self._lock = threading.Lock()

    def complete(self, request: ChatRequest) -> Completion:
        with self._lock:
            best: tuple[int, list[int]] | None = None
            for first, group in self._groups.items():
                if first is not None and not _part_matches(first, request):
                    continue
                for idx in group:
                    if best is not None and idx > best[0]:
                        break
                    if all(_part_matches(p, request) for p in self._rest[idx]):
                        best = (idx, group)
                        break
            if best is not None:
                idx, group = best
                entry = self._entries[idx]
                if not entry.repeat:
                    group.remove(idx)
                return Completion(
                    text=entry.response,
                    prompt_tokens=whitespace_tokens(request.prompt),
                    completion_tokens=whitespace_tokens(entry.response),
                    latency_ms=0.0,
                )
        raise ScriptExhausted(
            f"no unconsumed script entry matches stage {request.stage!r} "
            f"(template {request.template_name!r})"
        )


def make_scripted_backend(
    script: Sequence[ScriptEntry | tuple[str, str]], name: str = "scripted"
) -> ScriptedBackend:
    entries = [
        item if isinstance(item, ScriptEntry) else ScriptEntry(when=item[0], response=item[1])
        for item in script
    ]
    return ScriptedBackend(entries, name=name)


# ---------------------------------------------------------------------------
# HTTP backend (OpenAI-compatible chat completions)
# ---------------------------------------------------------------------------

class HttpReply:
    """The parts of an HTTP reply that :class:`HttpBackend` reads."""

    def __init__(self, status_code: int, body: bytes) -> None:
        self.status_code = status_code
        self.body = body

    @property
    def text(self) -> str:
        return self.body.decode("utf-8", "replace")

    def json(self) -> object:
        return json.loads(self.body)


def urllib_post(opener: urllib.request.OpenerDirector) -> Callable[..., HttpReply]:
    """A ``post(url, json=, headers=, timeout=)`` over one urllib opener.
    An HTTP error status is returned as a reply, not raised."""
    dumps = json.dumps  # the ``json`` parameter hides the module inside ``post``

    def post(url: str, json: object, headers: dict[str, str], timeout: float) -> HttpReply:
        data = dumps(json).encode("utf-8")
        request = urllib.request.Request(url, data=data, headers=headers, method="POST")
        try:
            with opener.open(request, timeout=timeout) as response:
                return HttpReply(response.status, response.read())
        except urllib.error.HTTPError as err:
            with err:
                return HttpReply(err.code, err.read())

    return post


class HttpBackend:
    """POSTs to an OpenAI-compatible chat-completions endpoint.

    The bearer token is read from ``api_key_env`` at call time. Temperature
    is fixed at 0 for reproducibility. 5xx and transport failures raise
    TransportError (retryable); other HTTP errors and replies that are not
    a completion raise GatewayError.

    Requests go through one ``urllib.request`` opener, built with the
    backend, which honours ``HTTP_PROXY``/``HTTPS_PROXY`` and ``NO_PROXY``.
    ``post`` replaces the transport (tests).

    Order-free: with temperature 0 and a fixed seed, the reply depends on
    the prompt alone.
    """

    order_free = True

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key_env: str = "LOGAUDIT_API_KEY",
        name: str | None = None,
        timeout: float = 60.0,
        post: Callable | None = None,
    ) -> None:
        self.endpoint = endpoint
        self.model = model
        self.api_key_env = api_key_env
        self.name = name or model
        self.timeout = timeout
        self._post = post or urllib_post(urllib.request.build_opener())

    def complete(self, request: ChatRequest) -> Completion:
        body: dict[str, object] = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": 0,
        }
        if request.seed_hint is not None:
            body["seed"] = request.seed_hint
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"

        started = time.monotonic()
        try:
            response = self._post(self.endpoint, json=body, headers=headers, timeout=self.timeout)
        except Exception as exc:  # connection-level failure
            raise TransportError(f"{self.name}: {exc}") from exc
        latency_ms = (time.monotonic() - started) * 1000.0

        status = getattr(response, "status_code", 0)
        # A server error or a rate limit is transient: ``chat`` retries it.
        if status >= 500 or status == 429:
            raise TransportError(f"{self.name}: HTTP {status}")
        if status >= 400:
            raise GatewayError(f"{self.name}: HTTP {status}: {getattr(response, 'text', '')[:200]}")

        # Anything but {"choices": [{"message": {"content": str}}], "usage":
        # {numeric counts}} (usage optional) is a malformed payload.
        try:
            payload = response.json()
            text = payload["choices"][0]["message"]["content"]
            if not isinstance(text, str):
                raise TypeError(f"content is {type(text).__name__}")
            usage = payload.get("usage") or {}
            if not isinstance(usage, dict):
                raise TypeError(f"usage is {type(usage).__name__}")
            # Whitespace tokens are counted only where the server gives no count.
            prompt_tokens = int(usage["prompt_tokens"] if "prompt_tokens" in usage
                                else whitespace_tokens(request.prompt))
            completion_tokens = int(usage["completion_tokens"] if "completion_tokens" in usage
                                    else whitespace_tokens(text))
        except (ValueError, LookupError, TypeError, AttributeError, OverflowError) as exc:
            raise GatewayError(f"{self.name}: malformed completion payload") from exc
        return Completion(
            text=text,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            latency_ms=latency_ms,
        )


# ---------------------------------------------------------------------------
# chat + cost reporting
# ---------------------------------------------------------------------------

def chat(
    backend: Backend,
    template: PromptTemplate,
    variables: dict[str, object],
    *,
    stage: str,
    ledger: CostLedger,
    note: str = "",
    seed_hint: int | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[Completion, CostRecord]:
    """Render, call the backend with transport retries, and record the cost
    at the ledger's rates."""
    prompt = template.render(variables)
    request = ChatRequest(
        prompt=prompt,
        template_name=template.name,
        stage=stage,
        seed_hint=seed_hint,
    )
    last_error: TransportError | None = None
    for attempt in range(RETRY_MAX_ATTEMPTS):
        try:
            completion = backend.complete(request)
            break
        except TransportError as exc:
            last_error = exc
            if attempt + 1 < RETRY_MAX_ATTEMPTS:
                delay = RETRY_BASE_SECONDS * (RETRY_FACTOR ** attempt)
                logger.warning("transport failure (attempt %d): %s; retrying in %.0fs",
                               attempt + 1, exc, delay)
                sleep(delay)
    else:
        raise BackendUnreachable(
            f"{backend.name}: {RETRY_MAX_ATTEMPTS} transport attempts failed: {last_error}"
        )

    record = CostRecord(
        backend_name=backend.name,
        prompt_tokens=completion.prompt_tokens,
        completion_tokens=completion.completion_tokens,
        dollars=ledger.rates.dollars(completion.prompt_tokens, completion.completion_tokens),
        latency_ms=completion.latency_ms,
        stage=stage,
        note=note,
    )
    ledger.append(record)
    return completion, record


@dataclass
class StageStats:
    calls: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    dollars: float = 0.0
    latency_ms: float = 0.0

    @property
    def mean_tokens(self) -> float:
        total = self.prompt_tokens + self.completion_tokens
        return total / self.calls if self.calls else 0.0

    @property
    def mean_dollars(self) -> float:
        return self.dollars / self.calls if self.calls else 0.0

    @property
    def mean_latency_ms(self) -> float:
        return self.latency_ms / self.calls if self.calls else 0.0


@dataclass
class CostReport:
    calls: int
    prompt_tokens: int
    completion_tokens: int
    dollars: float
    latency_ms: float
    per_stage: dict[str, StageStats] = field(default_factory=dict)

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


def cost_report(records: Sequence[CostRecord]) -> CostReport:
    """Exact totals plus per-stage means over a ledger."""
    report = CostReport(calls=0, prompt_tokens=0, completion_tokens=0, dollars=0.0, latency_ms=0.0)
    for record in records:
        report.calls += 1
        report.prompt_tokens += record.prompt_tokens
        report.completion_tokens += record.completion_tokens
        report.dollars += record.dollars
        report.latency_ms += record.latency_ms
        stats = report.per_stage.setdefault(record.stage, StageStats())
        stats.calls += 1
        stats.prompt_tokens += record.prompt_tokens
        stats.completion_tokens += record.completion_tokens
        stats.dollars += record.dollars
        stats.latency_ms += record.latency_ms
    return report
