"""Executors: run each audit check with its tool, judge the outcome through
the backend, and fold the per-check evidence into a verdict.

Verdicts are always forced back into line with the evidence: a result set is
malicious iff its anomaly set is non-empty. When a backend's stated Decision
contradicts the flagged evidence, the verdict is corrected and the
contradiction recorded — that correction is the whole point of the debate
stage existing downstream.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence, TypeVar

from .decomposer import SubTask
from .errors import InsufficientHistory, MissingDecision, ResponseUnparseable
from .forge import ToolSpec
from .gateway import Backend, CostLedger, PromptTemplate, chat
from .logstore import LogEntry, UserSequence
from .prompts import EXECUTOR_SUBTASK
from .runtime import ListCatalog, ToolResult, invoke

logger = logging.getLogger(__name__)

T = TypeVar("T")

VERDICT_BENIGN = "benign"
VERDICT_MALICIOUS = "malicious"

DEFAULT_EXCERPT_BUDGET = 50

NO_ACTIVITY = "no activity of the inspected types for this user"
TOOL_UNAVAILABLE = "(tool unavailable)"

_KEY_LINE_RE = re.compile(r"^\s*\**(?P<key>[A-Za-z][\w /-]*?)\**\s*:\s*(?P<value>.*)$")


@dataclass(frozen=True)
class SubTaskResult:
    """One executor's judgment on one audit check."""

    subtask_id: str
    tool_rendered: str
    finding: str
    flagged: frozenset[str] = frozenset()
    suspicious: bool = False


@dataclass
class ExecutorResultSet:
    """An executor's per-check findings plus its overall verdict."""

    executor_id: str
    results: list[SubTaskResult]
    anomalies: frozenset[str]
    basis: str
    verdict: str
    round: int = 0
    correction: str | None = None


def apply_evidence_check(verdict: str, anomalies: frozenset[str]) -> tuple[str, str | None]:
    """Force verdict = malicious iff anomalies is non-empty; returns the
    corrected verdict and a note when a correction was applied."""
    consistent = VERDICT_MALICIOUS if anomalies else VERDICT_BENIGN
    if verdict == consistent:
        return verdict, None
    note = (
        f"stated decision {verdict!r} contradicts the evidence "
        f"({len(anomalies)} flagged entries); corrected to {consistent!r}"
    )
    logger.warning("evidence-consistency correction: %s", note)
    return consistent, note


# ---------------------------------------------------------------------------
# Structured response parsing
# ---------------------------------------------------------------------------

@dataclass
class StructuredResponse:
    fields: dict[str, str]
    decision: str
    suspicious_items: list[str]
    basis: str
    flagged: list[str] = field(default_factory=list)


def parse_key_lines(text: str) -> list[tuple[str, str]]:
    pairs = []
    for line in text.splitlines():
        match = _KEY_LINE_RE.match(line)
        if match:
            pairs.append((match.group("key").strip(), match.group("value").strip()))
    return pairs


def _normalize_decision(value: str) -> str | None:
    lowered = value.strip().lower()
    if lowered.startswith(VERDICT_MALICIOUS):
        return VERDICT_MALICIOUS
    if lowered.startswith(VERDICT_BENIGN):
        return VERDICT_BENIGN
    return None


def _split_ids(value: str) -> list[str]:
    return [p for p in re.split(r"[,\s]+", value.strip()) if p and p.lower() not in ("none", "(none)")]


def parse_structured_response(text: str) -> StructuredResponse:
    """Line-oriented parse of ``Key: value`` pairs.

    Decision is mandatory and normalized to benign/malicious; duplicate
    Decision lines keep the last one (with a warning). Unknown keys are
    preserved in the fields map.
    """
    fields: dict[str, str] = {}
    decision: str | None = None
    decision_count = 0
    suspicious_items: list[str] = []
    basis = ""
    flagged: list[str] = []

    for key, value in parse_key_lines(text):
        lowered = key.lower()
        if lowered == "decision":
            decision_count += 1
            parsed = _normalize_decision(value)
            if parsed is not None:
                decision = parsed
        elif lowered == "suspicious":
            suspicious_items = [s.strip() for s in re.split(r"[;]", value) if s.strip()]
        elif lowered in ("basis of judgment", "basis"):
            basis = value
        elif lowered == "flagged":
            flagged = _split_ids(value)
        else:
            fields[key] = value

    if decision_count > 1:
        logger.warning("multiple Decision lines in response; keeping the last one")
    if decision is None:
        raise MissingDecision("no usable Decision line in response")
    return StructuredResponse(
        fields=fields,
        decision=decision,
        suspicious_items=suspicious_items,
        basis=basis,
        flagged=flagged,
    )


def parse_decision_reply(text: str) -> StructuredResponse | None:
    """:func:`parse_structured_response`, or None when the Decision is missing."""
    try:
        return parse_structured_response(text)
    except MissingDecision:
        return None


def pin_to_evidence(
    parsed: StructuredResponse, user: UserSequence, fallback: frozenset[str]
) -> tuple[frozenset[str], str, str | None]:
    """Hold a decision reply to evidence: its Flagged ids that are the
    user's own, or ``fallback`` when a Malicious reply names none. Returns
    the anomaly set and the evidence-checked verdict and correction."""
    anomalies = frozenset(i for i in parsed.flagged if i in user.entry_ids)
    if len(anomalies) < len(set(parsed.flagged)):
        logger.warning("%s: dropped flagged ids not in this user's entries", user.user)
    if not anomalies and parsed.decision == VERDICT_MALICIOUS:
        anomalies = fallback
    verdict, correction = apply_evidence_check(parsed.decision, anomalies)
    return anomalies, verdict, correction


def ask(
    backend: Backend,
    template: PromptTemplate,
    variables: dict[str, object],
    parse: Callable[[str], T | None],
    *,
    stage: str,
    note: str,
    ledger: CostLedger,
    seed_hint: int | None = None,
    retry_variables: dict[str, object] | None = None,
) -> T | None:
    """Ask the backend, parse the reply, and re-prompt once if it does not
    parse. The second call renders ``retry_variables`` (default: the same
    variables) and its ledger note gains a ``:reprompt`` suffix. Returns the
    parsed reply, or None when neither reply parses; each caller decides
    what a double failure means."""
    attempts = ((variables, note), (retry_variables or variables, f"{note}:reprompt"))
    for attempt_variables, attempt_note in attempts:
        completion, _ = chat(
            backend, template, attempt_variables,
            stage=stage, ledger=ledger, note=attempt_note, seed_hint=seed_hint,
        )
        parsed = parse(completion.text)
        if parsed is not None:
            return parsed
    return None


# ---------------------------------------------------------------------------
# Per-check execution
# ---------------------------------------------------------------------------

def select_focus_day(user: UserSequence, subtask: SubTask) -> str | None:
    """The ISO date under audit: the user's busiest day for the check's
    activity types (earliest on ties), or None when no such activity exists."""
    types = subtask.activity_types
    counts = Counter(entry.day for entry in user.entries if entry.activity in types)
    if not counts:
        return None
    return max(sorted(counts), key=lambda d: counts[d])


def render_excerpt(entries: Sequence[LogEntry], budget: int) -> str:
    lines = []
    for entry in entries[:budget]:
        payload = ", ".join(f"{k}={v}" for k, v in sorted(entry.payload.items()))
        lines.append(
            f"  {entry.entry_id} | {entry.timestamp} | {entry.activity.value} "
            f"| host={entry.host}" + (f" | {payload}" if payload else "")
        )
    return "\n".join(lines) if lines else "  (none)"


def _excerpt_entries(user: UserSequence, subtask: SubTask, focus: str, budget: int) -> list[LogEntry]:
    relevant = [e for e in user.entries if e.activity in subtask.activity_types]
    if len(relevant) <= budget:
        return relevant
    # Keep the audited day in view, then fill with the most recent entries.
    on_focus = [e for e in relevant if e.day == focus]
    rest = [e for e in relevant if e.day != focus]
    fill = rest[-(budget - len(on_focus)):] if budget > len(on_focus) else []
    picked = sorted(on_focus[:budget] + fill, key=lambda e: e.timestamp)
    return picked


@dataclass(frozen=True)
class PreparedCheck:
    """One check as both executors see it for one user: the focus day (None
    when the user has no activity of the check's types), the tool outcome
    (rendered output and result) and the rendered activity excerpt."""

    subtask: SubTask
    focus: str | None
    tool: tuple[str, ToolResult | None]
    excerpt_count: int = 0
    excerpt: str = ""


def prepare_check(
    subtask: SubTask, user: UserSequence, focus: str | None,
    tool: tuple[str, ToolResult | None], budget: int,
) -> PreparedCheck:
    """Render the check's excerpt once, for both executors."""
    if focus is None:
        return PreparedCheck(subtask, None, tool)
    entries = _excerpt_entries(user, subtask, focus, budget)
    return PreparedCheck(subtask, focus, tool, len(entries), render_excerpt(entries, budget))


def _parse_subtask_reply(text: str) -> tuple[str, bool, list[str]] | None:
    finding = None
    suspicious = None
    flagged: list[str] = []
    for key, value in parse_key_lines(text):
        lowered = key.lower()
        if lowered == "finding":
            finding = value
        elif lowered == "suspicious":
            word = value.strip().lower()
            if word.startswith(("y", "true")):
                suspicious = True
            elif word.startswith(("n", "false")):
                suspicious = False
        elif lowered == "flagged":
            flagged = _split_ids(value)
    if finding is None or suspicious is None:
        return None
    return finding, suspicious, flagged


def bind_and_invoke(
    spec: ToolSpec, user: UserSequence, focus: str | None, lists: ListCatalog | None,
) -> tuple[str, ToolResult | None]:
    """Invoke a tool on one user's sequence: ``user`` binds to the user and
    ``day`` to the caller's focus day. A tool with any other parameter, or with a
    ``day`` and no focus day, is not invocable. Returns the rendered output
    and the result (None when the tool did not run or the user's history
    is too short)."""
    params: dict[str, str] = {}
    for name, _semantic in spec.params:
        if name == "user":
            params[name] = user.user
        elif name == "day" and focus is not None:
            params[name] = focus
        else:
            return "(tool not invocable: no relevant activity to bind)", None
    try:
        result = invoke(spec, params, {user.user: user}, lists)
    except InsufficientHistory as exc:
        return f"(no usable history: {exc})", None
    return result.rendered, result


def run_subtask(
    executor_id: str,
    check: PreparedCheck,
    user: UserSequence,
    backend: Backend,
    *,
    ledger: CostLedger,
    template: PromptTemplate = EXECUTOR_SUBTASK,
    seed_hint: int | None = None,
) -> SubTaskResult:
    """Ask the backend to judge one prepared check from the tool's outcome
    and the user's excerpt, and parse the reply.

    Checks whose activity types are absent from the user's sequence are not
    sent to the backend at all: they report "no activity" and can never flag
    anomalies. Backend-flagged ids are validated against the user's own
    entries; when a suspicious judgment names no valid ids, the tool's own
    evidence is used instead.
    """
    subtask = check.subtask
    rendered, tool_result = check.tool
    if check.focus is None:
        # Vacuous check: nothing of these types to audit for this user.
        return SubTaskResult(
            subtask_id=subtask.id,
            tool_rendered=rendered,
            finding=NO_ACTIVITY,
            flagged=frozenset(),
            suspicious=False,
        )

    signal = tool_result.verdict_hint if tool_result is not None else None
    variables = {
        "user": user.user,
        "subtask_description": subtask.description,
        "tool_output": rendered,
        "tool_signal": signal or "none",
        "excerpt_count": check.excerpt_count,
        "activity_excerpt": check.excerpt,
    }

    parsed = ask(
        backend, template, variables, _parse_subtask_reply,
        stage="subtask", note=f"{executor_id}:{subtask.id}",
        ledger=ledger, seed_hint=seed_hint,
        retry_variables={
            **variables,
            "subtask_description": subtask.description
            + " (Reply with the mandated Finding/Suspicious lines.)",
        },
    )
    if parsed is None:
        raise ResponseUnparseable(
            f"check {subtask.id}: mandatory Finding/Suspicious lines absent after re-prompt"
        )
    finding, suspicious, raw_ids = parsed

    flagged = frozenset(i for i in raw_ids if i in user.entry_ids)
    dropped = [i for i in raw_ids if i not in flagged]
    if dropped:
        logger.warning("%s/%s: dropped %d flagged ids not in this user's entries",
                       executor_id, subtask.id, len(dropped))
    if suspicious and not flagged and tool_result is not None:
        flagged = frozenset(tool_result.evidence)
    if not suspicious:
        flagged = frozenset()

    return SubTaskResult(
        subtask_id=subtask.id,
        tool_rendered=rendered,
        finding=finding,
        flagged=flagged,
        suspicious=suspicious,
    )


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------

def render_findings(results: Sequence[SubTaskResult]) -> str:
    lines = []
    for result in results:
        mark = "yes" if result.suspicious else "no"
        lines.append(f"- [{result.subtask_id}] suspicious={mark}: {result.finding}")
        lines.append(f"    tool: {result.tool_rendered}")
        if result.flagged:
            lines.append(f"    flagged: {', '.join(sorted(result.flagged))}")
    return "\n".join(lines)


def _deterministic_basis(results: Sequence[SubTaskResult]) -> str:
    suspicious = [r.subtask_id for r in results if r.suspicious]
    if not suspicious:
        return "no suspicious behavior detected across the audit checks"
    return "suspicious findings from: " + ", ".join(suspicious)


def synthesize(executor_id: str, results: Sequence[SubTaskResult]) -> ExecutorResultSet:
    """Fold per-check results into an opening (round 0) verdict: the
    evidence fold, malicious iff the union of flagged anomalies is non-empty."""
    anomalies = frozenset().union(*(r.flagged for r in results)) if results else frozenset()
    return ExecutorResultSet(
        executor_id=executor_id,
        results=list(results),
        anomalies=anomalies,
        basis=_deterministic_basis(results),
        verdict=VERDICT_MALICIOUS if anomalies else VERDICT_BENIGN,
    )


def render_result_set(result_set: ExecutorResultSet, label: str) -> str:
    """Render a result set for debate prompts."""
    lines = [
        f"executor: {label}",
        f"round: {result_set.round}",
        f"verdict: {result_set.verdict}",
        f"anomalous entries: {', '.join(sorted(result_set.anomalies)) or '(none)'}",
        f"basis: {result_set.basis}",
        "findings:",
        render_findings(result_set.results) or "  (none)",
    ]
    return "\n".join(lines)


def rebuild_results_from_anomalies(
    base: Sequence[SubTaskResult],
    anomalies: frozenset[str],
    attribution: Mapping[str, str],
) -> list[SubTaskResult]:
    """Redistribute an updated anomaly set over per-check results.

    Each anomaly id goes to the check it was originally flagged by (own or
    opposing side); unattributable ids fall to the first check. Suspicion
    follows the evidence.
    """
    per_check: dict[str, set[str]] = {r.subtask_id: set() for r in base}
    for entry_id in anomalies:
        check = attribution.get(entry_id)
        if check not in per_check:
            check = base[0].subtask_id if base else None
        if check is not None:
            per_check[check].add(entry_id)
    rebuilt = []
    for result in base:
        ids = frozenset(per_check.get(result.subtask_id, ()))
        rebuilt.append(replace(result, flagged=ids, suspicious=bool(ids)))
    return rebuilt
