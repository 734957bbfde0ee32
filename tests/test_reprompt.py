"""Every executor call shares one ask -> parse -> re-prompt path; each stage
keeps its own outcome when both replies are garbled."""

from __future__ import annotations

import pytest

from conftest import simple_subtasks
from logaudit.debate import merge_conclusion, rebut
from logaudit.errors import ResponseUnparseable
from logaudit.executor import (
    DEFAULT_EXCERPT_BUDGET,
    TOOL_UNAVAILABLE,
    ExecutorResultSet,
    SubTaskResult,
    prepare_check,
    run_subtask,
    select_focus_day,
)
from logaudit.gateway import ScriptEntry, make_scripted_backend
from logaudit.pipeline import (
    DetectContext,
    _one_shot_findings,
    _one_shot_set,
    _prepared_checks,
    _vanilla_conclusion,
)

GARBLED = "mumble"
DECISION = "Basis of Judgment: parsed on the second try\nFlagged: WEB-1\nDecision: Malicious"
WEBSITE_CHECK = simple_subtasks().subtasks[1]


def _sets() -> tuple[ExecutorResultSet, ExecutorResultSet]:
    own = ExecutorResultSet(
        "executor_a",
        [SubTaskResult("website-legitimacy", "tool", "fine", frozenset(), False)],
        frozenset(), "nothing found", "benign",
    )
    other = ExecutorResultSet(
        "executor_b",
        [SubTaskResult("website-legitimacy", "tool", "untrusted", frozenset({"WEB-1"}), True)],
        frozenset({"WEB-1"}), "untrusted visit", "malicious",
    )
    return own, other


def _subtask(backend, store, ledger):
    user = store.users["UX"]
    check = prepare_check(WEBSITE_CHECK, user, select_focus_day(user, WEBSITE_CHECK),
                          (TOOL_UNAVAILABLE, None), DEFAULT_EXCERPT_BUDGET)
    return run_subtask("executor_a", check, user, backend, ledger=ledger, seed_hint=1)


def _rebuttal(backend, store, ledger):
    own, other = _sets()
    return rebut("executor_a", own, other, backend, user=store.users["UX"], ledger=ledger,
                 seed_hint=1)


def _merge(backend, store, ledger):
    a, b = _sets()
    return merge_conclusion(a, b, backend, user=store.users["UX"], rounds_used=0,
                            consensus=False, ledger=ledger)


def _context(backend, store, ledger) -> DetectContext:
    return DetectContext(subtasks=simple_subtasks(), tools={}, store=store,
                         backend=backend, ledger=ledger)


def _one_shot(backend, store, ledger):
    ctx = _context(backend, store, ledger)
    user = store.users["UX"]
    findings = _one_shot_findings(ctx, _prepared_checks(ctx, user))
    return _one_shot_set(ctx, "executor_a", user, 1, findings)


def _vanilla(backend, store, ledger):
    return _vanilla_conclusion(_context(backend, store, ledger), store.users["UX"])


def _raises(run, backend, store, ledger):
    with pytest.raises(ResponseUnparseable):
        run(backend, store, ledger)


def _carries_prior_set_forward(run, backend, store, ledger):
    result = run(backend, store, ledger)
    own, _other = _sets()
    assert result.correction == "rebuttal unparseable; prior set carried forward"
    assert (result.verdict, result.anomalies, result.round) == (own.verdict, own.anomalies, 1)


def _folds_both_sets(run, backend, store, ledger):
    result = run(backend, store, ledger)
    assert result.correction == "merge unparseable; deterministic fold of both result sets"
    assert (result.verdict, result.anomalies) == ("malicious", frozenset({"WEB-1"}))


# stage marker, the stage's call, the valid reply, double-failure outcome
STAGES = {
    "subtask": ("[stage: subtask]", _subtask,
                "Finding: untrusted site\nSuspicious: yes\nFlagged: WEB-1", _raises),
    "rebuttal": ("[stage: rebuttal]", _rebuttal, DECISION, _carries_prior_set_forward),
    "merge": ("[stage: merge]", _merge, DECISION, _folds_both_sets),
    "one-shot": ("[stage: one-shot]", _one_shot, DECISION, _raises),
    "vanilla": ("[stage: vanilla]", _vanilla, DECISION, _raises),
}


class RecordingBackend:
    """Scripted backend that keeps every request it serves."""

    def __init__(self, entries):
        self._inner = make_scripted_backend(entries)
        self.name = self._inner.name
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        return self._inner.complete(request)


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_garbled_reply_is_reprompted_once(stage, burst_store, ledger):
    marker, run, valid, _double = STAGES[stage]
    backend = RecordingBackend([ScriptEntry(marker, GARBLED), ScriptEntry(marker, valid)])
    result = run(backend, burst_store, ledger)

    first, second = ledger.records()
    assert second.note == f"{first.note}:reprompt"
    assert first.stage == second.stage == stage
    # Both attempts carry the same seed hint.
    assert backend.requests[0].seed_hint == backend.requests[1].seed_hint
    # The second reply is the one used.
    flagged = result.flagged if stage == "subtask" else result.anomalies
    assert flagged == frozenset({"WEB-1"})
    if stage != "subtask":
        assert result.basis == "parsed on the second try"


def test_subtask_reprompt_restates_the_format(burst_store, ledger):
    backend = RecordingBackend([
        ScriptEntry("[stage: subtask]", GARBLED),
        ScriptEntry("[stage: subtask]", "Finding: fine\nSuspicious: no"),
    ])
    _subtask(backend, burst_store, ledger)
    first, second = (r.prompt for r in backend.requests)
    assert "(Reply with the mandated Finding/Suspicious lines.)" not in first
    assert f"{WEBSITE_CHECK.description} (Reply with the mandated Finding/Suspicious lines.)" \
        in second


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_garbled_twice_takes_the_stage_fallback(stage, burst_store, ledger):
    marker, run, _valid, double_failure = STAGES[stage]
    backend = make_scripted_backend([ScriptEntry(marker, GARBLED, repeat=True)])
    double_failure(run, backend, burst_store, ledger)
    assert [r.note.endswith(":reprompt") for r in ledger.records()] == [False, True]
