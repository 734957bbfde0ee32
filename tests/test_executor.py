from __future__ import annotations

import pytest

from conftest import simple_subtasks
from logaudit.decomposer import SubTask
from logaudit.errors import MissingDecision, ResponseUnparseable
from logaudit.executor import (
    DEFAULT_EXCERPT_BUDGET,
    TOOL_UNAVAILABLE,
    ExecutorResultSet,
    SubTaskResult,
    apply_evidence_check,
    bind_and_invoke,
    parse_structured_response,
    prepare_check,
    render_result_set,
    run_subtask,
    select_focus_day,
    synthesize,
)
from logaudit.forge import builtin_tools
from logaudit.gateway import ScriptEntry, make_scripted_backend
from logaudit.logstore import ActivityType
from logaudit.runtime import ListDef

LISTS = {
    "untrusted_domains": ListDef("untrusted_domains", "domain_deny",
                                 frozenset({"wikileaks.org"})),
    "disgruntled_keywords": ListDef("disgruntled_keywords", "keyword",
                                    frozenset({"resign", "unfair"})),
}

NO_TOOL = (TOOL_UNAVAILABLE, None)


def _check(subtask, user, tool=NO_TOOL, budget=DEFAULT_EXCERPT_BUDGET):
    return prepare_check(subtask, user, select_focus_day(user, subtask), tool, budget)

KEYLOG_STYLE_RESPONSE = """\
Logon: Logs in 4 times, above average.
Website: Visited sites related to keylogging and downloaded a payload.
Device: Device usage within the average range.
Email: The content expresses dissatisfaction with the job.
Download: Executable file downloaded.
Suspicious: The high logon frequency; the email content; the executable file downloaded.
Basis of Judgment: The combination of logons, job dissatisfaction, and the download.
Decision: Malicious
"""


# --- structured response parsing ---

def test_parse_structured_keylog_block():
    parsed = parse_structured_response(KEYLOG_STYLE_RESPONSE)
    assert parsed.decision == "malicious"
    assert any("executable file downloaded" in s.lower() for s in parsed.suspicious_items)
    assert parsed.basis.startswith("The combination")
    assert parsed.fields["Download"] == "Executable file downloaded."
    assert parsed.fields["Logon"] == "Logs in 4 times, above average."


def test_parse_structured_missing_decision():
    with pytest.raises(MissingDecision):
        parse_structured_response("Logon: fine\nBasis of Judgment: nothing\n")


def test_parse_structured_duplicate_decision_last_wins(caplog):
    text = "Decision: Benign\nDecision: Malicious\n"
    with caplog.at_level("WARNING"):
        parsed = parse_structured_response(text)
    assert parsed.decision == "malicious"
    assert any("multiple Decision lines" in r.message for r in caplog.records)


def test_parse_structured_flagged_ids():
    parsed = parse_structured_response("Flagged: E1, E2 E3\nDecision: Malicious\n")
    assert parsed.flagged == ["E1", "E2", "E3"]


def test_parse_structured_decision_normalization():
    assert parse_structured_response("Decision: BENIGN.").decision == "benign"
    assert parse_structured_response("Decision: malicious (high confidence)").decision == "malicious"
    with pytest.raises(MissingDecision):
        parse_structured_response("Decision: unsure")


# --- evidence consistency ---

def test_evidence_check_corrects_benign_with_flags():
    verdict, note = apply_evidence_check("benign", frozenset({"E1"}))
    assert verdict == "malicious"
    assert note is not None


def test_evidence_check_corrects_malicious_without_flags():
    verdict, note = apply_evidence_check("malicious", frozenset())
    assert verdict == "benign"
    assert note is not None


def test_evidence_check_consistent_passes_through():
    assert apply_evidence_check("benign", frozenset()) == ("benign", None)
    verdict, note = apply_evidence_check("malicious", frozenset({"E1"}))
    assert verdict == "malicious" and note is None


# --- focus day ---

def test_select_focus_day_peak_and_tie(burst_store):
    subtask = simple_subtasks().subtasks[0]
    assert select_focus_day(burst_store.users["UX"], subtask) == "2024-01-05"
    # UY is flat: earliest day wins the tie.
    assert select_focus_day(burst_store.users["UY"], subtask) == "2024-01-01"


def test_select_focus_day_none_without_activity(burst_store):
    subtask = SubTask("emails", "Check emails.", frozenset({ActivityType.EMAIL_SEND}))
    assert select_focus_day(burst_store.users["UX"], subtask) is None


# --- run_subtask ---

def test_run_subtask_burst_flags_tool_evidence(burst_store, ledger):
    subtask = simple_subtasks().subtasks[0]
    spec = builtin_tools()["logon_frequency"]
    backend = make_scripted_backend([
        ScriptEntry(["[stage: subtask]", "above average"],
                    "Finding: Logs in 4 times, above average.\nSuspicious: yes", repeat=True),
        ScriptEntry("[stage: subtask]", "Finding: fine\nSuspicious: no", repeat=True),
    ])
    user = burst_store.users["UX"]
    tool = bind_and_invoke(spec, user, select_focus_day(user, subtask), LISTS)
    result = run_subtask("executor_a", _check(subtask, user, tool), user, backend, ledger=ledger)
    assert result.suspicious
    assert result.finding == "Logs in 4 times, above average."
    assert len(result.flagged) == 4  # the audited day's logons, from tool evidence
    assert set(result.flagged) <= {e.entry_id for e in burst_store.entries}


def test_run_subtask_no_activity_skips_backend(burst_store, ledger):
    subtask = SubTask("emails", "Check outgoing emails.", frozenset({ActivityType.EMAIL_SEND}))
    backend = make_scripted_backend([])  # any call would raise ScriptExhausted
    user = burst_store.users["UX"]
    tool = bind_and_invoke(builtin_tools()["email_keywords"], user, None, LISTS)
    result = run_subtask("executor_a", _check(subtask, user, tool), user, backend, ledger=ledger)
    assert not result.suspicious
    assert result.flagged == frozenset()
    assert "no activity" in result.finding
    assert len(ledger) == 0


def test_run_subtask_unparseable_twice(burst_store, ledger):
    subtask = simple_subtasks().subtasks[0]
    backend = make_scripted_backend([
        ScriptEntry("[stage: subtask]", "shrug", repeat=True),
    ])
    with pytest.raises(ResponseUnparseable):
        run_subtask("executor_a", _check(subtask, burst_store.users["UX"]),
                    burst_store.users["UX"], backend, ledger=ledger)
    assert len(ledger) == 2  # first try plus one re-prompt


def test_run_subtask_reprompt_recovers(burst_store, ledger):
    subtask = simple_subtasks().subtasks[0]
    backend = make_scripted_backend([
        ScriptEntry("[stage: subtask]", "shrug"),
        ScriptEntry("[stage: subtask]", "Finding: ok\nSuspicious: no"),
    ])
    result = run_subtask("executor_a", _check(subtask, burst_store.users["UX"]),
                         burst_store.users["UX"], backend, ledger=ledger)
    assert result.finding == "ok"
    assert len(ledger) == 2
    assert ledger.records()[1].note.endswith("reprompt")


def test_run_subtask_drops_foreign_flagged_ids(burst_store, ledger):
    subtask = simple_subtasks().subtasks[0]
    backend = make_scripted_backend([
        ScriptEntry("[stage: subtask]",
                    "Finding: bad\nSuspicious: yes\nFlagged: YUY-001, XUX-001"),
    ])
    result = run_subtask("executor_a", _check(subtask, burst_store.users["UX"]),
                         burst_store.users["UX"], backend, ledger=ledger)
    # YUY-001 belongs to user UY and is discarded; XUX-001 is UX's own entry.
    assert result.flagged == frozenset({"XUX-001"})


def test_run_subtask_excerpt_budget(burst_store, ledger):
    subtask = simple_subtasks().subtasks[0]
    captured = {}

    class SpyBackend:
        name = "spy"

        def complete(self, request):
            captured["prompt"] = request.prompt
            from logaudit.gateway import Completion

            return Completion("Finding: ok\nSuspicious: no", 1, 1, 0.0)

    user = burst_store.users["UX"]
    run_subtask("executor_a", _check(subtask, user, budget=3), user, SpyBackend(), ledger=ledger)
    excerpt_lines = [l for l in captured["prompt"].splitlines() if l.startswith("  X")]
    assert len(excerpt_lines) == 3
    # The audited (peak) day stays in view under a tight budget.
    assert any("2024-01-05" in l for l in excerpt_lines)


# --- synthesize ---

def _results(flags: frozenset[str] = frozenset()) -> list[SubTaskResult]:
    return [
        SubTaskResult("logon-baseline", "tool says fine", "normal pattern",
                      frozenset(), False),
        SubTaskResult("website-legitimacy", "tool flagged wikileaks.org",
                      "untrusted website visited", flags, bool(flags)),
    ]


def test_synthesize_deterministic_benign():
    result_set = synthesize("executor_a", _results())
    assert result_set.verdict == "benign"
    assert result_set.anomalies == frozenset()
    assert "no suspicious behavior" in result_set.basis


def test_synthesize_deterministic_malicious():
    result_set = synthesize("executor_a", _results(frozenset({"WEB-1"})))
    assert result_set.verdict == "malicious"
    assert result_set.anomalies == frozenset({"WEB-1"})
    assert "website-legitimacy" in result_set.basis
    assert result_set.correction is None


def test_render_result_set_contains_verdict_line():
    result_set = ExecutorResultSet(
        executor_id="executor_a", results=_results(frozenset({"WEB-1"})),
        anomalies=frozenset({"WEB-1"}), basis="b", verdict="malicious", round=0,
    )
    text = render_result_set(result_set, "executor A")
    assert "verdict: malicious" in text
    assert "WEB-1" in text
