from __future__ import annotations

import pytest

from conftest import simple_subtasks
from logaudit.debate import DebateConfig, consensus_reached, rebut, transcript_doc
from logaudit.executor import ExecutorResultSet, SubTaskResult
from logaudit.gateway import CostLedger, ScriptEntry, make_scripted_backend
from logaudit.pipeline import DetectContext, detect_user

NO_TOOLS = {"logon-baseline": None, "website-legitimacy": None}

BENIGN_REPLY = "Finding: fine\nSuspicious: no"
FLAG_WEB = "Finding: untrusted website visited\nSuspicious: yes\nFlagged: WEB-1"


def _emad(store, backend, n_debate=3):
    ctx = DetectContext(simple_subtasks(), NO_TOOLS, store, backend, CostLedger(),
                        debate=DebateConfig(n_debate=n_debate))
    final, transcript = detect_user(store.users["UX"], ctx)
    return final, transcript, ctx.ledger


def test_agreeing_verdicts_break_immediately(burst_store):
    backend = make_scripted_backend([
        ScriptEntry("[stage: subtask]", BENIGN_REPLY, repeat=True),
        ScriptEntry("[stage: merge]",
                    "Basis of Judgment: nothing found\nDecision: Benign", repeat=True),
    ])
    final, transcript, ledger = _emad(burst_store, backend)
    assert final.verdict == "benign"
    assert final.rounds_used == 0
    assert final.consensus
    assert len(transcript.rounds) == 1
    assert transcript.rounds[0].consensus
    # 2 executors x 2 checks + 1 merge
    assert len(ledger) == 5


def test_conceding_debate_reaches_consensus(burst_store):
    backend = make_scripted_backend([
        ScriptEntry("[stage: subtask]", BENIGN_REPLY),           # E_a logon check
        ScriptEntry("[stage: subtask]", FLAG_WEB),               # E_a website check
        ScriptEntry("[stage: subtask]", BENIGN_REPLY),           # E_b logon check
        ScriptEntry("[stage: subtask]", BENIGN_REPLY),           # E_b website check
        ScriptEntry("[stage: rebuttal]",
                    "Basis of Judgment: untrusted site confirmed\nFlagged: WEB-1\n"
                    "Decision: Malicious"),                      # E_a stands firm
        ScriptEntry("[stage: rebuttal]",
                    "Basis of Judgment: persuaded by the website evidence\n"
                    "Decision: Malicious"),                      # E_b concedes
        ScriptEntry("[stage: merge]",
                    "Basis of Judgment: Legitimacy of website visits\nDecision: Malicious"),
    ])
    final, transcript, _ = _emad(burst_store, backend)
    assert final.verdict == "malicious"
    assert final.anomalies == frozenset({"WEB-1"})
    assert final.rounds_used == 1
    assert final.consensus
    assert final.basis == "Legitimacy of website visits"
    assert len(transcript.rounds) == 2
    assert transcript.rounds[1].consensus
    # The conceding executor adopted the cited evidence.
    assert transcript.rounds[1].b.anomalies == frozenset({"WEB-1"})
    assert transcript.rounds[1].b.verdict == "malicious"


def test_round_cap_without_consensus(burst_store):
    backend = make_scripted_backend([
        ScriptEntry("[stage: subtask]", BENIGN_REPLY),
        ScriptEntry("[stage: subtask]", FLAG_WEB),
        ScriptEntry("[stage: subtask]", BENIGN_REPLY, repeat=True),
        ScriptEntry(["[stage: rebuttal]", "executor A"],
                    "Basis of Judgment: still malicious\nFlagged: WEB-1\nDecision: Malicious",
                    repeat=True),
        ScriptEntry("[stage: rebuttal]",
                    "Basis of Judgment: still benign\nDecision: Benign", repeat=True),
        ScriptEntry("[stage: merge]",
                    "Basis of Judgment: combined\nDecision: Malicious", repeat=True),
    ])
    final, transcript, ledger = _emad(burst_store, backend, n_debate=2)
    assert final.rounds_used == 2
    assert not final.consensus
    assert final.verdict == "malicious"        # merge folds both sides' evidence
    assert len(transcript.rounds) == 3         # initial + two rebuttal rounds
    assert not any(r.consensus for r in transcript.rounds)
    # 4 subtask + 4 rebuttals + 1 merge
    assert len(ledger) == 9


def test_budget_bound_from_cost_ledger(burst_store):
    backend = make_scripted_backend([
        ScriptEntry("[stage: subtask]", BENIGN_REPLY),
        ScriptEntry("[stage: subtask]", FLAG_WEB),
        ScriptEntry("[stage: subtask]", BENIGN_REPLY, repeat=True),
        ScriptEntry(["[stage: rebuttal]", "executor A"],
                    "Basis of Judgment: x\nFlagged: WEB-1\nDecision: Malicious", repeat=True),
        ScriptEntry("[stage: rebuttal]", "Basis of Judgment: y\nDecision: Benign", repeat=True),
        ScriptEntry("[stage: merge]", "Basis of Judgment: z\nDecision: Malicious", repeat=True),
    ])
    n_debate = 3
    final, _, ledger = _emad(burst_store, backend, n_debate=n_debate)
    n_t = len(simple_subtasks().subtasks)
    reprompts = sum(1 for r in ledger.records() if "reprompt" in r.note)
    assert len(ledger) <= 2 * n_t + 2 * n_debate + 1 + reprompts
    assert final.rounds_used == 3


def test_consensus_reached_is_verdict_level():
    def rs(verdict, basis):
        return ExecutorResultSet("executor_a", [], frozenset({"E"}) if verdict == "malicious"
                                 else frozenset(), basis, verdict, 0)

    assert consensus_reached(rs("malicious", "one basis"), rs("malicious", "another"))
    assert not consensus_reached(rs("malicious", "b"), rs("benign", "b"))
    assert consensus_reached(rs("benign", "x"), rs("benign", "y"))


def _own_set(store, verdict="benign", flags=frozenset()):
    results = [
        SubTaskResult("logon-baseline", "t", "fine", frozenset(), False),
        SubTaskResult("website-legitimacy", "t", "fine", flags, bool(flags)),
    ]
    return ExecutorResultSet("executor_b", results, frozenset(flags), "basis", verdict, 0)


def test_rebut_identical_position_increments_round(burst_store, ledger):
    backend = make_scripted_backend([
        ("executor_rebuttal", "Basis of Judgment: basis\nDecision: Benign"),
    ])
    own = _own_set(burst_store)
    other = _own_set(burst_store)
    updated = rebut("executor_b", own, other, backend,
                    user=burst_store.users["UX"], ledger=ledger)
    assert updated.round == 1
    assert updated.verdict == own.verdict
    assert updated.anomalies == own.anomalies
    assert [r.flagged for r in updated.results] == [r.flagged for r in own.results]


def test_rebut_unparseable_twice_carries_forward(burst_store, ledger, caplog):
    backend = make_scripted_backend([
        ScriptEntry("executor_rebuttal", "hmm", repeat=True),
    ])
    own = _own_set(burst_store, "malicious", frozenset({"WEB-1"}))
    other = _own_set(burst_store)
    with caplog.at_level("WARNING"):
        updated = rebut("executor_b", own, other, backend,
                        user=burst_store.users["UX"], ledger=ledger)
    assert updated.round == 1
    assert updated.verdict == "malicious"
    assert updated.anomalies == frozenset({"WEB-1"})
    assert updated.correction is not None
    assert len(ledger) == 2


def test_rebut_round_precondition(burst_store, ledger):
    backend = make_scripted_backend([])
    own = _own_set(burst_store)
    other = _own_set(burst_store)
    other.round = 2
    with pytest.raises(ValueError):
        rebut("executor_b", own, other, backend,
              user=burst_store.users["UX"], ledger=ledger)


def test_backend_failure_mid_debate_preserves_transcript(burst_store):
    backend = make_scripted_backend([
        ScriptEntry("[stage: subtask]", BENIGN_REPLY),
        ScriptEntry("[stage: subtask]", FLAG_WEB),
        ScriptEntry("[stage: subtask]", BENIGN_REPLY),
        ScriptEntry("[stage: subtask]", BENIGN_REPLY),
        # no rebuttal/merge entries: the next call fails
    ])
    final, transcript, _ = _emad(burst_store, backend)
    assert transcript.error is not None
    assert "ScriptExhausted" in transcript.error
    assert not final.consensus
    assert final.verdict == "malicious"  # executor A's last consistent verdict
    assert final.correction is not None
    assert len(transcript.rounds) == 1


def test_transcript_replay_is_deterministic(burst_store):
    def run():
        backend = make_scripted_backend([
            ScriptEntry("[stage: subtask]", BENIGN_REPLY),
            ScriptEntry("[stage: subtask]", FLAG_WEB),
            ScriptEntry("[stage: subtask]", BENIGN_REPLY),
            ScriptEntry("[stage: subtask]", BENIGN_REPLY),
            ScriptEntry("[stage: rebuttal]",
                        "Basis of Judgment: confirmed\nFlagged: WEB-1\nDecision: Malicious"),
            ScriptEntry("[stage: rebuttal]",
                        "Basis of Judgment: persuaded\nDecision: Malicious"),
            ScriptEntry("[stage: merge]",
                        "Basis of Judgment: website evidence\nDecision: Malicious"),
        ])
        final, transcript, _ = _emad(burst_store, backend)
        return final, transcript_doc("UX", transcript)

    first_final, first_doc = run()
    second_final, second_doc = run()
    assert first_final == second_final
    assert first_doc == second_doc


def test_no_debate_config_rejects_negative_rounds():
    with pytest.raises(ValueError):
        DebateConfig(n_debate=-1)


def test_n_debate_zero_merges_initial_sets(burst_store):
    backend = make_scripted_backend([
        ScriptEntry("[stage: subtask]", BENIGN_REPLY),
        ScriptEntry("[stage: subtask]", FLAG_WEB),
        ScriptEntry("[stage: subtask]", BENIGN_REPLY, repeat=True),
        ScriptEntry("[stage: merge]",
                    "Basis of Judgment: folded\nDecision: Malicious", repeat=True),
    ])
    final, transcript, ledger = _emad(burst_store, backend, n_debate=0)
    assert final.rounds_used == 0
    assert not final.consensus           # verdicts differed and no rounds ran
    assert final.verdict == "malicious"
    assert len(transcript.rounds) == 1
    assert len(ledger) == 5              # no rebuttal calls at all
