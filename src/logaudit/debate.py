"""Pair-wise evidence-based debate between two independent executors.

Both executors audit the user independently, then exchange result sets for
up to a capped number of rounds until their verdicts agree; executor A then
merges both final sets into the conclusion. The update order is asymmetric:
A rebuts first against B's previous set, then B rebuts against A's fresh
set. With a round cap of zero the debate degrades to merging the two
initial sets, which is exactly the no-debate ablation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

from .errors import GatewayError
from .executor import (
    VERDICT_BENIGN,
    ExecutorResultSet,
    apply_evidence_check,
    ask,
    parse_decision_reply,
    pin_to_evidence,
    rebuild_results_from_anomalies,
    render_result_set,
)
from .gateway import Backend, CostLedger, PromptTemplate
from .logstore import UserSequence
from .prompts import EXECUTOR_MERGE, EXECUTOR_REBUTTAL

logger = logging.getLogger(__name__)

EXECUTOR_A = "executor_a"
EXECUTOR_B = "executor_b"

DEFAULT_DEBATE_ROUNDS = 3
DEFAULT_SEED_A = 1
DEFAULT_SEED_B = 2


@dataclass(frozen=True)
class DebateConfig:
    n_debate: int = DEFAULT_DEBATE_ROUNDS
    seed_a: int = DEFAULT_SEED_A
    seed_b: int = DEFAULT_SEED_B

    def __post_init__(self) -> None:
        if self.n_debate < 0:
            raise ValueError("n_debate must be >= 0")


@dataclass
class DebateRound:
    index: int
    a: ExecutorResultSet
    b: ExecutorResultSet
    consensus: bool = False


@dataclass(frozen=True)
class FinalConclusion:
    verdict: str
    anomalies: frozenset[str]
    basis: str
    rounds_used: int
    consensus: bool
    correction: str | None = None


@dataclass
class DebateTranscript:
    rounds: list[DebateRound] = field(default_factory=list)
    final: FinalConclusion | None = None
    error: str | None = None


def consensus_reached(a: ExecutorResultSet, b: ExecutorResultSet) -> bool:
    """Verdict-level agreement; bases and findings may differ."""
    return a.verdict == b.verdict


# ---------------------------------------------------------------------------
# Rebuttal
# ---------------------------------------------------------------------------

def _attribution(*sets: ExecutorResultSet) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for result_set in sets:
        for result in result_set.results:
            for entry_id in result.flagged:
                mapping.setdefault(entry_id, result.subtask_id)
    return mapping


def rebut(
    executor_id: str,
    own: ExecutorResultSet,
    other: ExecutorResultSet,
    backend: Backend,
    *,
    user: UserSequence,
    ledger: CostLedger,
    template: PromptTemplate = EXECUTOR_REBUTTAL,
    seed_hint: int | None = None,
) -> ExecutorResultSet:
    """One executor reviews the opposing result set and restates its own.

    The reply's Flagged ids that are this user's entries become the new
    anomaly set; a malicious decision with no ids adopts the union of both
    sides' anomalies, a benign one drops them. The evidence-consistency
    check then pins the verdict.
    """
    if not (own.round == other.round or other.round == own.round + 1):
        raise ValueError(
            f"rebuttal round mismatch: own={own.round}, other={other.round}"
        )
    label = "A" if executor_id == EXECUTOR_A else "B"
    variables = {
        "executor_label": label,
        "user": user.user,
        "own_block": render_result_set(own, f"executor {label} (you)"),
        "other_block": render_result_set(other, "opposing executor"),
    }
    new_round = own.round + 1

    parsed = ask(
        backend, template, variables, parse_decision_reply,
        stage="rebuttal", note=f"{executor_id}:r{new_round}",
        ledger=ledger, seed_hint=seed_hint,
    )
    if parsed is None:
        logger.warning("%s rebuttal unparseable twice; prior set carried forward", executor_id)
        return replace(
            own, results=list(own.results), round=new_round,
            correction="rebuttal unparseable; prior set carried forward",
        )

    anomalies, verdict, correction = pin_to_evidence(parsed, user, own.anomalies | other.anomalies)
    results = rebuild_results_from_anomalies(own.results, anomalies, _attribution(own, other))
    return ExecutorResultSet(
        executor_id=own.executor_id,
        results=results,
        anomalies=anomalies,
        basis=parsed.basis or own.basis,
        verdict=verdict,
        round=new_round,
        correction=correction,
    )


# ---------------------------------------------------------------------------
# Merge (executor A folds both final sets into the conclusion)
# ---------------------------------------------------------------------------

def merge_conclusion(
    a: ExecutorResultSet,
    b: ExecutorResultSet,
    backend: Backend,
    *,
    user: UserSequence,
    rounds_used: int,
    consensus: bool,
    ledger: CostLedger,
    template: PromptTemplate = EXECUTOR_MERGE,
) -> FinalConclusion:
    """Ask executor A for the merged conclusion, then hold it to the
    evidence: anomalies come from both sets (optionally narrowed by the
    reply's Flagged line) and the verdict must match them."""
    union = a.anomalies | b.anomalies
    variables = {
        "user": user.user,
        "a_block": render_result_set(a, "executor A"),
        "b_block": render_result_set(b, "executor B"),
    }
    parsed = ask(
        backend, template, variables, parse_decision_reply,
        stage="merge", note="merge", ledger=ledger,
    )
    if parsed is None:
        verdict, correction = apply_evidence_check(VERDICT_BENIGN, union)
        basis = f"A: {a.basis} | B: {b.basis}"
        return FinalConclusion(
            verdict=verdict, anomalies=union, basis=basis,
            rounds_used=rounds_used, consensus=consensus,
            correction="merge unparseable; deterministic fold of both result sets",
        )

    narrowed = frozenset(i for i in parsed.flagged if i in union)
    anomalies = narrowed if narrowed else union
    # A benign decision cannot silently dismiss flagged evidence.
    verdict, correction = apply_evidence_check(parsed.decision, anomalies)
    basis = parsed.basis or f"A: {a.basis} | B: {b.basis}"
    return FinalConclusion(
        verdict=verdict,
        anomalies=anomalies,
        basis=basis,
        rounds_used=rounds_used,
        consensus=consensus,
        correction=correction,
    )


# ---------------------------------------------------------------------------
# The debate loop
# ---------------------------------------------------------------------------

def debate_loop(
    a0: ExecutorResultSet,
    b0: ExecutorResultSet,
    backend: Backend,
    config: DebateConfig,
    *,
    user: UserSequence,
    ledger: CostLedger,
    rebuttal_template: PromptTemplate = EXECUTOR_REBUTTAL,
    merge_template: PromptTemplate = EXECUTOR_MERGE,
) -> tuple[FinalConclusion, DebateTranscript]:
    """Verdict-gated rebuttal rounds over two initial sets, then A's merge.

    On a backend failure mid-debate the transcript so far is preserved and
    executor A's last consistent verdict is returned with consensus=False.
    """
    transcript = DebateTranscript()
    transcript.rounds.append(DebateRound(index=0, a=a0, b=b0))
    a_cur, b_cur = a0, b0
    rounds_used = 0
    try:
        for i in range(1, config.n_debate + 1):
            if consensus_reached(a_cur, b_cur):
                break
            a_new = rebut(
                EXECUTOR_A, a_cur, b_cur, backend,
                user=user, ledger=ledger,
                template=rebuttal_template, seed_hint=config.seed_a,
            )
            b_new = rebut(
                EXECUTOR_B, b_cur, a_new, backend,
                user=user, ledger=ledger,
                template=rebuttal_template, seed_hint=config.seed_b,
            )
            a_cur, b_cur = a_new, b_new
            rounds_used = i
            transcript.rounds.append(DebateRound(index=i, a=a_cur, b=b_cur))
        # Agreement ends the debate early; at the round cap it may still hold.
        consensus = consensus_reached(a_cur, b_cur)
        transcript.rounds[-1].consensus = consensus
        final = merge_conclusion(
            a_cur, b_cur, backend,
            user=user, rounds_used=rounds_used, consensus=consensus,
            ledger=ledger, template=merge_template,
        )
    except GatewayError as exc:
        logger.warning("backend failure mid-debate for %s: %s", user.user, exc)
        transcript.error = f"{exc.category}: {exc}"
        final = FinalConclusion(
            verdict=a_cur.verdict,
            anomalies=a_cur.anomalies,
            basis=a_cur.basis,
            rounds_used=rounds_used,
            consensus=False,
            correction="backend failure; executor A's last consistent verdict",
        )
    transcript.final = final
    return final, transcript


# ---------------------------------------------------------------------------
# Transcript export
# ---------------------------------------------------------------------------

def _result_set_doc(result_set: ExecutorResultSet) -> dict[str, object]:
    return {
        "executor": result_set.executor_id,
        "round": result_set.round,
        "verdict": result_set.verdict,
        "anomalies": sorted(result_set.anomalies),
        "basis": result_set.basis,
        "correction": result_set.correction,
        "results": [
            {
                "subtask_id": r.subtask_id,
                "finding": r.finding,
                "suspicious": r.suspicious,
                "flagged": sorted(r.flagged),
                "tool_rendered": r.tool_rendered,
            }
            for r in result_set.results
        ],
    }


def conclusion_doc(final: FinalConclusion) -> dict[str, object]:
    """A conclusion as ``conclusions.json`` and the transcripts record it."""
    return {
        "verdict": final.verdict,
        "anomalies": sorted(final.anomalies),
        "basis": final.basis,
        "rounds_used": final.rounds_used,
        "consensus": final.consensus,
        "correction": final.correction,
    }


def transcript_doc(user: str, transcript: DebateTranscript) -> dict[str, object]:
    final = transcript.final
    return {
        "user": user,
        "rounds": [
            {
                "index": r.index,
                "consensus": r.consensus,
                "a": _result_set_doc(r.a),
                "b": _result_set_doc(r.b),
            }
            for r in transcript.rounds
        ],
        "final": None if final is None else conclusion_doc(final),
        "error": transcript.error,
    }
