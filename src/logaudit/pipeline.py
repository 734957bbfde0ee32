"""Per-user detection across the pipeline variants.

The full configuration runs decomposed checks with tools and debate. Each
ablation variant removes exactly one mechanism: the basic single prompt, the
per-check iteration, the decomposed check set, the tools, or the debate.
"""

from __future__ import annotations

import contextlib
import logging
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

from .config import (
    RunConfig,
    build_backend,
    load_lists,
    load_templates,
    open_store_snapshot,
    resolve_path,
)
from .debate import (
    EXECUTOR_A,
    EXECUTOR_B,
    DebateConfig,
    DebateTranscript,
    FinalConclusion,
    debate_loop,
)
from .decomposer import SubTask, SubTaskSet
from .errors import RegistryMissing, ResponseUnparseable
from .executor import (
    DEFAULT_EXCERPT_BUDGET,
    TOOL_UNAVAILABLE,
    ExecutorResultSet,
    PreparedCheck,
    SubTaskResult,
    ask,
    bind_and_invoke,
    parse_decision_reply,
    pin_to_evidence,
    prepare_check,
    render_excerpt,
    run_subtask,
    select_focus_day,
    synthesize,
)
from .forge import ToolSpec, load_registry
from .gateway import Backend, CostLedger, PromptTemplate
from .logstore import ActivityType, LogEntry, LogStore, Snapshot, UserSequence
from .prompts import DEFAULT_TEMPLATES
from .runtime import ListCatalog, ToolResult

logger = logging.getLogger(__name__)

T = TypeVar("T")

VARIANT_ORIGINAL = "original"
VARIANT_VANILLA = "vanilla"
VARIANT_NO_COT = "no_cot"
VARIANT_NO_DECOMP = "no_decomp"
VARIANT_NO_TOOLS = "no_tools"
VARIANT_NO_EMAD = "no_emad"

NO_RELEVANT_ACTIVITY = "(no relevant activity)"


@dataclass(frozen=True)
class VariantBehavior:
    """Exactly one documented pipeline configuration per ablation tag."""

    tag: str
    description: str
    use_decomposition: bool = True
    use_tools: bool = True
    per_check_cot: bool = True
    use_debate: bool = True
    agentless: bool = False


VARIANTS: dict[str, VariantBehavior] = {
    VARIANT_ORIGINAL: VariantBehavior(
        VARIANT_ORIGINAL,
        "decomposed checks, tools, per-check reasoning, debate",
    ),
    VARIANT_VANILLA: VariantBehavior(
        VARIANT_VANILLA,
        "one basic prompt per user; no checks, tools, or debate",
        use_decomposition=False, use_tools=False, per_check_cot=False,
        use_debate=False, agentless=True,
    ),
    VARIANT_NO_COT: VariantBehavior(
        VARIANT_NO_COT,
        "one-step decision: all checks and tool outputs in a single call per executor",
        per_check_cot=False,
    ),
    VARIANT_NO_DECOMP: VariantBehavior(
        VARIANT_NO_DECOMP,
        "single generic check with every registry tool's output attached",
        use_decomposition=False,
    ),
    VARIANT_NO_TOOLS: VariantBehavior(
        VARIANT_NO_TOOLS,
        "executors see only the raw excerpt; tools are never invoked",
        use_tools=False,
    ),
    VARIANT_NO_EMAD: VariantBehavior(
        VARIANT_NO_EMAD,
        "debate rounds capped at zero; initial result sets merged directly",
        use_debate=False,
    ),
}


@dataclass
class DetectContext:
    """Everything needed to audit users under one configuration. ``store``
    holds the users to audit: a snapshot or an in-memory store, whose
    sequences :func:`detect_all` reads one at a time."""

    subtasks: SubTaskSet
    tools: Mapping[str, ToolSpec | None]
    store: LogStore | Snapshot
    backend: Backend
    ledger: CostLedger
    lists: ListCatalog | None = None
    debate: DebateConfig = field(default_factory=DebateConfig)
    excerpt_budget: int = DEFAULT_EXCERPT_BUDGET
    variant: VariantBehavior = VARIANTS[VARIANT_ORIGINAL]
    templates: Mapping[str, PromptTemplate] = field(default_factory=lambda: dict(DEFAULT_TEMPLATES))


def context_from_config(config: RunConfig, ledger: CostLedger, variant: str) -> DetectContext:
    """The context a run config describes under the named variant: its store
    snapshot, opened but not read past its first line, its registry
    (recorded test cases replayed on their users' rows), lists, backend,
    debate settings and prompt templates (overrides applied)."""
    store = open_store_snapshot(config)
    registry_path = resolve_path(config, config.registry_path)
    if not registry_path.exists():
        raise RegistryMissing(f"registry not found: {registry_path}; run forge first")
    lists = load_lists(config)
    registry = load_registry(registry_path, store=store, lists=lists)
    return DetectContext(
        subtasks=registry.subtasks,
        tools={s.id: registry.tool_for(s.id) for s in registry.subtasks.subtasks},
        store=store,
        backend=build_backend(config),
        ledger=ledger,
        lists=lists,
        debate=DebateConfig(n_debate=config.n_debate, seed_a=config.seed_executor_a,
                            seed_b=config.seed_executor_b),
        excerpt_budget=config.excerpt_budget,
        variant=VARIANTS[variant],
        templates=load_templates(config),
    )


# ---------------------------------------------------------------------------
# Variant building blocks
# ---------------------------------------------------------------------------

def _prepared_checks(ctx: DetectContext, user: UserSequence) -> list[PreparedCheck]:
    """Every check for this user, prepared once for both executors: focused
    on the user's busiest day for the check's activity types, with its
    tool's ``day`` bound to that day. Only the variants that judge checks
    one by one read a check's excerpt, or a tool's output for a check with
    no activity."""
    one_by_one = ctx.variant.per_check_cot and ctx.variant.use_decomposition
    # Checks of the same activity types share one focus day and excerpt: the
    # first such check's, whose subtask and tool each check then replaces.
    views: dict[frozenset[ActivityType], PreparedCheck] = {}
    no_tool: tuple[str, ToolResult | None] = (TOOL_UNAVAILABLE, None)
    checks = []
    for subtask in ctx.subtasks.subtasks:
        view = views.get(subtask.activity_types)
        if view is None:
            focus = select_focus_day(user, subtask)
            view = (prepare_check(subtask, user, focus, no_tool, ctx.excerpt_budget)
                    if one_by_one else PreparedCheck(subtask, focus, no_tool))
            views[subtask.activity_types] = view
        spec = ctx.tools.get(subtask.id) if ctx.variant.use_tools else None
        if spec is None:
            tool = no_tool
        elif view.focus is None and not one_by_one:
            tool = (NO_RELEVANT_ACTIVITY, None)
        else:
            tool = bind_and_invoke(spec, user, view.focus, ctx.lists)
        checks.append(replace(view, subtask=subtask, tool=tool))
    return checks


def _combined_tool_result(
    ctx: DetectContext, user: UserSequence, checks: list[PreparedCheck]
) -> tuple[str, ToolResult]:
    """Fold every registry tool's outcome for this user into one result."""
    rendered: list[str] = []
    evidence: list[str] = []
    any_suspicious = False
    any_signal = False
    for check in checks:
        spec = ctx.tools.get(check.subtask.id)
        if spec is None:
            continue
        text, result = check.tool
        rendered.append(f"[{spec.name}] {text}")
        if result is not None and result.verdict_hint is not None:
            any_signal = True
            if result.verdict_hint == "suspicious":
                any_suspicious = True
                evidence.extend(result.evidence)
    hint = None
    if any_signal:
        hint = "suspicious" if any_suspicious else "normal"
    combined = ToolResult(
        tool_name="combined-registry",
        bound_params={"user": user.user},
        values={},
        rendered="\n".join(rendered) or "(no tools produced output)",
        verdict_hint=hint,
        evidence=tuple(dict.fromkeys(evidence)),
    )
    return combined.rendered, combined


def _generic_subtask(ctx: DetectContext) -> SubTask:
    return SubTask(
        id="general-audit",
        description="Audit all of this user's activity for insider threat indicators.",
        activity_types=frozenset(ctx.store.activity_types()),
    )


def _one_shot_findings(
    ctx: DetectContext, checks: list[PreparedCheck]
) -> tuple[str, dict[str, tuple[str, ...]]]:
    """The no-CoT findings block, one line per check with its tool's output,
    and each tool's evidence; both executors read the same."""
    blocks = []
    per_tool_evidence: dict[str, tuple[str, ...]] = {}
    for check in checks:
        subtask = check.subtask
        spec = ctx.tools.get(subtask.id) if ctx.variant.use_tools else None
        line = f"- [{subtask.id}] {subtask.description}"
        if spec is not None:
            text, result = check.tool
            signal = result.verdict_hint if result is not None else None
            line += f"\n    tool: [{spec.name}] {text} (signal: {signal or 'none'})"
            if result is not None:
                per_tool_evidence[subtask.id] = result.evidence
        blocks.append(line)
    return "\n".join(blocks), per_tool_evidence


def _tail_excerpt(ctx: DetectContext, user: UserSequence) -> tuple[list[LogEntry], dict[str, object]]:
    """The user's last ``excerpt_budget`` entries, and the prompt variables
    that show them."""
    excerpt = user.entries[-ctx.excerpt_budget:]
    return excerpt, {
        "user": user.user,
        "excerpt_count": len(excerpt),
        "activity_excerpt": render_excerpt(excerpt, ctx.excerpt_budget),
    }


def _one_shot_set(
    ctx: DetectContext, executor_id: str, user: UserSequence, seed: int,
    findings: tuple[str, dict[str, tuple[str, ...]]],
) -> ExecutorResultSet:
    """One backend call deciding all checks at once (the no-CoT path)."""
    findings_block, per_tool_evidence = findings
    variables = {**_tail_excerpt(ctx, user)[1], "findings_block": findings_block}
    parsed = ask(
        ctx.backend, ctx.templates["one_shot"], variables, parse_decision_reply,
        stage="one-shot", note=executor_id, ledger=ctx.ledger, seed_hint=seed,
    )
    if parsed is None:
        raise ResponseUnparseable(f"one-shot decision for {user.user!r} unparseable after re-prompt")

    anomalies, verdict, correction = pin_to_evidence(
        parsed, user, frozenset(i for ids in per_tool_evidence.values() for i in ids)
    )
    results = []
    for subtask in ctx.subtasks.subtasks:
        ids = frozenset(per_tool_evidence.get(subtask.id, ())) & anomalies
        results.append(
            SubTaskResult(
                subtask_id=subtask.id,
                tool_rendered="(one-step decision)",
                finding=parsed.fields.get(subtask.id, "(decided in one step)"),
                flagged=ids,
                suspicious=bool(ids),
            )
        )
    return ExecutorResultSet(
        executor_id=executor_id,
        results=results,
        anomalies=anomalies,
        basis=parsed.basis or "(one-step decision)",
        verdict=verdict,
        round=0,
        correction=correction,
    )


def _vanilla_conclusion(ctx: DetectContext, user: UserSequence) -> FinalConclusion:
    excerpt, variables = _tail_excerpt(ctx, user)
    parsed = ask(
        ctx.backend, ctx.templates["vanilla"], variables, parse_decision_reply,
        stage="vanilla", note=user.user, ledger=ctx.ledger,
    )
    if parsed is None:
        raise ResponseUnparseable(f"vanilla decision for {user.user!r} unparseable after re-prompt")
    # A malicious reply naming no entries implicates the window it saw.
    anomalies, verdict, correction = pin_to_evidence(
        parsed, user, frozenset(e.entry_id for e in excerpt)
    )
    return FinalConclusion(
        verdict=verdict,
        anomalies=anomalies,
        basis=parsed.basis or "(single prompt)",
        rounds_used=0,
        consensus=False,
        correction=correction,
    )


# ---------------------------------------------------------------------------
# Per-user detection
# ---------------------------------------------------------------------------

def in_order(
    backend: Backend, ledger: CostLedger, jobs: Iterable[Callable[[CostLedger], T]],
    workers: int,
) -> Iterator[T]:
    """Run each ``job(ledger)`` and yield the results in job order, with
    ``ledger`` holding the records a serial run would, in its order. This is
    the one rule for which backend calls overlap, in forge and detect alike.

    On an order-free backend up to ``workers`` jobs run at once, each against
    a ledger of its own whose records are appended in job order; the next
    job is taken from ``jobs`` only when fewer than ``workers`` are pending.
    If a job raises, the first failing job's error is raised, as a serial run
    would, once every started job has finished. Otherwise the jobs run one
    by one on this thread against ``ledger``.
    """
    if not backend.order_free or workers < 2:
        for job in jobs:
            yield job(ledger)
        return
    jobs = iter(jobs)
    pending: deque[tuple[Future[T], CostLedger]] = deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        while True:
            while len(pending) < workers and (job := next(jobs, None)) is not None:
                own = ledger.fresh()
                pending.append((pool.submit(job, own), own))
            if not pending:
                return
            future, own = pending.popleft()
            result = future.result()
            ledger.extend(own.records())
            yield result


def detect_user(
    user: UserSequence, ctx: DetectContext
) -> tuple[FinalConclusion, DebateTranscript | None]:
    """Audit one user under the context's variant configuration: build the
    two executors' opening sets the variant's way (their independent
    backend calls at once when the backend is order-free), then debate and
    merge."""
    variant = ctx.variant

    if variant.agentless:
        return _vanilla_conclusion(ctx, user), None

    debate = ctx.debate if variant.use_debate else replace(ctx.debate, n_debate=0)
    seats = ((EXECUTOR_A, debate.seed_a), (EXECUTOR_B, debate.seed_b))

    checks = _prepared_checks(ctx, user)
    if not variant.per_check_cot:
        findings = _one_shot_findings(ctx, checks)
        jobs = [lambda ledger, e=executor_id, s=seed: _one_shot_set(
            replace(ctx, ledger=ledger), e, user, s, findings) for executor_id, seed in seats]
        a0, b0 = in_order(ctx.backend, ctx.ledger, jobs, len(jobs))
    else:
        # Lines 2-3: each executor works through every check independently,
        # on the same prepared checks; its opening verdict is the fold of its
        # own evidence.
        if not variant.use_decomposition:
            generic = _generic_subtask(ctx)
            tool = (_combined_tool_result(ctx, user, checks) if variant.use_tools
                    else (TOOL_UNAVAILABLE, None))
            focus = select_focus_day(user, generic)
            checks = [prepare_check(generic, user, focus, tool, ctx.excerpt_budget)]
        template = ctx.templates["executor_subtask"]
        jobs = [lambda ledger, e=executor_id, s=seed, c=check: run_subtask(
            e, c, user, ctx.backend, ledger=ledger, template=template, seed_hint=s,
        ) for executor_id, seed in seats for check in checks]
        results = list(in_order(ctx.backend, ctx.ledger, jobs, len(jobs)))
        n = len(checks)
        a0, b0 = synthesize(EXECUTOR_A, results[:n]), synthesize(EXECUTOR_B, results[n:])

    return debate_loop(
        a0, b0, ctx.backend, debate,
        user=user, ledger=ctx.ledger,
        rebuttal_template=ctx.templates["executor_rebuttal"],
        merge_template=ctx.templates["executor_merge"],
    )


def detect_all(
    ctx: DetectContext, parallelism: int = 1
) -> dict[str, tuple[FinalConclusion, DebateTranscript | None]]:
    """Audit every user of the context's store in sorted-user order, each
    from its sequence, read when its audit is about to start: up to
    ``parallelism`` at once when the backend is order-free. The ledger is
    the same either way."""
    with contextlib.closing(ctx.store.sequences()) as sequences:
        # ``detect_user`` is looked up as each audit starts, so a patched one is used.
        jobs = (lambda ledger, user=user: (user.user, detect_user(user, replace(ctx, ledger=ledger)))
                for user in sequences)
        return dict(in_order(ctx.backend, ctx.ledger, jobs, parallelism))
