"""Tool builder: drafts query plans from examples, unit-tests them with
error-feedback repair, decorates the survivors, and persists everything in a
reusable registry.

Lifecycle is strictly draft -> tested -> decorated; nothing regresses.
Built-in fallback tools cover six canonical checks so the pipeline keeps
working when generation fails.
"""

from __future__ import annotations

import json
import logging
import string
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from .decomposer import SubTask, SubTaskSet
from .errors import (
    AuditError,
    BackendUnreachable,
    InvalidTestCases,
    LifecycleError,
    PlanInvalid,
    PlanParseError,
    RegistryCorrupt,
    ScriptExhausted,
    TemplateMismatch,
    ToolIrreparable,
    TransportError,
)
from .gateway import Backend, CostLedger, PromptTemplate, chat
from .logstore import ActivityType, LogEntry, LogStore
from .plans import (
    AGG_FUNCS,
    DEFAULT_K_SIGMA,
    BaselineCompareStage,
    LookupStage,
    QueryPlan,
    free_params,
    known_fields,
    parse_plan,
    plan_result_fields,
    plan_summary,
    render_plan,
)
from .prompts import TOOL_BUILDER, TOOL_REPAIR
from .runtime import ListCatalog, invoke

logger = logging.getLogger(__name__)

STATUS_DRAFT = "draft"
STATUS_TESTED = "tested"
STATUS_DECORATED = "decorated"

REQUIRED_INVOCATIONS = 3
DEFAULT_REPAIR_ATTEMPTS = 3
REGISTRY_FORMAT = "audit-registry/1"

NUMERIC_TOLERANCE = 1e-9


@dataclass(frozen=True)
class ToolTestCase:
    params: dict[str, str]
    expected: dict[str, object]


@dataclass
class ToolSpec:
    """A validated, reusable log-analysis tool."""

    name: str
    subtask_id: str
    plan: QueryPlan
    doc: str = ""
    params: tuple[tuple[str, str], ...] = ()
    output_template: str = ""
    status: str = STATUS_DRAFT
    builtin: bool = False
    test_cases: tuple[ToolTestCase, ...] = ()


@dataclass
class TestReport:
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures


def _advance(spec: ToolSpec, new_status: str) -> None:
    allowed = {
        (STATUS_DRAFT, STATUS_TESTED),
        (STATUS_TESTED, STATUS_DECORATED),
        (STATUS_DECORATED, STATUS_DECORATED),
    }
    if (spec.status, new_status) not in allowed:
        raise LifecycleError(f"cannot move tool {spec.name!r} from {spec.status} to {new_status}")
    spec.status = new_status


def template_placeholders(template: str) -> set[str]:
    return {f for _, f, _, _ in string.Formatter().parse(template) if f}


def validate_template(template: str, plan: QueryPlan) -> None:
    extra = template_placeholders(template) - set(plan_result_fields(plan))
    if extra:
        raise TemplateMismatch(f"template references fields the plan does not produce: {sorted(extra)}")


# ---------------------------------------------------------------------------
# Drafting and unit testing
# ---------------------------------------------------------------------------

def _render_log_examples(entries: Sequence[LogEntry]) -> str:
    lines = []
    for entry in entries:
        payload = ", ".join(f"{k}={v}" for k, v in sorted(entry.payload.items()))
        lines.append(
            f"  {entry.entry_id} | {entry.timestamp.isoformat()} | {entry.activity.value} "
            f"| user={entry.user} | host={entry.host}" + (f" | {payload}" if payload else "")
        )
    return "\n".join(lines)


def _spec_from_plan(subtask_id: str, plan: QueryPlan) -> ToolSpec:
    return ToolSpec(
        name=f"{subtask_id}-tool",
        subtask_id=subtask_id,
        plan=plan,
        params=free_params(plan),
    )


def _values_match(expected: object, actual: object) -> bool:
    try:
        return abs(float(expected) - float(actual)) <= NUMERIC_TOLERANCE  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return str(expected).strip() == str(actual).strip()


def _pad_cases(cases: Sequence[ToolTestCase]) -> list[ToolTestCase]:
    if not cases:
        raise InvalidTestCases("unit testing requires at least one case")
    padded = list(cases)
    while len(padded) < REQUIRED_INVOCATIONS:
        padded.append(padded[len(padded) % len(cases)])
    return padded[:REQUIRED_INVOCATIONS]


def _case_failures(
    spec: ToolSpec,
    store: LogStore,
    cases: Sequence[ToolTestCase],
    lists: ListCatalog | None,
) -> list[str]:
    """Invoke the tool once per case and describe every case whose run
    fails or whose values differ from the expected ones."""
    failures: list[str] = []
    for case in cases:
        try:
            result = invoke(spec, case.params, store, lists)
        except AuditError as exc:
            failures.append(f"params {case.params}: {exc.category}: {exc}")
            continue
        mismatches = [
            f"{key}: expected {expected!r}, got {result.values.get(key)!r}"
            for key, expected in case.expected.items()
            if not _values_match(expected, result.values.get(key))
        ]
        if mismatches:
            failures.append(f"params {case.params}: {'; '.join(mismatches)}")
    return failures


def unit_test_tool(
    spec: ToolSpec,
    fixtures: LogStore,
    cases: Sequence[ToolTestCase],
    lists: ListCatalog | None = None,
) -> TestReport:
    """Run the three invocation tests; on pass the spec advances to tested."""
    if spec.status != STATUS_DRAFT:
        raise LifecycleError(f"unit testing requires a draft spec, got {spec.status!r}")
    report = TestReport(failures=_case_failures(spec, fixtures, _pad_cases(cases), lists))
    if report.passed:
        _advance(spec, STATUS_TESTED)
        spec.test_cases = tuple(ToolTestCase(dict(c.params), dict(c.expected)) for c in cases)
    return report


# ---------------------------------------------------------------------------
# Decoration
# ---------------------------------------------------------------------------

def _types_phrase(plan: QueryPlan) -> str:
    return "/".join(t.value for t in plan.select.activity_types)


def _decorated_template(spec: ToolSpec) -> str:
    plan = spec.plan
    param_names = {name for name, _ in spec.params}
    prefix = "User {user}: " if "user" in param_names else ""
    comparator = plan.comparator()
    if isinstance(comparator, BaselineCompareStage):
        return (
            "User {user} has {n} " + _types_phrase(plan) + " events on {day}, {assessment}; "
            "historical mean {mu}, deviation {sigma}."
        )
    if isinstance(comparator, LookupStage):
        return (
            prefix + "checked {n} " + _types_phrase(plan) + " entries; "
            + comparator.list_name + " matches: {matched} ({n_matched} matching entries)."
        )
    aggregate = plan.aggregate()
    if aggregate is not None and plan.group_by() is not None:
        return (
            prefix + "{n} " + _types_phrase(plan) + " entries; " + aggregate.func
            + " per " + plan.group_by().key + ": {by_group} ({n_groups} groups)."
        )
    if aggregate is not None and aggregate.func != "count":
        key = AGG_FUNCS[aggregate.func]
        return (
            prefix + "{n} " + _types_phrase(plan) + " entries; "
            + aggregate.func + f" of {aggregate.field} = {{{key}}}."
        )
    return prefix + "{n} " + _types_phrase(plan) + " entries matched this check."


def decorate_tool(spec: ToolSpec, subtask: SubTask | None = None) -> ToolSpec:
    """Populate documentation and restructure the output into a labeled
    sentence; idempotent on already-decorated specs."""
    if spec.status == STATUS_DECORATED:
        return spec
    if spec.status != STATUS_TESTED:
        raise LifecycleError(f"decoration requires a tested spec, got {spec.status!r}")
    template = _decorated_template(spec)
    validate_template(template, spec.plan)
    description = subtask.description if subtask else spec.subtask_id.replace("-", " ")
    spec.doc = f"{description.rstrip('.')}. This tool {plan_summary(spec.plan)}"
    spec.output_template = template
    _advance(spec, STATUS_DECORATED)
    return spec


# ---------------------------------------------------------------------------
# Built-in fallback tools
# ---------------------------------------------------------------------------

_AFTER_HOURS = tuple(str(h) for h in (0, 1, 2, 3, 4, 5, 21, 22, 23))


def _builtin(name: str, doc: str, plan_text: str, output_template: str) -> ToolSpec:
    plan = parse_plan(plan_text)
    validate_template(output_template, plan)
    return ToolSpec(
        name=name,
        subtask_id=f"builtin:{name}",
        plan=plan,
        doc=doc,
        params=free_params(plan),
        output_template=output_template,
        status=STATUS_DECORATED,
        builtin=True,
    )


def builtin_tools(k_sigma: float = DEFAULT_K_SIGMA) -> dict[str, ToolSpec]:
    """The six canonical fallback tools."""
    k = k_sigma
    return {
        "logon_frequency": _builtin(
            "logon_frequency",
            "Compares a user's logon count on the audited day against their historical per-day rate.",
            f"select activity=Logon user={{user}}\ngroup_by key=user_day\naggregate func=count\nbaseline_compare statistic=mean k_sigma={k}",
            "User {user} logs in {n} times on {day}, {assessment}; historical mean {mu}, deviation {sigma}.",
        ),
        "after_hours_logon": _builtin(
            "after_hours_logon",
            "Compares a user's after-hours (21:00-05:59) logons on the audited day against their history.",
            f"select activity=Logon user={{user}}\nfilter field=hour predicate=in_list value={','.join(_AFTER_HOURS)}\ngroup_by key=user_day\naggregate func=count\nbaseline_compare statistic=mean k_sigma={k}",
            "User {user} has {n} after-hours logons on {day}, {assessment}; historical mean {mu}, deviation {sigma}.",
        ),
        "device_usage_rate": _builtin(
            "device_usage_rate",
            "Compares a user's removable-device connections on the audited day against their history.",
            f"select activity=DeviceConnect user={{user}}\ngroup_by key=user_day\naggregate func=count\nbaseline_compare statistic=mean k_sigma={k}",
            "User {user} connects a drive {n} times on {day}, {assessment}; historical mean {mu}, deviation {sigma}.",
        ),
        "url_legitimacy": _builtin(
            "url_legitimacy",
            "Checks every website a user visited against the untrusted-domain deny list.",
            "select activity=HttpVisit user={user}\nlookup list=untrusted_domains field=url",
            "User {user} visited {n} sites; untrusted-domain matches: {matched} ({n_matched} visits).",
        ),
        "email_keywords": _builtin(
            "email_keywords",
            "Screens a user's outgoing email bodies for disgruntlement/data-theft keywords.",
            "select activity=EmailSend user={user}\nlookup list=disgruntled_keywords field=body",
            "User {user} sent {n} emails; flagged keywords: {matched} ({n_matched} messages).",
        ),
        "executable_download": _builtin(
            "executable_download",
            "Flags website visits whose URL carries an executable-download marker.",
            "select activity=HttpVisit user={user}\nlookup list=executable_markers field=url",
            "User {user} made {n} web visits; executable markers: {matched} ({n_matched} downloads).",
        ),
    }


def match_builtin(subtask: SubTask, k_sigma: float = DEFAULT_K_SIGMA) -> ToolSpec | None:
    """Best built-in for a sub-task, or None; matching is keyword-based."""
    tools = builtin_tools(k_sigma)
    text = subtask.description.lower()
    types = subtask.activity_types

    def pick(name: str) -> ToolSpec:
        clone = replace(tools[name])
        clone.subtask_id = subtask.id
        clone.name = f"{subtask.id}-builtin"
        return clone

    if ActivityType.HTTP_VISIT in types:
        if any(w in text for w in ("download", "executable", "payload")):
            return pick("executable_download")
        if any(w in text for w in ("legitim", "untrusted", "domain", "url", "website", "site")):
            return pick("url_legitimacy")
    if ActivityType.EMAIL_SEND in types:
        return pick("email_keywords")
    if types & {ActivityType.DEVICE_CONNECT, ActivityType.DEVICE_DISCONNECT}:
        return pick("device_usage_rate")
    if ActivityType.LOGON in types or ActivityType.LOGOFF in types:
        if any(w in text for w in ("after-hours", "after hours", "night", "off-hours")):
            return pick("after_hours_logon")
        return pick("logon_frequency")
    return None


# ---------------------------------------------------------------------------
# Orchestration: draft -> test -> repair -> decorate (with builtin fallback)
# ---------------------------------------------------------------------------

@dataclass
class ForgeOutcome:
    spec: ToolSpec | None
    used_builtin: bool
    error: str | None = None


def build_tool_for_subtask(
    subtask: SubTask,
    log_examples: Sequence[LogEntry],
    cases: Sequence[ToolTestCase],
    fixtures: LogStore,
    backend: Backend,
    *,
    lists: ListCatalog | None = None,
    ledger: CostLedger,
    max_repair_attempts: int = DEFAULT_REPAIR_ATTEMPTS,
    k_sigma: float = DEFAULT_K_SIGMA,
    draft_template: PromptTemplate = TOOL_BUILDER,
    repair_template: PromptTemplate = TOOL_REPAIR,
) -> ForgeOutcome:
    """Full lifecycle for one sub-task: ask for a plan (the draft, then up to
    ``max_repair_attempts`` repairs that show the previous plan and its
    errors), parse it, unit-test it, and decorate the first plan that passes.

    Falls back to a built-in (or marks the sub-task unservable) when the
    repair budget runs out or the backend fails; the built-in keeps the
    configured cases only if it passes them all. A template missing a
    variable is a configuration error and still aborts."""
    outcome = ForgeOutcome(spec=None, used_builtin=False)
    if not cases:
        logger.warning("no unit-test cases configured for %s; using builtin fallback", subtask.id)
        outcome.spec = match_builtin(subtask, k_sigma)
        outcome.used_builtin = outcome.spec is not None
        outcome.error = None if outcome.spec else "no test cases and no builtin"
        return outcome
    if not log_examples:
        raise InvalidTestCases("drafting requires at least one log example")

    fields = known_fields(subtask.activity_types)
    template, stage, note = draft_template, "tool-draft", subtask.id
    variables: dict[str, object] = {
        "subtask_description": subtask.description,
        "activity_types": ", ".join(sorted(t.value for t in subtask.activity_types)),
        "schema_fields": ", ".join(sorted(fields)) if fields else "(open schema)",
        "log_examples": _render_log_examples(log_examples),
        "result_examples": "\n".join(
            "  " + (", ".join(f"{k}={v}" for k, v in sorted(case.expected.items())) or "(empty)")
            for case in cases
        ),
    }
    try:
        for attempt in range(max_repair_attempts + 1):
            if attempt:
                template, stage, note = repair_template, "tool-repair", f"{subtask.id}#{attempt}"
                variables = {
                    "subtask_description": subtask.description,
                    "previous_plan": previous or "(no parseable plan)",
                    "errors": "\n".join(f"  - {e}" for e in errors) or "  - (unspecified failure)",
                }
            completion, _ = chat(
                backend, template, variables,
                stage=stage, ledger=ledger, note=note,
            )
            previous = completion.text
            try:
                plan = parse_plan(completion.text)
            except (PlanParseError, PlanInvalid) as exc:
                errors = [f"{exc.category}: {exc}"]
                logger.info("%s attempt %d failed to parse: %s", subtask.id, attempt, exc)
                continue
            spec = _spec_from_plan(subtask.id, plan)
            report = unit_test_tool(spec, fixtures, cases, lists)
            if report.passed:
                outcome.spec = decorate_tool(spec, subtask)
                return outcome
            errors = report.failures
            previous = render_plan(plan)
            logger.info("%s attempt %d failed its tests", subtask.id, attempt)
        cause: AuditError = ToolIrreparable(
            f"tool {subtask.id + '-tool'!r} still failing after {max_repair_attempts} repair attempts"
        )
    except (TransportError, BackendUnreachable, ScriptExhausted) as exc:
        cause = exc
    logger.warning("%s; falling back to builtin for %s", cause, subtask.id)
    fallback = match_builtin(subtask, k_sigma)
    if fallback is not None:
        failures = _case_failures(fallback, fixtures, cases, lists)
        if failures:
            logger.warning("builtin %s fails the cases for %s, so it records none: %s",
                           fallback.name, subtask.id, failures[0])
        else:
            fallback.test_cases = tuple(cases)
        outcome.spec = fallback
        outcome.used_builtin = True
    outcome.error = f"{cause.category}: {cause}"
    return outcome


# ---------------------------------------------------------------------------
# Registry persistence
# ---------------------------------------------------------------------------

def _subtask_doc(subtask: SubTask) -> dict[str, object]:
    return {
        "id": subtask.id,
        "description": subtask.description,
        "activity_types": sorted(t.value for t in subtask.activity_types),
        "required_context": list(subtask.required_context),
    }


def _tool_doc(spec: ToolSpec) -> dict[str, object]:
    return {
        "name": spec.name,
        "subtask_id": spec.subtask_id,
        "doc": spec.doc,
        "params": [list(p) for p in spec.params],
        "plan": render_plan(spec.plan).splitlines(),
        "output_template": spec.output_template,
        "status": spec.status,
        "builtin": spec.builtin,
        "test_cases": [
            {"params": dict(c.params), "expected": dict(c.expected)} for c in spec.test_cases
        ],
    }


def save_registry(specs: Sequence[ToolSpec], subtasks: SubTaskSet, path: str | Path) -> None:
    """Write the registry; only decorated specs may be saved."""
    for spec in specs:
        if spec.status != STATUS_DECORATED:
            raise LifecycleError(f"refusing to save non-decorated spec {spec.name!r}")
    doc = {
        "format": REGISTRY_FORMAT,
        "subtasks": {
            "rounds": subtasks.rounds,
            "items": [_subtask_doc(s) for s in subtasks.subtasks],
        },
        "tools": sorted((_tool_doc(s) for s in specs), key=lambda d: d["name"]),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")


@dataclass
class LoadedRegistry:
    tools: list[ToolSpec]
    subtasks: SubTaskSet
    warnings: list[str] = field(default_factory=list)

    def tool_for(self, subtask_id: str) -> ToolSpec | None:
        for spec in self.tools:
            if spec.subtask_id == subtask_id:
                return spec
        return None


def load_registry(
    path: str | Path,
    store: LogStore | None = None,
    lists: ListCatalog | None = None,
) -> LoadedRegistry:
    """Load and validate a registry.

    Every invariant is re-checked; when a store is supplied, recorded test
    cases are replayed against it and value drift raises RegistryCorrupt.
    Specs whose activity types are absent from the store produce warnings
    instead (their cases cannot run meaningfully).
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise RegistryCorrupt(f"{path}: {exc}")
    if doc.get("format") != REGISTRY_FORMAT:
        raise RegistryCorrupt(f"{path}: bad format tag {doc.get('format')!r}")

    subtasks = []
    for item in doc.get("subtasks", {}).get("items", []):
        try:
            subtasks.append(
                SubTask(
                    id=item["id"],
                    description=item["description"],
                    activity_types=frozenset(ActivityType(t) for t in item["activity_types"]),
                    required_context=tuple(item.get("required_context", [])),
                )
            )
        except (KeyError, ValueError) as exc:
            raise RegistryCorrupt(f"{path}: bad sub-task record: {exc}")
    ids = [s.id for s in subtasks]
    if len(ids) != len(set(ids)):
        raise RegistryCorrupt(f"{path}: duplicate sub-task ids")
    subtask_set = SubTaskSet(subtasks=subtasks, rounds=int(doc.get("subtasks", {}).get("rounds", 0)))

    warnings: list[str] = []
    tools: list[ToolSpec] = []
    store_types = store.activity_types() if store is not None else None

    for item in doc.get("tools", []):
        status = item.get("status")
        if status != STATUS_DECORATED:
            raise RegistryCorrupt(f"{path}: tool {item.get('name')!r} has status {status!r}")
        try:
            plan = parse_plan("\n".join(item["plan"]))
        except (PlanParseError, PlanInvalid, KeyError) as exc:
            raise RegistryCorrupt(f"{path}: tool {item.get('name')!r} plan invalid: {exc}")
        spec = ToolSpec(
            name=item["name"],
            subtask_id=item["subtask_id"],
            plan=plan,
            doc=item.get("doc", ""),
            params=tuple(tuple(p) for p in item.get("params", [])),
            output_template=item.get("output_template", ""),
            status=STATUS_DECORATED,
            builtin=bool(item.get("builtin", False)),
            test_cases=tuple(
                ToolTestCase(params=dict(c["params"]), expected=dict(c["expected"]))
                for c in item.get("test_cases", [])
            ),
        )
        if not spec.doc:
            raise RegistryCorrupt(f"{path}: decorated tool {spec.name!r} has empty doc")
        if spec.params != free_params(plan):
            raise RegistryCorrupt(f"{path}: tool {spec.name!r} params do not cover the plan")
        try:
            validate_template(spec.output_template, plan)
        except TemplateMismatch as exc:
            raise RegistryCorrupt(f"{path}: tool {spec.name!r}: {exc}")
        if spec.subtask_id not in set(ids):
            raise RegistryCorrupt(f"{path}: tool {spec.name!r} references unknown sub-task")

        if store_types is not None:
            missing = set(plan.select.activity_types) - store_types
            if missing:
                warnings.append(
                    f"tool {spec.name!r} uses activity types absent from the store: "
                    f"{sorted(t.value for t in missing)}"
                )
            else:
                failures = _case_failures(spec, store, spec.test_cases, lists)
                if failures:
                    raise RegistryCorrupt(f"{path}: tool {spec.name!r} fails a recorded case: {failures[0]}")
        tools.append(spec)

    for warning in warnings:
        logger.warning("%s", warning)
    return LoadedRegistry(tools=tools, subtasks=subtask_set, warnings=warnings)
