"""Tool builder: drafts query plans from examples, builds each parsed plan
into a finished tool (params, doc, labelled output template, cases), and
persists the tools in a reusable registry.

One rule decides what is served: a tool is served only if its select binds
``user={user}``, so that it reads the audited user's rows alone, and it
passes every one of its check's unit-test cases. Drafts get error-feedback
repairs; when none passes, one of six built-in tools is served in its place
under the same rule, and otherwise the check is unservable.
"""

from __future__ import annotations

import json
import logging
import string
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .decomposer import SubTask, SubTaskSet
from .errors import (
    AuditError,
    BackendUnreachable,
    PlanInvalid,
    PlanParseError,
    RegistryCorrupt,
    ScriptExhausted,
    TemplateMismatch,
    ToolIrreparable,
    TransportError,
)
from .gateway import Backend, CostLedger, PromptTemplate, chat
from .logstore import ActivityType, LogEntry, Snapshot, UserSequence
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

if TYPE_CHECKING:
    from .logstore import LogStore

logger = logging.getLogger(__name__)

# Every tool in a registry file carries this status; any other is corrupt.
STATUS_DECORATED = "decorated"

DEFAULT_REPAIR_ATTEMPTS = 3
REGISTRY_FORMAT = "audit-registry/1"

NUMERIC_TOLERANCE = 1e-9

# Every served tool's select reads the rows of the user it is invoked for.
USER_BINDING = "{user}"


@dataclass(frozen=True)
class ToolTestCase:
    params: dict[str, str]
    expected: dict[str, object]


@dataclass(frozen=True)
class ToolSpec:
    """A reusable log-analysis tool, built whole."""

    name: str
    subtask_id: str
    plan: QueryPlan
    doc: str = ""
    params: tuple[tuple[str, str], ...] = ()
    output_template: str = ""
    builtin: bool = False
    test_cases: tuple[ToolTestCase, ...] = ()


def template_placeholders(template: str) -> set[str]:
    return {f for _, f, _, _ in string.Formatter().parse(template) if f}


def validate_template(template: str, plan: QueryPlan) -> None:
    extra = template_placeholders(template) - set(plan_result_fields(plan))
    if extra:
        raise TemplateMismatch(f"template references fields the plan does not produce: {sorted(extra)}")


# ---------------------------------------------------------------------------
# Drafted tools and unit testing
# ---------------------------------------------------------------------------

def _render_log_examples(entries: Sequence[LogEntry]) -> str:
    lines = []
    for entry in entries:
        payload = ", ".join(f"{k}={v}" for k, v in sorted(entry.payload.items()))
        lines.append(
            f"  {entry.entry_id} | {entry.timestamp} | {entry.activity.value} "
            f"| user={entry.user} | host={entry.host}" + (f" | {payload}" if payload else "")
        )
    return "\n".join(lines)


def _values_match(expected: object, actual: object) -> bool:
    try:
        return abs(float(expected) - float(actual)) <= NUMERIC_TOLERANCE  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return str(expected).strip() == str(actual).strip()


def unit_test_tool(
    spec: ToolSpec,
    users: Mapping[str, UserSequence],
    cases: Sequence[ToolTestCase],
    lists: ListCatalog | None = None,
) -> list[str]:
    """Invoke the tool once per case on these users' sequences and describe
    every case whose run fails or whose values differ from the expected ones."""
    failures: list[str] = []
    for case in cases:
        try:
            result = invoke(spec, case.params, users, lists)
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


def serving_failures(
    spec: ToolSpec,
    users: Mapping[str, UserSequence],
    cases: Sequence[ToolTestCase],
    lists: ListCatalog | None = None,
) -> list[str]:
    """Why the tool may not be served: a select not bound to ``user={user}``,
    or else the cases it fails."""
    if spec.plan.select.user != USER_BINDING:
        bound = "no user" if spec.plan.select.user is None else f"user={spec.plan.select.user}"
        return [f"select reads {bound}; a served tool must select user={USER_BINDING}"]
    return unit_test_tool(spec, users, cases, lists)


def _types_phrase(plan: QueryPlan) -> str:
    return "/".join(t.value for t in plan.select.activity_types)


def _labelled_template(plan: QueryPlan, params: tuple[tuple[str, str], ...]) -> str:
    param_names = {name for name, _ in params}
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


def drafted_tool(subtask: SubTask, plan: QueryPlan, cases: Sequence[ToolTestCase]) -> ToolSpec:
    """The finished tool for a parsed plan: its params, a doc from the check's
    description, a labelled output sentence, and the cases it must pass."""
    params = free_params(plan)
    template = _labelled_template(plan, params)
    validate_template(template, plan)
    return ToolSpec(
        name=f"{subtask.id}-tool",
        subtask_id=subtask.id,
        plan=plan,
        doc=f"{subtask.description.rstrip('.')}. This tool {plan_summary(plan)}",
        params=params,
        output_template=template,
        test_cases=tuple(cases),
    )


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
        return replace(tools[name], name=f"{subtask.id}-builtin", subtask_id=subtask.id)

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
# Orchestration: draft -> test -> repair (with builtin fallback)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ForgeOutcome:
    """The tool served for one check, None if the check is unservable, and
    why no drafted tool was served."""

    spec: ToolSpec | None
    error: str | None = None

    @property
    def used_builtin(self) -> bool:
        return self.spec is not None and self.spec.builtin


def build_tool_for_subtask(
    subtask: SubTask,
    log_examples: Sequence[LogEntry],
    cases: Sequence[ToolTestCase],
    fixtures: Mapping[str, UserSequence],
    backend: Backend,
    *,
    lists: ListCatalog | None = None,
    ledger: CostLedger,
    max_repair_attempts: int = DEFAULT_REPAIR_ATTEMPTS,
    k_sigma: float = DEFAULT_K_SIGMA,
    draft_template: PromptTemplate = TOOL_BUILDER,
    repair_template: PromptTemplate = TOOL_REPAIR,
) -> ForgeOutcome:
    """Serve one check a tool that passes every one of its cases: ask for a
    plan (the draft, then up to ``max_repair_attempts`` repairs that show the
    previous plan and its errors), build each parsed plan into a tool, and
    serve the first that passes on the ``fixtures`` users' sequences.

    When no draft passes, the backend fails, or the check has no cases or no
    log examples to draft from, the check's built-in is served if it passes
    the cases, and otherwise the check is unservable. A template missing a
    variable is a configuration error and still aborts."""
    if not cases:
        cause = "no unit-test cases configured"
    elif not log_examples:
        cause = "no log examples of the check's activity types"
    else:
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
                spec = drafted_tool(subtask, plan, cases)
                errors = serving_failures(spec, fixtures, cases, lists)
                if not errors:
                    return ForgeOutcome(spec)
                previous = render_plan(plan)
                logger.info("%s attempt %d failed its tests", subtask.id, attempt)
            failure: AuditError = ToolIrreparable(
                f"tool {subtask.id + '-tool'!r} still failing after {max_repair_attempts} repair attempts"
            )
        except (TransportError, BackendUnreachable, ScriptExhausted) as exc:
            failure = exc
        cause = f"{failure.category}: {failure}"
    logger.warning("%s; falling back to builtin for %s", cause, subtask.id)
    fallback = match_builtin(subtask, k_sigma)
    if fallback is None:
        return ForgeOutcome(None, cause)
    failures = serving_failures(fallback, fixtures, cases, lists)
    if failures:
        return ForgeOutcome(None, f"{cause}; builtin {fallback.name!r} fails a case: {failures[0]}")
    return ForgeOutcome(replace(fallback, test_cases=tuple(cases)), cause)


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
        "status": STATUS_DECORATED,
        "builtin": spec.builtin,
        "test_cases": [
            {"params": dict(c.params), "expected": dict(c.expected)} for c in spec.test_cases
        ],
    }


def save_registry(specs: Sequence[ToolSpec], subtasks: SubTaskSet, path: str | Path) -> None:
    """Write the registry."""
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


def case_users(cases: Iterable[ToolTestCase]) -> set[str]:
    """The users whose rows these cases select."""
    return {str(case.params["user"]) for case in cases if "user" in case.params}


def load_registry(
    path: str | Path,
    store: LogStore | Snapshot | None = None,
    lists: ListCatalog | None = None,
) -> LoadedRegistry:
    """Load and validate a registry.

    Every invariant is re-checked; a tool whose select is not bound to
    ``user={user}`` is corrupt. When a store is supplied, recorded test cases
    are replayed on their users' sequences, which is all a bound tool reads,
    and value drift raises RegistryCorrupt. Specs whose activity types are
    absent from the store produce warnings instead (their cases cannot run
    meaningfully).
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

    tools: list[ToolSpec] = []
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
            builtin=bool(item.get("builtin", False)),
            test_cases=tuple(
                ToolTestCase(params=dict(c["params"]), expected=dict(c["expected"]))
                for c in item.get("test_cases", [])
            ),
        )
        if not spec.doc:
            raise RegistryCorrupt(f"{path}: tool {spec.name!r} has empty doc")
        if spec.params != free_params(plan):
            raise RegistryCorrupt(f"{path}: tool {spec.name!r} params do not cover the plan")
        if plan.select.user != USER_BINDING:
            raise RegistryCorrupt(f"{path}: tool {spec.name!r} does not select "
                                  f"user={USER_BINDING}")
        try:
            validate_template(spec.output_template, plan)
        except TemplateMismatch as exc:
            raise RegistryCorrupt(f"{path}: tool {spec.name!r}: {exc}")
        if spec.subtask_id not in set(ids):
            raise RegistryCorrupt(f"{path}: tool {spec.name!r} references unknown sub-task")
        tools.append(spec)

    warnings: list[str] = []
    if store is not None:
        store_types = store.activity_types()
        replayed = []
        for spec in tools:
            missing = set(spec.plan.select.activity_types) - store_types
            if missing:
                warnings.append(
                    f"tool {spec.name!r} uses activity types absent from the store: "
                    f"{sorted(t.value for t in missing)}"
                )
            else:
                replayed.append(spec)
        fixtures = {seq.user: seq for seq in store.sequences(
            case_users(chain.from_iterable(s.test_cases for s in replayed)))}
        for spec in replayed:
            failures = unit_test_tool(spec, fixtures, spec.test_cases, lists)
            if failures:
                # The case users' lines were read unchecked: a snapshot edited
                # after ingest fails its digest rather than the registry.
                if isinstance(store, Snapshot):
                    store.verify()
                raise RegistryCorrupt(f"{path}: tool {spec.name!r} fails a recorded case: {failures[0]}")

    for warning in warnings:
        logger.warning("%s", warning)
    return LoadedRegistry(tools=tools, subtasks=subtask_set, warnings=warnings)
