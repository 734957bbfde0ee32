"""Declarative query plans: the closed grammar analysis tools are written in.

A plan is an ordered list of stages — one leading ``select``, then optional
``filter``s, at most one ``group_by``, an ``aggregate``, and an optional
trailing comparator (``baseline_compare`` or ``lookup``). Plans are parsed
from and rendered to a line-oriented text form so backends can emit them.
"""

from __future__ import annotations

import re
import shlex
from dataclasses import dataclass
from typing import Iterable, Union

from .errors import PlanInvalid, PlanParseError
from .logstore import ActivityType

# Fields every entry exposes regardless of payload.
CORE_FIELDS = frozenset({"entry_id", "user", "host", "day", "hour", "activity"})

# Known payload fields per activity type; None means the schema is open
# (Zeek streams carry whatever columns their #fields header declares).
PAYLOAD_FIELDS: dict[ActivityType, frozenset[str] | None] = {
    ActivityType.LOGON: frozenset(),
    ActivityType.LOGOFF: frozenset(),
    ActivityType.DEVICE_CONNECT: frozenset(),
    ActivityType.DEVICE_DISCONNECT: frozenset(),
    ActivityType.HTTP_VISIT: frozenset({"url", "content"}),
    ActivityType.EMAIL_SEND: frozenset({"to", "from", "cc", "bcc", "size", "attachments", "body"}),
    ActivityType.FILE_OP: frozenset({"filename", "content"}),
    ActivityType.ZEEK_AUTH: None,
    ActivityType.ZEEK_NETWORK: None,
    ActivityType.ZEEK_FILE: None,
    ActivityType.ZEEK_SYSTEM: None,
    ActivityType.ZEEK_ANOMALY: None,
}

PARAM_RE = re.compile(r"^\{(\w+)\}$")

PREDICATES = ("equals", "contains", "matches_glob", "in_list", "numeric_cmp")
NUMERIC_OPS = ("lt", "le", "gt", "ge", "eq", "ne")
GROUP_KEYS = ("user", "day", "user_day", "host")
# Aggregate funcs, each mapped to the result field that holds its value.
AGG_FUNCS = {"count": "n", "distinct_count": "n_distinct", "mean": "mean",
             "std": "std", "max": "max", "min": "min"}


@dataclass(frozen=True)
class SelectStage:
    activity_types: tuple[ActivityType, ...]
    user: str | None = None      # literal id or "{user}" param; None names no user
    day: str | None = None       # ISO date or "{day}" param
    day_from: str | None = None
    day_to: str | None = None


@dataclass(frozen=True)
class FilterStage:
    field: str
    predicate: str
    value: Union[str, tuple[str, ...]]
    op: str | None = None        # numeric_cmp only


@dataclass(frozen=True)
class GroupByStage:
    key: str


@dataclass(frozen=True)
class AggregateStage:
    func: str
    field: str | None = None


DEFAULT_K_SIGMA = 2.0


@dataclass(frozen=True)
class BaselineCompareStage:
    statistic: str = "mean"
    k_sigma: float = DEFAULT_K_SIGMA


@dataclass(frozen=True)
class LookupStage:
    list_name: str
    field: str


Stage = Union[SelectStage, FilterStage, GroupByStage, AggregateStage, BaselineCompareStage, LookupStage]


@dataclass(frozen=True)
class QueryPlan:
    stages: tuple[Stage, ...]

    @property
    def select(self) -> SelectStage:
        return self.stages[0]  # validated: first stage is the select

    def filters(self) -> list[FilterStage]:
        return [s for s in self.stages if isinstance(s, FilterStage)]

    def group_by(self) -> GroupByStage | None:
        for stage in self.stages:
            if isinstance(stage, GroupByStage):
                return stage
        return None

    def aggregate(self) -> AggregateStage | None:
        for stage in self.stages:
            if isinstance(stage, AggregateStage):
                return stage
        return None

    def comparator(self) -> BaselineCompareStage | LookupStage | None:
        last = self.stages[-1]
        if isinstance(last, (BaselineCompareStage, LookupStage)):
            return last
        return None


# ---------------------------------------------------------------------------
# Parsing / rendering
# ---------------------------------------------------------------------------

_STAGE_NAMES = ("select", "filter", "group_by", "aggregate", "baseline_compare", "lookup")


def _kv_tokens(tokens: list[str], line: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for token in tokens:
        if "=" not in token:
            raise PlanParseError(f"expected key=value, got {token!r} in line {line!r}")
        key, _, value = token.partition("=")
        pairs[key.strip()] = value.strip()
    return pairs


def _parse_stage(line: str) -> Stage:
    try:
        tokens = shlex.split(line)
    except ValueError as exc:
        raise PlanParseError(f"unbalanced quoting in line {line!r}: {exc}")
    name, args = tokens[0], _kv_tokens(tokens[1:], line)

    if name == "select":
        if "activity" not in args:
            raise PlanParseError(f"select requires activity= in line {line!r}")
        types = []
        for part in args["activity"].split(","):
            try:
                types.append(ActivityType.from_name(part))
            except ValueError as exc:
                raise PlanParseError(str(exc))
        return SelectStage(
            activity_types=tuple(types),
            user=args.get("user"),
            day=args.get("day"),
            day_from=args.get("day_from"),
            day_to=args.get("day_to"),
        )
    if name == "filter":
        predicate = args.get("predicate", "")
        if predicate not in PREDICATES:
            raise PlanParseError(f"unknown predicate {predicate!r} in line {line!r}")
        if "field" not in args or "value" not in args:
            raise PlanParseError(f"filter requires field= and value= in line {line!r}")
        value: Union[str, tuple[str, ...]] = args["value"]
        if predicate == "in_list":
            value = tuple(v.strip() for v in args["value"].split(",") if v.strip())
        op = args.get("op")
        if predicate == "numeric_cmp":
            if op not in NUMERIC_OPS:
                raise PlanParseError(f"numeric_cmp requires op= one of {NUMERIC_OPS}")
        elif op is not None:
            raise PlanParseError(f"op= is only valid for numeric_cmp in line {line!r}")
        return FilterStage(field=args["field"], predicate=predicate, value=value, op=op)
    if name == "group_by":
        key = args.get("key", "")
        if key not in GROUP_KEYS:
            raise PlanParseError(f"unknown group key {key!r} in line {line!r}")
        return GroupByStage(key=key)
    if name == "aggregate":
        func = args.get("func", "")
        if func not in AGG_FUNCS:
            raise PlanParseError(f"unknown aggregate func {func!r} in line {line!r}")
        field = args.get("field")
        if func in ("mean", "std", "max", "min", "distinct_count") and not field:
            raise PlanParseError(f"aggregate {func} requires field= in line {line!r}")
        return AggregateStage(func=func, field=field)
    if name == "baseline_compare":
        statistic = args.get("statistic", "mean")
        try:
            k_sigma = float(args.get("k_sigma", DEFAULT_K_SIGMA))
        except ValueError:
            raise PlanParseError(f"bad k_sigma in line {line!r}")
        return BaselineCompareStage(statistic=statistic, k_sigma=k_sigma)
    if name == "lookup":
        if "list" not in args or "field" not in args:
            raise PlanParseError(f"lookup requires list= and field= in line {line!r}")
        return LookupStage(list_name=args["list"], field=args["field"])
    raise PlanParseError(f"unknown stage {name!r}")


def parse_plan(text: str) -> QueryPlan:
    """Extract and parse the stage lines of a completion.

    Lines whose first token is not a stage name are ignored, so completions
    may carry prose around the plan. The parsed plan is validated.
    """
    stages: list[Stage] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        first = line.split(None, 1)[0].rstrip(":")
        if first in _STAGE_NAMES:
            stages.append(_parse_stage(line))
    if not stages:
        raise PlanParseError("no stage lines found in completion")
    plan = QueryPlan(stages=tuple(stages))
    validate_plan(plan)
    return plan


def render_stage(stage: Stage) -> str:
    def quote(value: str) -> str:
        return shlex.quote(value)

    if isinstance(stage, SelectStage):
        parts = ["select", "activity=" + ",".join(t.value for t in stage.activity_types)]
        for key in ("user", "day", "day_from", "day_to"):
            value = getattr(stage, key)
            if value is not None:
                parts.append(f"{key}={quote(value)}")
        return " ".join(parts)
    if isinstance(stage, FilterStage):
        value = ",".join(stage.value) if isinstance(stage.value, tuple) else stage.value
        parts = ["filter", f"field={stage.field}", f"predicate={stage.predicate}",
                 f"value={quote(value)}"]
        if stage.op:
            parts.append(f"op={stage.op}")
        return " ".join(parts)
    if isinstance(stage, GroupByStage):
        return f"group_by key={stage.key}"
    if isinstance(stage, AggregateStage):
        line = f"aggregate func={stage.func}"
        return line + (f" field={stage.field}" if stage.field else "")
    if isinstance(stage, BaselineCompareStage):
        return f"baseline_compare statistic={stage.statistic} k_sigma={stage.k_sigma}"
    if isinstance(stage, LookupStage):
        return f"lookup list={stage.list_name} field={stage.field}"
    raise TypeError(f"unknown stage type {type(stage)!r}")


def render_plan(plan: QueryPlan) -> str:
    return "\n".join(render_stage(s) for s in plan.stages)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def known_fields(activity_types: Iterable[ActivityType]) -> frozenset[str] | None:
    """Fields visible to a plan over the given types; None = open schema."""
    fields: set[str] = set(CORE_FIELDS)
    for activity in activity_types:
        payload = PAYLOAD_FIELDS[activity]
        if payload is None:
            return None
        fields |= payload
    return frozenset(fields)


def validate_plan(plan: QueryPlan) -> None:
    """Enforce the structural invariants of the grammar."""
    stages = plan.stages
    selects = [s for s in stages if isinstance(s, SelectStage)]
    if len(selects) != 1:
        raise PlanInvalid(f"plan must have exactly one select, found {len(selects)}")
    if not isinstance(stages[0], SelectStage):
        raise PlanInvalid(f"select must be the first stage, found {type(stages[0]).__name__}")

    group_bys = [s for s in stages if isinstance(s, GroupByStage)]
    if len(group_bys) > 1:
        raise PlanInvalid("at most one group_by is allowed")
    aggregates = [s for s in stages if isinstance(s, AggregateStage)]
    if len(aggregates) > 1:
        raise PlanInvalid("at most one aggregate is allowed")

    # Stage ordering: select, filters, group_by, aggregate, comparator.
    order = {SelectStage: 0, FilterStage: 1, GroupByStage: 2, AggregateStage: 3,
             BaselineCompareStage: 4, LookupStage: 4}
    ranks = [order[type(s)] for s in stages]
    if ranks != sorted(ranks):
        raise PlanInvalid("stages out of order (select, filter*, group_by?, aggregate?, comparator?)")

    comparators = [s for s in stages if isinstance(s, (BaselineCompareStage, LookupStage))]
    if len(comparators) > 1:
        raise PlanInvalid("at most one comparator stage is allowed")

    baseline = next((s for s in stages if isinstance(s, BaselineCompareStage)), None)
    if baseline is not None:
        if not aggregates:
            raise PlanInvalid("baseline_compare requires a preceding aggregate")
        if not group_bys or group_bys[0].key not in ("user_day", "day"):
            raise PlanInvalid("baseline_compare requires group_by key=user_day or key=day")
        if aggregates[0].func not in ("count", "distinct_count"):
            raise PlanInvalid("baseline_compare supports count aggregates only")
        if baseline.statistic != "mean":
            raise PlanInvalid(f"unknown baseline statistic {baseline.statistic!r}")
        if baseline.k_sigma <= 0:
            raise PlanInvalid("k_sigma must be positive")
        if plan.select.day is not None:
            raise PlanInvalid("baseline_compare needs full history; select must not pin a day")

    fields = known_fields(plan.select.activity_types)
    if fields is not None:
        referenced = [(s.field, "filter") for s in plan.filters()]
        referenced += [(s.field, "aggregate") for s in aggregates if s.field]
        referenced += [(s.field, "lookup") for s in stages if isinstance(s, LookupStage)]
        for name, where in referenced:
            if name not in fields:
                raise PlanInvalid(
                    f"unknown field {name!r} in {where} for activity types "
                    f"{[t.value for t in plan.select.activity_types]}"
                )


# ---------------------------------------------------------------------------
# Parameters and result shape
# ---------------------------------------------------------------------------

_SEMANTIC_TYPES = {"user": "principal", "day": "date", "day_from": "date", "day_to": "date"}


def free_params(plan: QueryPlan) -> tuple[tuple[str, str], ...]:
    """Parameters the caller must bind, as (name, semantic type) pairs."""
    params: dict[str, str] = {}
    select = plan.select
    for key in ("user", "day", "day_from", "day_to"):
        value = getattr(select, key)
        if value is not None:
            match = PARAM_RE.match(value)
            if match:
                name = match.group(1)
                params[name] = _SEMANTIC_TYPES.get(name, "string")
    for stage in plan.stages:
        if isinstance(stage, FilterStage) and isinstance(stage.value, str):
            match = PARAM_RE.match(stage.value)
            if match:
                name = match.group(1)
                params[name] = _SEMANTIC_TYPES.get(name, "string")
    if any(isinstance(s, BaselineCompareStage) for s in plan.stages):
        # The comparison is anchored to one (user, day) under audit.
        params.setdefault("user", "principal")
        params.setdefault("day", "date")
    return tuple(sorted(params.items()))


def plan_result_fields(plan: QueryPlan) -> frozenset[str]:
    """Names available to output templates for this plan."""
    fields = {"n"}
    fields.update(name for name, _ in free_params(plan))
    aggregate = plan.aggregate()
    comparator = plan.comparator()
    if isinstance(comparator, BaselineCompareStage):
        fields |= {"mu", "sigma", "deviation", "threshold", "assessment"}
    elif isinstance(comparator, LookupStage):
        fields |= {"n_matched", "matched", "list_name"}
    elif aggregate is not None:
        if plan.group_by() is not None:
            fields |= {"n_groups", "by_group"}
        else:
            fields.add(AGG_FUNCS[aggregate.func])
    return frozenset(fields)


def plan_summary(plan: QueryPlan) -> str:
    """One-sentence description of what the plan computes."""
    select = plan.select
    types = ", ".join(t.value for t in select.activity_types)
    parts = [f"selects {types} entries"]
    if select.user:
        parts.append(f"for user {select.user}")
    for filt in plan.filters():
        value = ",".join(filt.value) if isinstance(filt.value, tuple) else filt.value
        parts.append(f"where {filt.field} {filt.op or filt.predicate} {value}")
    group = plan.group_by()
    aggregate = plan.aggregate()
    if aggregate:
        target = f" of {aggregate.field}" if aggregate.field else ""
        parts.append(f"computes {aggregate.func}{target}" + (f" per {group.key}" if group else ""))
    comparator = plan.comparator()
    if isinstance(comparator, BaselineCompareStage):
        parts.append(
            f"and compares the audited day against the user's historical "
            f"{comparator.statistic} at {comparator.k_sigma} deviations"
        )
    elif isinstance(comparator, LookupStage):
        parts.append(f"and checks {comparator.field} against the {comparator.list_name} list")
    return "; ".join(parts) + "."
