"""Query-plan interpreter over one user's full history.

This is where tools get the global context a prompt window cannot hold:
full-history baselines, per-day rates, and allow/deny list lookups. All
functions are pure over the immutable sequences, so invocations parallelize
freely across users and sub-tasks.
"""

from __future__ import annotations

import fnmatch
import functools
import logging
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
from statistics import fmean, pstdev
from typing import TYPE_CHECKING, Iterable, Mapping
from urllib.parse import urlparse

from .errors import InsufficientHistory, MalformedUrl, ParamMissing, PlanInvalid, UnknownList
from .logstore import LogEntry, UserSequence
from .plans import (
    AGG_FUNCS,
    PARAM_RE,
    AggregateStage,
    BaselineCompareStage,
    FilterStage,
    LookupStage,
    QueryPlan,
    SelectStage,
)

if TYPE_CHECKING:
    from .forge import ToolSpec

logger = logging.getLogger(__name__)

HINT_SUSPICIOUS = "suspicious"
HINT_NORMAL = "normal"

ASSESS_ABOVE = "above average"
ASSESS_BELOW = "below average"
ASSESS_NORMAL = "within normal range"

# Cap on ids kept as comparator evidence and on rendered group summaries.
EVIDENCE_CAP = 200
GROUP_SUMMARY_CAP = 8


# ---------------------------------------------------------------------------
# Lists
# ---------------------------------------------------------------------------

LIST_KINDS = ("domain_deny", "domain_allow", "keyword")


@dataclass(frozen=True)
class ListDef:
    """A named allow/deny/keyword list used by lookup stages."""

    name: str
    kind: str
    values: frozenset[str]

    def __post_init__(self) -> None:
        if self.kind not in LIST_KINDS:
            raise ValueError(f"unknown list kind {self.kind!r}")


ListCatalog = Mapping[str, ListDef]


def load_list_file(name: str, kind: str, path: str | Path) -> ListDef:
    """Read a newline-delimited list file; blank lines and # comments skipped."""
    values = set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            values.add(line.lower())
    return ListDef(name=name, kind=kind, values=frozenset(values))


# ---------------------------------------------------------------------------
# URL domains
# ---------------------------------------------------------------------------

# Tools look up the same few URLs across a fleet; a bad URL is not cached
# and raises on every call.
@functools.lru_cache(maxsize=4096)
def extract_domain(url: str) -> str:
    """Host portion of a URL, lowercased, port stripped."""
    if not url or not url.strip():
        raise MalformedUrl("empty url")
    candidate = url.strip()
    try:
        parsed = urlparse(candidate)
        if not parsed.netloc:
            # Tolerate scheme-less forms like "www.example.com/x".
            if " " in candidate or "." not in candidate:
                raise MalformedUrl(f"no host portion in {url!r}")
            parsed = urlparse("//" + candidate)
    except ValueError as exc:  # such as a host with an unbalanced IPv6 bracket
        raise MalformedUrl(f"unparseable url {url!r}: {exc}") from None
    host = parsed.netloc.rpartition("@")[2].partition(":")[0].lower()
    if not host or "." not in host:
        raise MalformedUrl(f"no host portion in {url!r}")
    return host


def _domain_matches(domain: str, listed: Iterable[str]) -> bool:
    for item in listed:
        if domain == item or domain.endswith("." + item):
            return True
    return False


# ---------------------------------------------------------------------------
# Field access and filtering
# ---------------------------------------------------------------------------

def field_value(entry: LogEntry, name: str) -> object | None:
    if name == "entry_id":
        return entry.entry_id
    if name == "user":
        return entry.user
    if name == "host":
        return entry.host
    if name == "day":
        return entry.day
    if name == "hour":
        return int(entry.timestamp[11:13])
    if name == "activity":
        return entry.activity.value
    return entry.payload.get(name)


def _as_float(value: object) -> float | None:
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None


def apply_filter(entries: list[LogEntry], filt: FilterStage, params: Mapping[str, str]) -> list[LogEntry]:
    value = filt.value
    if isinstance(value, str):
        match = PARAM_RE.match(value)
        if match:
            name = match.group(1)
            if name not in params:
                raise ParamMissing(name)
            value = params[name]

    def keep(entry: LogEntry) -> bool:
        actual = field_value(entry, filt.field)
        if actual is None:
            return False
        if filt.predicate == "equals":
            return str(actual) == value
        if filt.predicate == "contains":
            return str(value).lower() in str(actual).lower()
        if filt.predicate == "matches_glob":
            return fnmatch.fnmatchcase(str(actual).lower(), str(value).lower())
        if filt.predicate == "in_list":
            members = value if isinstance(value, tuple) else (str(value),)
            return str(actual) in members
        number = _as_float(actual)
        target = _as_float(value)
        if number is None or target is None:
            return False
        return {
            "lt": number < target,
            "le": number <= target,
            "gt": number > target,
            "ge": number >= target,
            "eq": number == target,
            "ne": number != target,
        }[filt.op or "eq"]

    return [e for e in entries if keep(e)]


def _bind(raw: str | None, params: Mapping[str, str], *, required_by: str) -> str | None:
    if raw is None:
        return None
    match = PARAM_RE.match(raw)
    if not match:
        return raw
    name = match.group(1)
    if name not in params:
        raise ParamMissing(f"{name} (required by {required_by})")
    return str(params[name])


def select_entries(sequence: UserSequence, select: SelectStage,
                   params: Mapping[str, str]) -> list[LogEntry]:
    """The entries of one user's sequence that the select stage picks, in
    the sequence's order: those of its activity types, on its days."""
    day = _bind(select.day, params, required_by="select")
    day_from = _bind(select.day_from, params, required_by="select")
    day_to = _bind(select.day_to, params, required_by="select")
    types = select.activity_types
    candidates = [e for e in sequence.entries if e.activity in types]
    if day is None and day_from is None and day_to is None:
        return candidates

    return [e for e in candidates if (day is None or e.day == day)
            and (day_from is None or e.day >= day_from) and (day_to is None or e.day <= day_to)]


def group_entries(entries: list[LogEntry], key: str) -> dict[str, list[LogEntry]]:
    groups: dict[str, list[LogEntry]] = {}
    for entry in entries:
        if key == "user":
            name = entry.user
        elif key == "day":
            name = entry.day
        elif key == "user_day":
            name = f"{entry.user}|{entry.day}"
        else:
            name = entry.host
        groups.setdefault(name, []).append(entry)
    return groups


def aggregate_value(entries: list[LogEntry], agg: AggregateStage) -> float | int | None:
    if agg.func == "count":
        return len(entries)
    values = [field_value(e, agg.field or "") for e in entries]
    if agg.func == "distinct_count":
        return len({str(v) for v in values if v is not None})
    numbers = [f for f in (_as_float(v) for v in values) if f is not None]
    if not numbers:
        return None
    if agg.func == "mean":
        return fmean(numbers)
    if agg.func == "std":
        return pstdev(numbers)
    if agg.func == "max":
        return max(numbers)
    return min(numbers)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

def _window_days(window: tuple[str, str]) -> list[str]:
    """The ISO dates from the window's first to its last."""
    start, end = map(date.fromisoformat, window)
    if end < start:
        raise ValueError("window end precedes start")
    return [(start + timedelta(days=i)).isoformat() for i in range((end - start).days + 1)]


def daily_counts(entries: Iterable[LogEntry], window: tuple[str, str]) -> dict[str, int]:
    """Entries per ISO date across the window, zero-filled for empty days."""
    counts = {d: 0 for d in _window_days(window)}
    for entry in entries:
        if entry.day in counts:
            counts[entry.day] += 1
    return counts


# ---------------------------------------------------------------------------
# Invocation
# ---------------------------------------------------------------------------

@dataclass
class ToolResult:
    """Outcome of one tool invocation."""

    tool_name: str
    bound_params: dict[str, str]
    values: dict[str, object]
    rendered: str
    verdict_hint: str | None = None
    evidence: tuple[str, ...] = ()


def _require_params(spec: "ToolSpec", params: Mapping[str, str]) -> dict[str, str]:
    bound: dict[str, str] = {}
    for name, _semantic in spec.params:
        if name not in params:
            raise ParamMissing(name)
        bound[name] = str(params[name])
    return bound


def _format_number(value: object) -> object:
    if isinstance(value, float):
        return round(value, 4)
    return value


def _baseline_over_selection(
    selection: list[LogEntry],
    sequence: UserSequence | None,
    user: str,
    audit_day: str,
) -> tuple[list[int], list[LogEntry]]:
    """Per-day history series for the filtered selection, excluding the
    audited day, zero-filled over the user's active span."""
    if sequence is None:
        raise InsufficientHistory(f"user {user!r} has no history in the store")
    counts = daily_counts(selection, sequence.day_range())
    current_entries = [e for e in selection if e.day == audit_day]
    history = [counts[d] for d in sorted(counts) if d != audit_day]
    if not history:
        raise InsufficientHistory(
            f"no days outside {audit_day} for user {user!r}"
        )
    return history, current_entries


def invoke(
    spec: "ToolSpec",
    params: Mapping[str, str],
    users: Mapping[str, UserSequence],
    lists: ListCatalog | None = None,
) -> ToolResult:
    """Evaluate a tool's plan over the full history of the one user its
    select names, read from ``users``, deterministically. A select that
    names no user is invalid; one that names a user absent from ``users``
    selects nothing.

    The comparison stages decide the verdict hint: a baseline comparison is
    suspicious iff |current - mean| > k_sigma * std; a lookup is suspicious
    iff it matched anything on a deny or keyword list.
    """
    plan: QueryPlan = spec.plan
    bound = _require_params(spec, params)
    values: dict[str, object] = dict(bound)
    evidence: tuple[str, ...] = ()
    hint: str | None = None

    user = _bind(plan.select.user, bound, required_by="select")
    if user is None:
        raise PlanInvalid(f"tool {spec.name!r}: the select names no user")
    sequence = users.get(user)
    selection = [] if sequence is None else select_entries(sequence, plan.select, bound)
    for filt in plan.filters():
        selection = apply_filter(selection, filt, bound)
    values["n"] = len(selection)

    comparator = plan.comparator()
    aggregate = plan.aggregate()
    group = plan.group_by()

    if isinstance(comparator, BaselineCompareStage):
        audit_day = date.fromisoformat(bound["day"]).isoformat()
        history, current_entries = _baseline_over_selection(selection, sequence, user, audit_day)
        current = len(current_entries)
        mu = fmean(history)
        sigma = pstdev(history)
        deviation = abs(current - mu)
        threshold = comparator.k_sigma * sigma
        suspicious = deviation > threshold
        if suspicious:
            assessment = ASSESS_ABOVE if current > mu else ASSESS_BELOW
        else:
            assessment = ASSESS_NORMAL
        hint = HINT_SUSPICIOUS if suspicious else HINT_NORMAL
        values.update(
            n=current,
            mu=_format_number(mu),
            sigma=_format_number(sigma),
            deviation=_format_number(deviation),
            threshold=_format_number(threshold),
            assessment=assessment,
        )
        if suspicious:
            evidence = tuple(e.entry_id for e in current_entries[:EVIDENCE_CAP])
    elif isinstance(comparator, LookupStage):
        if lists is None or comparator.list_name not in lists:
            raise UnknownList(comparator.list_name)
        listdef = lists[comparator.list_name]
        keywords = sorted(listdef.values)
        matched_entries: list[LogEntry] = []
        matched_values: list[str] = []
        for entry in selection:
            raw = field_value(entry, comparator.field)
            if raw is None:
                continue
            text = str(raw)
            if listdef.kind in ("domain_deny", "domain_allow"):
                try:
                    domain = extract_domain(text)
                except MalformedUrl:
                    continue
                if _domain_matches(domain, listdef.values):
                    matched_entries.append(entry)
                    matched_values.append(domain)
            else:
                lowered = text.lower()
                hits = [k for k in keywords if k in lowered]
                if hits:
                    matched_entries.append(entry)
                    matched_values.extend(hits)
        unique_matches = sorted(set(matched_values))
        values.update(
            n_matched=len(matched_entries),
            matched=", ".join(unique_matches) if unique_matches else "(none)",
            list_name=comparator.list_name,
        )
        if listdef.kind in ("domain_deny", "keyword"):
            hint = HINT_SUSPICIOUS if matched_entries else HINT_NORMAL
        else:
            hint = HINT_NORMAL
        evidence = tuple(e.entry_id for e in matched_entries[:EVIDENCE_CAP])
    elif aggregate is not None:
        if group is not None:
            grouped = group_entries(selection, group.key)
            per_group = {k: aggregate_value(v, aggregate) for k, v in grouped.items()}
            shown = sorted(per_group.items())[:GROUP_SUMMARY_CAP]
            values["n_groups"] = len(per_group)
            values["by_group"] = "; ".join(
                f"{k}={_format_number(v)}" for k, v in shown
            ) or "(empty)"
        else:
            result = aggregate_value(selection, aggregate)
            key = AGG_FUNCS[aggregate.func]
            values[key] = _format_number(result) if result is not None else "(no data)"

    rendered = spec.output_template.format_map(values)
    return ToolResult(
        tool_name=spec.name,
        bound_params=bound,
        values=values,
        rendered=rendered,
        verdict_hint=hint,
        evidence=evidence,
    )
