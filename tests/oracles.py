"""Independent naive re-implementations used as test oracles.

Everything here is a direct full-scan loop written against the documented
semantics, sharing no evaluation code with the package. Oracles read the
plan stage dataclasses as plain data.
"""

from __future__ import annotations

import fnmatch
import math
from datetime import timedelta

from logaudit.logstore import LogEntry, LogStore
from logaudit.plans import (
    AggregateStage,
    BaselineCompareStage,
    FilterStage,
    GroupByStage,
    LookupStage,
    QueryPlan,
    SelectStage,
)


def naive_field(entry: LogEntry, name: str):
    core = {
        "entry_id": entry.entry_id,
        "user": entry.user,
        "host": entry.host,
        "day": entry.day.isoformat(),
        "hour": entry.timestamp.hour,
        "activity": entry.activity.value,
    }
    if name in core:
        return core[name]
    return entry.payload.get(name)


def _bind(value, params):
    if isinstance(value, str) and value.startswith("{") and value.endswith("}"):
        return params[value[1:-1]]
    return value


def naive_has_duplicate_ids(entries: list[LogEntry]) -> bool:
    return any(e.entry_id == f.entry_id for i, e in enumerate(entries) for f in entries[:i])


def naive_sequences(entries: list[LogEntry]) -> dict[str, list[str]]:
    """Each user's entry ids in time order, ties in list order; host-only
    entries belong to no user."""
    out: dict[str, list[str]] = {}
    for user in {e.user for e in entries if e.user}:
        mine = [(e.timestamp, i, e.entry_id) for i, e in enumerate(entries) if e.user == user]
        out[user] = [entry_id for _, _, entry_id in sorted(mine)]
    return out


def naive_select(store: LogStore, select: SelectStage, params) -> list[LogEntry]:
    """The entries of the one user the select names, of its activity types
    and on its days, in time order with ties in store order."""
    user = _bind(select.user, params)
    day = _bind(select.day, params)
    day_from = _bind(select.day_from, params)
    day_to = _bind(select.day_to, params)
    out = []
    for i, e in enumerate(store.entries):
        if e.user != user or e.activity not in select.activity_types:
            continue
        iso = e.day.isoformat()
        if day is not None and iso != day:
            continue
        if day_from is not None and iso < day_from:
            continue
        if day_to is not None and iso > day_to:
            continue
        out.append((e.timestamp, i, e))
    return [e for _, _, e in sorted(out, key=lambda item: item[:2])]


def naive_filter(entries: list[LogEntry], filt: FilterStage, params) -> list[LogEntry]:
    value = _bind(filt.value, params) if isinstance(filt.value, str) else filt.value
    out = []
    for e in entries:
        actual = naive_field(e, filt.field)
        if actual is None:
            continue
        if filt.predicate == "equals":
            ok = str(actual) == value
        elif filt.predicate == "contains":
            ok = str(value).lower() in str(actual).lower()
        elif filt.predicate == "matches_glob":
            ok = fnmatch.fnmatchcase(str(actual).lower(), str(value).lower())
        elif filt.predicate == "in_list":
            members = value if isinstance(value, tuple) else (str(value),)
            ok = str(actual) in members
        else:
            try:
                a, b = float(actual), float(value)
            except (TypeError, ValueError):
                ok = False
            else:
                ok = {"lt": a < b, "le": a <= b, "gt": a > b,
                      "ge": a >= b, "eq": a == b, "ne": a != b}[filt.op]
        if ok:
            out.append(e)
    return out


def naive_mean(xs) -> float:
    return sum(xs) / len(xs)


def naive_pstd(xs) -> float:
    m = naive_mean(xs)
    return math.sqrt(sum((x - m) ** 2 for x in xs) / len(xs))


def naive_aggregate(entries: list[LogEntry], agg: AggregateStage):
    if agg.func == "count":
        return len(entries)
    values = [naive_field(e, agg.field) for e in entries]
    if agg.func == "distinct_count":
        return len({str(v) for v in values if v is not None})
    numbers = []
    for v in values:
        try:
            numbers.append(float(v))
        except (TypeError, ValueError):
            pass
    if not numbers:
        return None
    if agg.func == "mean":
        return naive_mean(numbers)
    if agg.func == "std":
        return naive_pstd(numbers)
    return max(numbers) if agg.func == "max" else min(numbers)


def naive_group(entries: list[LogEntry], key: str) -> dict[str, list[LogEntry]]:
    groups: dict[str, list[LogEntry]] = {}
    for e in entries:
        name = {
            "user": e.user,
            "day": e.day.isoformat(),
            "user_day": f"{e.user}|{e.day.isoformat()}",
            "host": e.host,
        }[key]
        groups.setdefault(name, []).append(e)
    return groups


def naive_plan_eval(store: LogStore, plan: QueryPlan, params: dict, lists=None) -> dict:
    """Full-scan evaluation; returns the subset of result values checked by
    the equivalence suite."""
    entries = naive_select(store, plan.stages[0], params)
    for stage in plan.stages:
        if isinstance(stage, FilterStage):
            entries = naive_filter(entries, stage, params)
    values: dict[str, object] = {"n": len(entries)}

    group = next((s for s in plan.stages if isinstance(s, GroupByStage)), None)
    agg = next((s for s in plan.stages if isinstance(s, AggregateStage)), None)
    comparator = plan.stages[-1] if isinstance(
        plan.stages[-1], (BaselineCompareStage, LookupStage)) else None

    if isinstance(comparator, BaselineCompareStage):
        user = params["user"]
        audit_day = params["day"]
        seq = store.users[user]
        first, last = seq.entries[0].day, seq.entries[-1].day
        per_day = {}
        d = first
        while d <= last:
            per_day[d.isoformat()] = 0
            d += timedelta(days=1)
        for e in entries:
            iso = e.day.isoformat()
            if iso in per_day:
                per_day[iso] += 1
        history = [c for iso, c in sorted(per_day.items()) if iso != audit_day]
        current = sum(1 for e in entries if e.day.isoformat() == audit_day)
        mu = naive_mean(history)
        sigma = naive_pstd(history)
        values.update(
            n=current,
            mu=mu,
            sigma=sigma,
            suspicious=abs(current - mu) > comparator.k_sigma * sigma,
        )
    elif isinstance(comparator, LookupStage):
        listdef = lists[comparator.list_name]
        matched = 0
        for e in entries:
            raw = naive_field(e, comparator.field)
            if raw is None:
                continue
            text = str(raw)
            if listdef.kind.startswith("domain"):
                host = text.split("://")[-1].split("/")[0].split("@")[-1].split(":")[0].lower()
                if "." not in host or " " in host:
                    continue
                if any(host == d or host.endswith("." + d) for d in listdef.values):
                    matched += 1
            else:
                if any(k in text.lower() for k in listdef.values):
                    matched += 1
        values["n_matched"] = matched
    elif agg is not None and group is not None:
        per_group = {k: naive_aggregate(v, agg) for k, v in naive_group(entries, group.key).items()}
        values["n_groups"] = len(per_group)
        values["per_group"] = per_group
    elif agg is not None:
        values["agg"] = naive_aggregate(entries, agg)
    return values


def naive_forge(replies, cases, store: LogStore, builtin: QueryPlan | None,
                max_repair_attempts: int):
    """Expected outcome of forging one check, from the serving rule alone: a
    tool is served only if its select binds user={user} and it passes every
    case. ``replies`` are the
    backend's answers in ask order: a QueryPlan (a reply that parses), a str
    (text that does not) or None (no reply left). A check with no cases asks
    nothing. Returns (served, asks): the served plan, "builtin", or None; and
    the number of completions the forge records."""

    def passes(plan: QueryPlan) -> bool:
        return plan.select.user == "{user}" and all(naive_plan_eval(store, plan, case.params).get(key) == value
                   for case in cases for key, value in case.expected.items())

    asks = 0
    if cases:
        for reply in replies[:1 + max_repair_attempts]:
            if reply is None:
                break
            asks += 1
            if isinstance(reply, QueryPlan) and passes(reply):
                return reply, asks
    if builtin is not None and passes(builtin):
        return "builtin", asks
    return None, asks


class NaiveScript:
    """Linear first-match replay of a script: each request takes the first
    unconsumed entry whose every ``when`` part equals the template name or
    occurs in the prompt; ``None`` when no entry matches."""

    def __init__(self, entries) -> None:
        self.entries = list(entries)
        self.used: set[int] = set()

    def complete(self, template_name: str, prompt: str) -> str | None:
        for i, e in enumerate(self.entries):
            if i in self.used:
                continue
            parts = [e.when] if isinstance(e.when, str) else list(e.when)
            if all(p == template_name or p in prompt for p in parts):
                if not e.repeat:
                    self.used.add(i)
                return e.response
        return None


def naive_metrics(tp: int, fp: int, fn: int, tn: int):
    """Direct formula transcription; None on zero denominators."""
    total = tp + fp + fn + tn
    prec = tp / (tp + fp) if tp + fp else None
    dr = tp / (tp + fn) if tp + fn else None
    fpr = fp / (fp + tn) if fp + tn else None
    acc = (tp + tn) / total if total else None
    return prec, dr, fpr, acc
