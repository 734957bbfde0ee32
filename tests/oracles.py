"""Independent naive re-implementations used as test oracles.

Everything here is a direct full-scan loop written against the documented
semantics, sharing no evaluation code with the package. Oracles read the
plan stage dataclasses as plain data.
"""

from __future__ import annotations

import csv
import fnmatch
import math
import random
import tempfile
from datetime import datetime, timedelta
from pathlib import Path

import logaudit.logstore
from logaudit.cli import MALFORMED_ROWS_LISTED
from logaudit.errors import IngestFailed, LabelsMissing
from logaudit.logstore import (
    LABEL_BENIGN,
    LABEL_MALICIOUS,
    ActivityType,
    LogEntry,
    LogStore,
    SourceFile,
    build_user_sequences,
    load_labels,
    parse_zeek_file,
    save_store,
)
from logaudit.plans import (
    AggregateStage,
    BaselineCompareStage,
    FilterStage,
    GroupByStage,
    LookupStage,
    QueryPlan,
    SelectStage,
)


def _moment(entry: LogEntry) -> datetime:
    return datetime.fromisoformat(entry.timestamp)


def _day(entry: LogEntry) -> str:
    return _moment(entry).date().isoformat()


def naive_field(entry: LogEntry, name: str):
    core = {
        "entry_id": entry.entry_id,
        "user": entry.user,
        "host": entry.host,
        "day": _day(entry),
        "hour": _moment(entry).hour,
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
        mine = [(_moment(e), i, e.entry_id) for i, e in enumerate(entries) if e.user == user]
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
        iso = _day(e)
        if day is not None and iso != day:
            continue
        if day_from is not None and iso < day_from:
            continue
        if day_to is not None and iso > day_to:
            continue
        out.append((_moment(e), i, e))
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
            "day": _day(e),
            "user_day": f"{e.user}|{_day(e)}",
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
        first, last = _moment(seq.entries[0]).date(), _moment(seq.entries[-1]).date()
        per_day = {}
        d = first
        while d <= last:
            per_day[d.isoformat()] = 0
            d += timedelta(days=1)
        for e in entries:
            iso = _day(e)
            if iso in per_day:
                per_day[iso] += 1
        history = [c for iso, c in sorted(per_day.items()) if iso != audit_day]
        current = sum(1 for e in entries if _day(e) == audit_day)
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


# --- whole-store ingest: the reference the streamed ingest is held to ---

def malicious_ids(store: LogStore) -> set[str]:
    return {i for i, label in store.labels.items() if label == LABEL_MALICIOUS}


def user_labels(store: LogStore) -> dict[str, str]:
    """Each user's label: malicious iff the user owns a malicious entry."""
    malicious = malicious_ids(store)
    owners = {e.user for e in store.entries if e.entry_id in malicious}
    return {user: LABEL_MALICIOUS if user in owners else LABEL_BENIGN for user in store.users}


def undersample_benign(store: LogStore, cap: int, seed: int) -> LogStore:
    """The store keeping every malicious entry and ``cap`` benign ones drawn
    by ``seed`` from the benign store positions; the store itself when the
    benign entries are within the cap."""
    if not store.labels:
        raise LabelsMissing("under-sampling requires ground-truth labels")
    malicious = malicious_ids(store)
    if len(store.entries) - len(malicious) <= cap:
        return store
    benign = [i for i, e in enumerate(store.entries) if e.entry_id not in malicious]
    kept = set(random.Random(seed).sample(benign, cap))
    selected = [e for i, e in enumerate(store.entries) if i in kept or e.entry_id in malicious]
    ids = {e.entry_id for e in selected}
    return build_user_sequences(selected, {i: label for i, label in store.labels.items()
                                           if i in ids}, store.source_manifest)


def store_lines(store: LogStore) -> dict[str, list[list]]:
    """The rows of a store's snapshot lines: each entry, at its position,
    under its user."""
    lines: dict[str, list[list]] = {}
    for i, e in enumerate(store.entries):
        lines.setdefault(e.user, []).append(
            [i, e.entry_id, e.timestamp, e.host, e.activity, e.payload])
    return lines


def save_logstore(store: LogStore, path) -> None:
    """The snapshot of a whole store."""
    save_store(store_lines(store), path, store.labels, store.source_manifest)


# Each CERT source's required columns.
CERT_COLUMNS = {
    "logon": ("id", "date", "user", "pc", "activity"),
    "device": ("id", "date", "user", "pc", "activity"),
    "http": ("id", "date", "user", "pc", "url"),
    "email": ("id", "date", "user", "pc", "to", "from"),
    "file": ("id", "date", "user", "pc", "filename"),
}
_CERT_KINDS = {
    "logon": {"logon": ActivityType.LOGON, "logoff": ActivityType.LOGOFF},
    "device": {"connect": ActivityType.DEVICE_CONNECT,
               "disconnect": ActivityType.DEVICE_DISCONNECT},
    "http": ActivityType.HTTP_VISIT, "email": ActivityType.EMAIL_SEND, "file": ActivityType.FILE_OP,
}


def naive_cert_time(raw: str) -> datetime:
    raw = raw.strip()
    try:
        timestamp = datetime.strptime(raw, "%m/%d/%Y %H:%M:%S")
    except ValueError:
        try:
            timestamp = datetime.fromisoformat(raw)
        except ValueError:
            raise ValueError(f"unparseable timestamp {raw!r}")
    if timestamp.tzinfo is not None:
        raise ValueError("timestamp carries a UTC offset")
    return timestamp


def naive_cert_file(path: Path, source: str) -> tuple[list[LogEntry], list[tuple[int, str]], int]:
    """The entries, the (line, reason) of each malformed row, and the data
    row count of one CERT CSV file, each row read as a column -> field dict."""
    entries, errors, data_rows = [], [], 0
    with path.open(encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        columns = [c.strip().lower() for c in next(reader)]
        missing = [c for c in CERT_COLUMNS[source] if c not in columns]
        if missing:
            raise IngestFailed(f"{path}: header missing required columns {missing}")
        for line_no, raw in enumerate(reader, start=2):
            if not raw or (len(raw) == 1 and not raw[0].strip()):
                continue
            data_rows += 1
            if len(raw) != len(columns):
                errors.append((line_no, f"expected {len(columns)} fields, got {len(raw)}"))
                continue
            row = dict(zip(columns, raw))
            activity = _CERT_KINDS[source]
            try:
                timestamp = naive_cert_time(row["date"])
                if isinstance(activity, dict):
                    value = row["activity"].strip().lower()
                    if value not in activity:
                        raise ValueError(f"line {line_no}: {source} activity column reads "
                                         f"{row['activity']!r}")
                    activity = activity[value]
            except ValueError as exc:
                errors.append((line_no, str(exc)))
                continue
            if not row["user"].strip():
                errors.append((line_no, "empty user field"))
                continue
            if source == "http":
                payload = {"url": row["url"], **({"content": row["content"]}
                                                 if row.get("content") else {})}
            elif source == "email":
                payload = {"to": row["to"], "from": row["from"],
                           **{k: row[k] for k in ("cc", "bcc", "size", "attachments") if row.get(k)},
                           "body": row.get("content", "")}
            elif source == "file":
                payload = {"filename": row["filename"], **({"content": row["content"]}
                                                           if row.get("content") else {})}
            else:
                payload = {}
            entries.append(LogEntry(row["id"].strip(), timestamp.isoformat(), row["user"].strip(),
                                    row["pc"].strip(), activity, payload))
    tolerance = logaudit.logstore.MALFORMED_ROW_TOLERANCE
    if data_rows and len(errors) > tolerance * data_rows:
        raise IngestFailed(f"{path}: {len(errors)}/{data_rows} rows malformed "
                           f"(tolerance {tolerance:.0%})")
    return entries, errors, data_rows


def naive_ingest(kind: str, directory: Path, paths: dict[str, str], labels: str | None,
                 cap: int, seed: int) -> tuple[bytes, dict | None, list]:
    """What ingest writes for these dataset files (source -> path relative
    to ``directory``): the snapshot's bytes, the user labels (None without
    labels) and the listed malformed rows, made by parsing every file into
    entries and building, under-sampling and saving the whole store. The
    Zeek parse is the package's."""
    entries, manifest, malformed = [], [], []
    for source, raw_path in sorted(paths.items()):
        path = directory / raw_path
        if kind == "cert":
            rows, errors, data_rows = naive_cert_file(path, source)
            stream = f"cert:{source}"
        else:
            parsed = parse_zeek_file(path, kind=source)
            rows = parsed.entries
            errors = [(e.line_no, e.reason) for e in parsed.errors]
            data_rows, stream = parsed.source.rows, parsed.source.kind
        entries += rows
        manifest.append(SourceFile(raw_path, stream, data_rows, len(errors)))
        if errors:
            malformed.append({"path": raw_path, "count": len(errors), "rows": [
                {"line": line, "reason": reason} for line, reason in errors[:MALFORMED_ROWS_LISTED]]})
    store = build_user_sequences(
        entries, None if labels is None else load_labels(directory / labels), manifest)
    if labels is not None:
        store = undersample_benign(store, cap, seed)
    with tempfile.TemporaryDirectory() as directory_name:
        path = Path(directory_name) / "store.json"
        save_logstore(store, path)
        written = path.read_bytes()
    return written, user_labels(store) if store.labels else None, malformed
