"""Unified, time-ordered activity log store.

Ingests CERT-style CSV logs and Zeek-style TSV logs into one LogEntry shape,
groups them into per-user sequences, and provides the seeded exemplar
sampling and benign under-sampling the rest of the pipeline builds on. A
store is built whole, in one pass, by :func:`build_user_sequences` and never
mutated afterwards.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import logging
import os
import random
import re
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from datetime import date, datetime, timezone
from enum import Enum
from functools import cached_property
from itertools import chain, islice, pairwise
from operator import attrgetter, eq, lt
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

from .errors import DuplicateEntryId, IngestFailed, LabelsInvalid, LabelsMissing

logger = logging.getLogger(__name__)

T = TypeVar("T")

LABEL_BENIGN = "benign"
LABEL_MALICIOUS = "malicious"

# Fraction of data rows allowed to fail before the whole file is rejected.
MALFORMED_ROW_TOLERANCE = 0.01

DEFAULT_EXEMPLARS_PER_TYPE = 3
DEFAULT_UNDERSAMPLE_CAP = 20_000
DEFAULT_SEED = 42


class ActivityType(str, Enum):
    """Kinds of activity records the pipeline audits."""

    LOGON = "Logon"
    LOGOFF = "Logoff"
    DEVICE_CONNECT = "DeviceConnect"
    DEVICE_DISCONNECT = "DeviceDisconnect"
    HTTP_VISIT = "HttpVisit"
    EMAIL_SEND = "EmailSend"
    FILE_OP = "FileOp"
    ZEEK_AUTH = "ZeekAuth"
    ZEEK_NETWORK = "ZeekNetwork"
    ZEEK_FILE = "ZeekFile"
    ZEEK_SYSTEM = "ZeekSystem"
    ZEEK_ANOMALY = "ZeekAnomaly"

    @classmethod
    def from_name(cls, name: str) -> "ActivityType":
        for member in cls:
            if member.value.lower() == name.strip().lower():
                return member
        raise ValueError(f"unknown activity type: {name!r}")


class _EntryFields(NamedTuple):
    entry_id: str
    timestamp: datetime
    user: str
    host: str
    activity: ActivityType
    payload: Mapping[str, str]
    day: date


_NO_PAYLOAD: Mapping[str, str] = MappingProxyType({})
_tuple_new = tuple.__new__
_ENTRY_ID = attrgetter("entry_id")
_TIMESTAMP = attrgetter("timestamp")
_ACTIVITY = attrgetter("activity")


class LogEntry(_EntryFields):
    """One normalized activity record: an immutable tuple of the six fields
    it is built from, positionally or by keyword, plus ``day``, the date of
    its timestamp, which only this constructor sets."""

    __slots__ = ()

    def __new__(cls, entry_id: str, timestamp: datetime, user: str, host: str,
                activity: ActivityType, payload: Mapping[str, str] = _NO_PAYLOAD) -> "LogEntry":
        return _tuple_new(cls, (entry_id, timestamp, user, host, activity, payload,
                                timestamp.date()))

    # A replacement goes through this constructor too, so that ``day``
    # follows a new ``timestamp``.
    def _replace(self, **changes: object) -> "LogEntry":
        return LogEntry(**dict(zip(self._fields[:6], self), **changes))

    # Copies and pickles rebuild an entry through this constructor as well.
    # The shared empty payload cannot be pickled, so it is left to the default.
    def __getnewargs__(self) -> tuple:
        return self[:5] if self.payload is _NO_PAYLOAD else self[:6]


@dataclass
class RowError:
    """One malformed row, collected rather than raised."""

    line_no: int
    reason: str


@dataclass
class SourceFile:
    """Manifest record for one ingested file."""

    path: str
    kind: str
    rows: int
    malformed: int


@dataclass
class ParsedFile:
    """Outcome of parsing a single input file."""

    entries: list[LogEntry]
    errors: list[RowError]
    source: SourceFile


@dataclass
class UserSequence:
    """All entries of one user, in ascending time order; never empty."""

    user: str
    entries: list[LogEntry]

    @cached_property
    def entry_ids(self) -> frozenset[str]:
        """The ids of this user's entries, collected on first use."""
        return frozenset(e.entry_id for e in self.entries)

    def day_range(self) -> tuple[date, date]:
        return self.entries[0].day, self.entries[-1].day


@dataclass(frozen=True, eq=False)
class LogStore:
    """All activity records across users, built by :func:`build_user_sequences`."""

    entries: list[LogEntry]
    users: dict[str, UserSequence]
    # Store positions per user, ascending: the rows of each snapshot line.
    # Host-only entries are under the empty user.
    lines: dict[str, list[int]]
    labels: dict[str, str]
    source_manifest: list[SourceFile]
    # The activity types of the entries, host-only entries included.
    activities: frozenset[ActivityType]

    def activity_types(self) -> set[ActivityType]:
        return set(self.activities)

    def sequences(self, users: Iterable[str] | None = None) -> Iterator[UserSequence]:
        """The sequence of each of these users (``None``: every user) that
        the store holds, in sorted-user order."""
        names = self.users.keys() if users is None else self.users.keys() & set(users)
        return (self.users[user] for user in sorted(names))

    def is_malicious(self, entry_id: str) -> bool:
        return self.labels.get(entry_id) == LABEL_MALICIOUS

    def malicious_ids(self) -> set[str]:
        return {i for i, lab in self.labels.items() if lab == LABEL_MALICIOUS}


def _readable(items: Iterable, path: Path) -> Iterator:
    """Yield from a file reader; bytes that are not UTF-8, or CSV the csv
    module refuses, fail the file with IngestFailed."""
    try:
        yield from items
    except (UnicodeDecodeError, csv.Error) as exc:
        raise IngestFailed(f"{path}: unreadable input: {exc}") from None


# ---------------------------------------------------------------------------
# CERT-style CSV parsing
# ---------------------------------------------------------------------------

CERT_SOURCES = ("logon", "device", "http", "email", "file")

# Per-source required header columns; extra columns are kept in the payload.
_CERT_REQUIRED = {
    "logon": ("id", "date", "user", "pc", "activity"),
    "device": ("id", "date", "user", "pc", "activity"),
    "http": ("id", "date", "user", "pc", "url"),
    "email": ("id", "date", "user", "pc", "to", "from"),
    "file": ("id", "date", "user", "pc", "filename"),
}

_CERT_TIME_FORMAT = "%m/%d/%Y %H:%M:%S"
# The zero-padded ASCII shape of _CERT_TIME_FORMAT, read without strptime.
_CERT_TIME = re.compile(r"(\d\d)/(\d\d)/(\d{4}) (\d\d):(\d\d):(\d\d)", re.ASCII)


def _parse_timestamp(raw: str) -> datetime:
    raw = raw.strip()
    match = _CERT_TIME.fullmatch(raw)
    if match:
        month, day, year, hour, minute, second = map(int, match.groups())
        try:
            return datetime(year, month, day, hour, minute, second)
        except ValueError:
            pass  # a field out of range: the chain below raises its usual error
    try:
        return datetime.strptime(raw, _CERT_TIME_FORMAT)
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(raw)
    except ValueError:
        raise ValueError(f"unparseable timestamp {raw!r}")


def _cert_activity(source: str, row: dict[str, str], line_no: int) -> ActivityType:
    if source == "logon":
        value = row.get("activity", "").strip().lower()
        if value == "logon":
            return ActivityType.LOGON
        if value == "logoff":
            return ActivityType.LOGOFF
        raise ValueError(f"line {line_no}: logon activity column reads {row.get('activity')!r}")
    if source == "device":
        value = row.get("activity", "").strip().lower()
        if value == "connect":
            return ActivityType.DEVICE_CONNECT
        if value == "disconnect":
            return ActivityType.DEVICE_DISCONNECT
        raise ValueError(f"line {line_no}: device activity column reads {row.get('activity')!r}")
    if source == "http":
        return ActivityType.HTTP_VISIT
    if source == "email":
        return ActivityType.EMAIL_SEND
    return ActivityType.FILE_OP


def _cert_payload(source: str, row: dict[str, str]) -> dict[str, str]:
    if source == "http":
        payload = {"url": row.get("url", "")}
        if row.get("content"):
            payload["content"] = row["content"]
        return payload
    if source == "email":
        payload = {"to": row.get("to", ""), "from": row.get("from", "")}
        for key in ("cc", "bcc", "size", "attachments"):
            if row.get(key):
                payload[key] = row[key]
        # CERT ships the message text in a "content" column.
        payload["body"] = row.get("content", "")
        return payload
    if source == "file":
        payload = {"filename": row.get("filename", "")}
        if row.get("content"):
            payload["content"] = row["content"]
        return payload
    return {}


def parse_cert_file(path: str | Path, source: str) -> ParsedFile:
    """Parse one CERT-style CSV file (header row, quoted fields permitted).

    Malformed rows are collected; the parse only fails wholesale when the
    header is unusable or more than 1% of data rows are bad.
    """
    if source not in CERT_SOURCES:
        raise IngestFailed(f"unknown CERT source {source!r}; expected one of {CERT_SOURCES}")
    path = Path(path)
    required = _CERT_REQUIRED[source]
    entries: list[LogEntry] = []
    errors: list[RowError] = []
    data_rows = 0

    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = _readable(csv.reader(handle), path)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestFailed(f"{path}: empty file, no header row")
        columns = [c.strip().lower() for c in header]
        missing = [c for c in required if c not in columns]
        if missing:
            raise IngestFailed(f"{path}: header missing required columns {missing}")

        for line_no, raw in enumerate(reader, start=2):
            if not raw or (len(raw) == 1 and not raw[0].strip()):
                continue
            data_rows += 1
            if len(raw) != len(columns):
                errors.append(RowError(line_no, f"expected {len(columns)} fields, got {len(raw)}"))
                continue
            row = dict(zip(columns, raw))
            try:
                timestamp = _parse_timestamp(row["date"])
                activity = _cert_activity(source, row, line_no)
            except ValueError as exc:
                errors.append(RowError(line_no, str(exc)))
                continue
            user = row.get("user", "").strip()
            if not user:
                errors.append(RowError(line_no, "empty user field"))
                continue
            entries.append(
                LogEntry(
                    entry_id=row["id"].strip(),
                    timestamp=timestamp,
                    user=user,
                    host=row.get("pc", "").strip(),
                    activity=activity,
                    payload=_cert_payload(source, row),
                )
            )

    if data_rows and len(errors) > MALFORMED_ROW_TOLERANCE * data_rows:
        raise IngestFailed(
            f"{path}: {len(errors)}/{data_rows} rows malformed (tolerance {MALFORMED_ROW_TOLERANCE:.0%})"
        )
    source_file = SourceFile(path=str(path), kind=f"cert:{source}", rows=data_rows, malformed=len(errors))
    return ParsedFile(entries=entries, errors=errors, source=source_file)


# ---------------------------------------------------------------------------
# Zeek-style TSV parsing
# ---------------------------------------------------------------------------

# Stream groups: file logs, system logs, authentication logs, network
# traffic, and anomaly detections. Unmapped streams land in ZeekSystem.
ZEEK_STREAM_GROUPS: dict[str, ActivityType] = {
    "files": ActivityType.ZEEK_FILE,
    "smb_files": ActivityType.ZEEK_FILE,
    "dhcp": ActivityType.ZEEK_SYSTEM,
    "hosts": ActivityType.ZEEK_SYSTEM,
    "services": ActivityType.ZEEK_SYSTEM,
    "kerberos": ActivityType.ZEEK_AUTH,
    "ntlm": ActivityType.ZEEK_AUTH,
    "weird": ActivityType.ZEEK_ANOMALY,
    "conn": ActivityType.ZEEK_NETWORK,
    "dns": ActivityType.ZEEK_NETWORK,
    "http": ActivityType.ZEEK_NETWORK,
    "ssl": ActivityType.ZEEK_NETWORK,
    "x509": ActivityType.ZEEK_NETWORK,
    "smtp": ActivityType.ZEEK_NETWORK,
    "dce_rpc": ActivityType.ZEEK_NETWORK,
    "smb_mapping": ActivityType.ZEEK_FILE,
}

_ZEEK_USER_FIELDS = ("client", "username", "user")
_ZEEK_HOST_FIELDS = ("id.orig_h", "host", "assigned_ip")


def _zeek_epoch(raw: str) -> datetime:
    return datetime.fromtimestamp(float(raw), tz=timezone.utc).replace(tzinfo=None)


def parse_zeek_file(path: str | Path, kind: str | None = None) -> ParsedFile:
    """Parse one Zeek TSV log (``#fields`` header) or JSON-lines log.

    ``kind`` is the stream name; when omitted it is taken from the ``#path``
    header line or the file stem. Unknown streams map to ZeekSystem.
    """
    path = Path(path)
    entries: list[LogEntry] = []
    errors: list[RowError] = []
    data_rows = 0
    fields: list[str] | None = None
    separator = "\t"
    header_kind: str | None = None
    json_mode: bool | None = None

    with path.open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(_readable(handle, path), start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                json_mode = False
                token, _, rest = line[1:].partition("\t")
                if token == "separator" and rest:
                    try:
                        separator = rest.encode("utf-8").decode("unicode_escape")
                    except UnicodeDecodeError:
                        raise IngestFailed(f"{path}:{line_no}: bad #separator {rest!r}") from None
                elif token == "fields":
                    fields = rest.split(separator) if rest else []
                elif token == "path":
                    header_kind = rest.strip()
                continue
            if json_mode is None:
                json_mode = line.lstrip().startswith("{")

            data_rows += 1
            if json_mode:
                # json.loads raises ValueError for an integer past the digit
                # limit and RecursionError for nesting past the stack.
                try:
                    record = {str(k): str(v) for k, v in json.loads(line).items()}
                except (ValueError, RecursionError, AttributeError):
                    errors.append(RowError(line_no, "unparseable JSON record"))
                    continue
            else:
                if fields is None:
                    errors.append(RowError(line_no, "data row before #fields header"))
                    continue
                values = line.split(separator)
                if len(values) != len(fields):
                    errors.append(RowError(line_no, f"expected {len(fields)} fields, got {len(values)}"))
                    continue
                record = dict(zip(fields, values))

            try:
                timestamp = _zeek_epoch(record["ts"])
            except (KeyError, ValueError, OverflowError):
                errors.append(RowError(line_no, "missing or unparseable ts field"))
                continue

            stream = kind or header_kind or path.stem
            activity = ZEEK_STREAM_GROUPS.get(stream, ActivityType.ZEEK_SYSTEM)

            user = ""
            for name in _ZEEK_USER_FIELDS:
                value = record.get(name, "")
                if value and value != "-":
                    user = value
                    break
            host = ""
            for name in _ZEEK_HOST_FIELDS:
                value = record.get(name, "")
                if value and value != "-":
                    host = value
                    break

            entries.append(
                LogEntry(
                    entry_id=f"{path.stem}:{data_rows}",
                    timestamp=timestamp,
                    user=user,
                    host=host,
                    activity=activity,
                    payload=record,
                )
            )

    if data_rows and len(errors) > MALFORMED_ROW_TOLERANCE * data_rows:
        raise IngestFailed(
            f"{path}: {len(errors)}/{data_rows} rows malformed (tolerance {MALFORMED_ROW_TOLERANCE:.0%})"
        )
    stream = kind or header_kind or path.stem
    source_file = SourceFile(path=str(path), kind=f"zeek:{stream}", rows=data_rows, malformed=len(errors))
    return ParsedFile(entries=entries, errors=errors, source=source_file)


# ---------------------------------------------------------------------------
# Sequences, sampling, under-sampling
# ---------------------------------------------------------------------------

def _sorted_ids(ids: Iterable[str]) -> list[str]:
    """These ids, sorted; an id that repeats raises DuplicateEntryId.
    Sorted, not a set: a sixth of the memory while a store is built."""
    ids = sorted(ids)
    if any(map(eq, ids, islice(ids, 1, None))):
        repeated = next(entry_id for entry_id, following in pairwise(ids) if entry_id == following)
        raise DuplicateEntryId(f"duplicate entry id {repeated!r}")
    return ids


def _check_labels(labels: Mapping[str, str], ids: list[str]) -> None:
    """A label for an id not among the sorted ``ids``, or of an unknown
    value, raises LabelsInvalid."""
    for entry_id, label in labels.items():
        i = bisect_left(ids, entry_id)
        if i == len(ids) or ids[i] != entry_id:
            raise LabelsInvalid(f"label references unknown entry id {entry_id!r}")
        if label not in (LABEL_BENIGN, LABEL_MALICIOUS):
            raise LabelsInvalid(f"bad label {label!r} for {entry_id!r}")


def build_user_sequences(
    entries: Iterable[LogEntry],
    labels: Mapping[str, str] | None = None,
    manifest: Iterable[SourceFile] = (),
) -> LogStore:
    """The store of these entries, in this order: the only way to make one.

    One pass groups the store positions and the per-user sequences, sorted
    stably by time; host-only entries have positions but no sequence. A
    repeated id raises DuplicateEntryId, and a label for an unknown id or
    of an unknown value raises LabelsInvalid.
    """
    entries = list(entries)
    ids = _sorted_ids(map(_ENTRY_ID, entries))
    grouped: defaultdict[str, list[LogEntry]] = defaultdict(list)
    lines: defaultdict[str, list[int]] = defaultdict(list)
    for position, entry in enumerate(entries):
        lines[entry.user].append(position)
        if entry.user:
            grouped[entry.user].append(entry)
    labels = dict(labels or {})
    _check_labels(labels, ids)
    for seq in grouped.values():
        seq.sort(key=_TIMESTAMP)
    users = {user: UserSequence(user=user, entries=seq) for user, seq in grouped.items()}
    return LogStore(entries, users, dict(lines), labels, list(manifest),
                    frozenset(map(_ACTIVITY, entries)))


def sample_exemplars(
    store: LogStore, k: int = DEFAULT_EXEMPLARS_PER_TYPE, seed: int = DEFAULT_SEED
) -> dict[ActivityType, list[LogEntry]]:
    """Pick up to ``k`` exemplar entries per activity type, deterministically.

    Each type gets its own child RNG keyed by (seed, type) so the selection
    for one type is independent of which other types are present.
    """
    pools: defaultdict[ActivityType, list[LogEntry]] = defaultdict(list)
    for entry in store.entries:
        pools[entry.activity].append(entry)
    return _pick_exemplars(pools, k, seed)


def _pick_exemplars(pools: Mapping[ActivityType, Sequence[T]], k: int,
                    seed: int) -> dict[ActivityType, list[T]]:
    """Up to ``k`` items of each type's pool, the pool in store order, by
    the rule :func:`sample_exemplars` documents."""
    if k < 1:
        raise ValueError("k must be >= 1")
    exemplars: dict[ActivityType, list[T]] = {}
    for activity, pool in sorted(pools.items(), key=lambda item: item[0].value):
        rng = random.Random(f"{seed}:{activity.value}")
        if len(pool) <= k:
            exemplars[activity] = list(pool)
        else:
            picks = sorted(rng.sample(range(len(pool)), k))
            exemplars[activity] = [pool[i] for i in picks]
    return exemplars


def undersample_benign(
    store: LogStore, cap: int = DEFAULT_UNDERSAMPLE_CAP, seed: int = DEFAULT_SEED
) -> LogStore:
    """Return a view keeping all malicious entries and at most ``cap`` benign.

    Entries without an explicit label count as benign. When the benign
    count is already within the cap the store itself is returned.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if not store.labels:
        raise LabelsMissing("under-sampling requires ground-truth labels")

    # Labels name only the store's own, unique ids, so this is the benign count.
    malicious = sum(1 for label in store.labels.values() if label == LABEL_MALICIOUS)
    if len(store.entries) - malicious <= cap:
        return store

    benign_idx = [i for i, e in enumerate(store.entries) if not store.is_malicious(e.entry_id)]

    rng = random.Random(seed)
    kept = set(rng.sample(benign_idx, cap))
    selected = [
        e for i, e in enumerate(store.entries)
        if i in kept or store.is_malicious(e.entry_id)
    ]
    ids = {e.entry_id for e in selected}
    labels = {i: lab for i, lab in store.labels.items() if i in ids}
    return build_user_sequences(selected, labels, store.source_manifest)


# ---------------------------------------------------------------------------
# Ground truth and snapshots
# ---------------------------------------------------------------------------

def load_labels(path: str | Path) -> dict[str, str]:
    """Read a two-column ``entry_id,label`` ground-truth file."""
    path = Path(path)
    if not path.exists():
        raise LabelsMissing(f"ground-truth file not found: {path}")
    labels: dict[str, str] = {}
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        for line_no, raw in enumerate(reader, start=1):
            if not raw or (len(raw) == 1 and not raw[0].strip()):
                continue
            if line_no == 1 and [c.strip().lower() for c in raw[:2]] == ["entry_id", "label"]:
                continue
            if len(raw) < 2:
                raise LabelsInvalid(f"{path}:{line_no}: expected entry_id,label")
            entry_id, label = raw[0].strip(), raw[1].strip().lower()
            if label not in (LABEL_BENIGN, LABEL_MALICIOUS):
                raise LabelsInvalid(f"{path}:{line_no}: bad label {label!r}")
            labels[entry_id] = label
    return labels


STORE_FORMAT = "audit-store/4"

_ACTIVITIES = {a.value: a for a in ActivityType}
_TYPES = list(ActivityType)
_KINDS = {a.value: kind for kind, a in enumerate(_TYPES)}
# The compact C encoder; ``default`` encodes the immutable empty payload.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=dict).encode
_OPEN_ENTRIES = b',"entries":[\n'
# User lines run to tens of kilobytes; a larger buffer reads them in fewer calls.
_READ_BUFFER = 1 << 18


def _closing_line(digest: str) -> bytes:
    return b'],"sha256":"%s"}\n' % digest.encode("ascii")


def save_store(store: LogStore, path: str | Path) -> None:
    """Write a store snapshot: one compact JSON document of three parts.

    - The first line holds ``format``, ``labels``, ``manifest``, the row
      count ``rows``, the fleet's ``activities`` and the ``users`` in line
      order, and opens ``entries``.
    - Then one line per user, in sorted-user order, host-only entries under
      the empty user: that user's rows ``[position, id, ts, host, activity,
      payload]`` in store order, where the position is the row's index in
      the store.
    - A last line closes ``entries`` with ``sha256``, the digest of the
      user lines' bytes.

    Each user's line is encoded and written on its own."""
    users = sorted(store.lines)
    head = _encode({
        "activities": sorted(a.value for a in store.activities),
        "format": STORE_FORMAT,
        "labels": store.labels,
        "manifest": [
            {"path": s.path, "kind": s.kind, "rows": s.rows, "malformed": s.malformed}
            for s in store.source_manifest
        ],
        "rows": len(store.entries),
        "users": users,
    })
    entries = store.entries
    digest = hashlib.sha256()
    # Renamed over the snapshot, so an interrupted write leaves the old one whole.
    partial = Path(f"{path}.partial")
    try:
        with partial.open("wb") as handle:
            handle.write(head[:-1].encode("utf-8") + _OPEN_ENTRIES)
            for n, user in enumerate(users, start=1):
                positions = store.lines[user]
                rows = [[i, e.entry_id, e.timestamp.isoformat(), e.host, e.activity.value,
                         e.payload] for i, e in zip(positions, map(entries.__getitem__, positions))]
                line = (_encode(rows)[1:-1] + (",\n" if n < len(users) else "\n")).encode("utf-8")
                digest.update(line)
                handle.write(line)
            handle.write(_closing_line(digest.hexdigest()))
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def _decoded(body: bytes) -> list:
    """The rows of one user line."""
    return json.loads(b"[" + body + b"]")


@contextlib.contextmanager
def _damaged(path: str | Path) -> Iterator[None]:
    """Raise what a snapshot that does not decode into its layout raises
    as IngestFailed."""
    try:
        yield
    # json.loads raises RecursionError for nesting past the stack.
    except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
        raise IngestFailed(f"{path}: damaged snapshot ({type(exc).__name__}: {exc}); "
                           "re-run ingest") from None


@dataclass(frozen=True)
class Snapshot:
    """A snapshot written by :func:`save_store`, opened by
    :func:`open_snapshot`: its first line, read whole, and its user lines,
    read one at a time on demand."""

    path: Path
    rows: int
    labels: dict[str, str]
    manifest: list[SourceFile]
    activities: frozenset[ActivityType]
    # One per user line, in line order; the empty user holds host-only rows.
    users: tuple[str, ...]
    # The byte offset of the first user line.
    start: int

    def activity_types(self) -> set[ActivityType]:
        return set(self.activities)

    def _lines(self, verify: bool = True) -> Iterator[tuple[str, bytes]]:
        """Each user line's user and rows, in line order. When ``verify``,
        the closing line must hold the digest of the lines read."""
        digest = hashlib.sha256()
        last = len(self.users) - 1
        with open(self.path, "rb", buffering=_READ_BUFFER) as handle:
            handle.seek(self.start)
            for n, user in enumerate(self.users):
                line = handle.readline()
                if not line.endswith(b"\n"):
                    raise ValueError("the snapshot ends before its closing line")
                body = line[:-2] if n < last else line[:-1]
                if n < last and not line.endswith(b",\n"):
                    raise ValueError(f"the line of user {user!r} does not end with a comma")
                if verify:
                    digest.update(line)
                yield user, body
            if verify and handle.read() != _closing_line(digest.hexdigest()):
                raise ValueError("the closing line does not hold the digest of the user lines")

    def _rows(self, user: str, rows: list,
              shared: dict[str, str]) -> tuple[list[int], list[LogEntry]]:
        """The positions and entries of rows decoded from one user line."""
        # One string object per distinct host, shared by its entries, and the
        # immutable empty payload for every empty one.
        entries = [LogEntry(entry_id, datetime.fromisoformat(ts), user,
                            shared.setdefault(host, host), _ACTIVITIES[activity],
                            payload or _NO_PAYLOAD)
                   for _, entry_id, ts, host, activity, payload in rows]
        positions = [row[0] for row in rows]
        self._check_order(user, positions)
        return positions, entries

    def _check_order(self, user: str, positions: list[int]) -> None:
        """The positions of one user line must ascend within the row count."""
        if positions and not (0 <= positions[0] and positions[-1] < self.rows
                              and all(map(lt, positions, islice(positions, 1, None)))):
            raise ValueError(f"the rows of user {user!r} are not in store order")

    def sequences(self, users: Iterable[str] | None = None) -> Iterator[UserSequence]:
        """The sequence of each of these users (``None``: every user) that
        the snapshot holds, in sorted-user order, decoded one line at a time
        and sorted stably by time; host-only rows are in none of them. An id
        that repeats within a line raises DuplicateEntryId. For every user
        the lines are read to the end and the digest is checked after the
        last; for some, they are read up to the last of theirs, unchecked."""
        wanted = None if users is None else set(users) & set(self.users)
        shared: dict[str, str] = {}
        with _damaged(self.path), \
                contextlib.closing(self._lines(verify=wanted is None)) as lines:
            for user, body in lines:
                if wanted is not None:
                    if not wanted:
                        break
                    if user not in wanted:
                        continue
                    wanted.remove(user)
                if user:
                    entries = self._rows(user, _decoded(body), shared)[1]
                    _sorted_ids(map(_ENTRY_ID, entries))  # raises on an id repeated within the line
                    entries.sort(key=_TIMESTAMP)
                    yield UserSequence(user, entries)

    def load(self) -> LogStore:
        """The whole store, every row placed at its position. A position
        that repeats, leaves a gap or is past the row count, or activity
        types other than the header's, make the snapshot damaged."""
        entries: list[LogEntry | None] = [None] * self.rows
        shared: dict[str, str] = {}
        with _damaged(self.path):
            placed = 0
            for user, body in self._lines():
                positions, rows = self._rows(user, _decoded(body), shared)
                for position, entry in zip(positions, rows):
                    if entries[position] is not None:
                        raise ValueError(f"row position {position} repeats")
                    entries[position] = entry
                placed += len(rows)
            if placed != self.rows:
                raise ValueError(f"{placed} rows placed of {self.rows}")
            store = build_user_sequences(entries, self.labels, self.manifest)
            if store.activities != self.activities:
                raise ValueError("the rows' activity types are not the header's")
        return store

    def verify(self) -> None:
        """Read every user line and check the digest after the last."""
        with _damaged(self.path):
            for _ in self._lines():
                pass

    def _scan(self) -> tuple[list[int], dict[ActivityType, list[int]]]:
        """Read every user line once, decoding its rows but building no
        entry, and check the digest after the last. The snapshot must hold
        the store that ingest saved: rows of six fields with a parseable
        timestamp and a known activity, the positions of each line
        ascending, no position repeated or left out, ids unique across
        users, labels naming known ids, and the header's activity types.
        Returns the line of each position, and each activity type's
        positions in store order."""
        line_of = [-1] * self.rows
        kind_of = bytearray(self.rows)  # the index of each row's type in _TYPES
        ids: list[str] = []
        parse = datetime.fromisoformat
        placed = 0
        for n, (user, body) in enumerate(self._lines()):
            rows = _decoded(body)
            kinds = []
            for _, entry_id, ts, _, activity, _ in rows:
                parse(ts)
                ids.append(entry_id)
                kinds.append(_KINDS[activity])
            positions = [row[0] for row in rows]
            self._check_order(user, positions)
            for position, kind in zip(positions, kinds):
                if line_of[position] != -1:
                    raise ValueError(f"row position {position} repeats")
                line_of[position] = n
                kind_of[position] = kind
            placed += len(positions)
        if placed != self.rows:
            raise ValueError(f"{placed} rows placed of {self.rows}")
        _check_labels(self.labels, _sorted_ids(ids))
        del ids  # the largest part of the pass's memory, freed before the pools grow
        by_kind: list[list[int]] = [[] for _ in _TYPES]
        for position, kind in enumerate(kind_of):
            by_kind[kind].append(position)
        pools = {_TYPES[kind]: pool for kind, pool in enumerate(by_kind) if pool}
        if pools.keys() != self.activities:
            raise ValueError("the rows' activity types are not the header's")
        return line_of, pools

    def exemplars(self, k: int = DEFAULT_EXEMPLARS_PER_TYPE,
                  seed: int = DEFAULT_SEED) -> dict[ActivityType, list[LogEntry]]:
        """The exemplars that :func:`sample_exemplars` picks from the whole
        store, without building it: one pass checks every line (see
        :meth:`_scan`), and a second decodes only the lines that hold a
        picked row, building the entries of those rows alone."""
        with _damaged(self.path):
            line_of, pools = self._scan()
        picks = _pick_exemplars(pools, k, seed)
        picked: defaultdict[int, set[int]] = defaultdict(set)  # positions by line
        for position in chain.from_iterable(picks.values()):
            picked[line_of[position]].add(position)
        built: dict[int, LogEntry] = {}
        shared: dict[str, str] = {}
        last = max(picked, default=-1)
        with _damaged(self.path), contextlib.closing(self._lines(verify=False)) as lines:
            for n, (user, body) in enumerate(lines):
                if n > last:
                    break
                if n in picked:
                    rows = [row for row in _decoded(body) if row[0] in picked[n]]
                    built.update(zip(*self._rows(user, rows, shared)))
        return {activity: [built[p] for p in positions] for activity, positions in picks.items()}


def open_snapshot(path: str | Path) -> Snapshot:
    """Open a snapshot written by :func:`save_store`, reading its first line.
    A snapshot of another format, or one that does not decode into this
    layout, fails with IngestFailed; so does any later read of a damaged or
    cut one."""
    with _damaged(path), open(path, "rb") as handle:
        line = handle.readline()
        opens_entries = line.endswith(_OPEN_ENTRIES)
        # Not this layout: decode it whole to name its format.
        doc = json.loads(line + b"]}" if opens_entries else line + handle.read())
        if doc.get("format") != STORE_FORMAT:
            raise IngestFailed(f"{path}: snapshot format {doc.get('format')!r} is not "
                               f"{STORE_FORMAT!r}; re-run ingest")
        if not opens_entries:
            raise ValueError("the first line does not open the entries")
        rows = doc["rows"]
        # Every row takes more than one byte, so the row count is below the size.
        if type(rows) is not int or not 0 <= rows < os.fstat(handle.fileno()).st_size:
            raise ValueError(f"row count {rows!r}")
        users = tuple(doc["users"])
        if any(type(user) is not str for user in users) or list(users) != sorted(set(users)):
            raise ValueError("the users are not distinct names in sorted order")
        return Snapshot(
            Path(path), rows, dict(doc["labels"]),
            [SourceFile(**item) for item in doc["manifest"]],
            frozenset(_ACTIVITIES[a] for a in doc["activities"]), users, handle.tell(),
        )


def load_store(path: str | Path) -> LogStore:
    """Load the whole store of a snapshot written by :func:`save_store`,
    decoding one user line at a time. No phase reads a snapshot whole; the
    tests hold :meth:`Snapshot.exemplars` and :meth:`Snapshot.sequences` to
    what they read of this store."""
    return open_snapshot(path).load()
