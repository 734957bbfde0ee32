"""Unified, time-ordered activity log store.

Parses CERT-style CSV logs and Zeek-style TSV logs into LogEntry rows,
places them into per-user snapshot lines with benign under-sampling, and
writes the snapshot; its readers decode the same rows back into per-user
sequences and the seeded exemplars the rest of the pipeline builds on. A
whole store, for the readers that want one, is built in one pass by
:func:`build_user_sequences` and never mutated afterwards.
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
from itertools import accumulate, chain, islice, pairwise
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


_NO_PAYLOAD: Mapping[str, str] = MappingProxyType({})
_tuple_new = tuple.__new__
_ENTRY_ID = attrgetter("entry_id")
_TIMESTAMP = attrgetter("timestamp")
_ACTIVITY = attrgetter("activity")


class LogEntry(NamedTuple):
    """One normalized activity record, in the shape of a snapshot row:
    ``timestamp`` is the ISO text of a naive time, as ingest writes it, so
    text order is time order; ``activity``, being a ``str``, is written as
    its value."""

    entry_id: str
    timestamp: str
    user: str
    host: str
    activity: ActivityType
    payload: Mapping[str, str] = _NO_PAYLOAD

    @property
    def day(self) -> str:
        """The ISO date of ``timestamp``."""
        return self.timestamp[:10]


# Copies and pickles rebuild an entry from these; the shared empty payload
# cannot be pickled, so it is left to the default. (NamedTuple refuses this
# method in its class body.)
LogEntry.__getnewargs__ = lambda self: self[:5] if self.payload is _NO_PAYLOAD else tuple(self)


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

    def day_range(self) -> tuple[str, str]:
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


@contextlib.contextmanager
def _readable(path: Path) -> Iterator[None]:
    """Around the reading of a file: bytes that are not UTF-8, or CSV the
    csv module refuses, fail the file with IngestFailed."""
    try:
        yield
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


def _parse_timestamp(raw: str) -> datetime:
    raw = raw.strip()
    try:
        return datetime.strptime(raw, _CERT_TIME_FORMAT)
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(raw)
    except ValueError:
        raise ValueError(f"unparseable timestamp {raw!r}")


# The timestamp shape the fast path reads: zero-padded ASCII
# _CERT_TIME_FORMAT with a time of day in range, split into date and time.
_CERT_CLOCK = re.compile(r"(\d\d/\d\d/\d{4}) ((?:[01]\d|2[0-3]):[0-5]\d:[0-5]\d)", re.ASCII)


def _cert_day(text: str) -> str:
    """The ISO date of an ``MM/DD/YYYY`` text, with the ``T`` that follows
    it in a timestamp; empty for a date that does not exist."""
    try:
        return date(int(text[6:]), int(text[:2]), int(text[3:5])).isoformat() + "T"
    except ValueError:
        return ""


def _iso_timestamp(raw: str, days: dict[str, str]) -> str:
    """The ISO text of the naive time :func:`_parse_timestamp` reads from
    ``raw``, raising what it raises. ``days`` caches each date's ISO text,
    so a date is checked once; a time carrying a UTC offset raises
    ValueError, since only a naive time's text sorts in time order."""
    match = _CERT_CLOCK.fullmatch(raw.strip())
    if match:
        day_text, clock = match.groups()
        day = days.get(day_text)
        if day is None:
            day = days[day_text] = _cert_day(day_text)
        if day:
            return day + clock
    timestamp = _parse_timestamp(raw)
    if timestamp.tzinfo is not None:
        raise ValueError("timestamp carries a UTC offset")
    return timestamp.isoformat()


# The activity column's values, lower-cased, for the sources that have one.
_CERT_ACTIVITIES = {
    "logon": {"logon": ActivityType.LOGON, "logoff": ActivityType.LOGOFF},
    "device": {"connect": ActivityType.DEVICE_CONNECT,
               "disconnect": ActivityType.DEVICE_DISCONNECT},
}
_CERT_ACTIVITY = {"http": ActivityType.HTTP_VISIT, "email": ActivityType.EMAIL_SEND,
                  "file": ActivityType.FILE_OP}
# Per source: each payload key, the column it is read from, and whether it
# is kept when empty or absent (as ""). CERT ships an email's text in a
# "content" column.
_CERT_PAYLOADS = {
    "http": (("url", "url", True), ("content", "content", False)),
    "email": (("to", "to", True), ("from", "from", True), ("cc", "cc", False),
              ("bcc", "bcc", False), ("size", "size", False),
              ("attachments", "attachments", False), ("body", "content", True)),
    "file": (("filename", "filename", True), ("content", "content", False)),
}


def parse_cert_file(path: str | Path, source: str) -> ParsedFile:
    """Parse one CERT-style CSV file (header row, quoted fields permitted).

    A column named twice is read from its last place. Malformed rows are
    collected; the parse only fails wholesale when the header is unusable or
    more than 1% of data rows are bad.
    """
    if source not in CERT_SOURCES:
        raise IngestFailed(f"unknown CERT source {source!r}; expected one of {CERT_SOURCES}")
    path = Path(path)
    required = _CERT_REQUIRED[source]
    entries: list[LogEntry] = []
    errors: list[RowError] = []
    data_rows = 0
    days: dict[str, str] = {}
    hosts: dict[str, str] = {}  # one string per distinct host, shared by its rows

    with path.open("r", encoding="utf-8", newline="") as handle, _readable(path):
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestFailed(f"{path}: empty file, no header row")
        columns = [c.strip().lower() for c in header]
        missing = [c for c in required if c not in columns]
        if missing:
            raise IngestFailed(f"{path}: header missing required columns {missing}")
        index = {column: i for i, column in enumerate(columns)}
        width = len(columns)
        i_id, i_date, i_user, i_pc = index["id"], index["date"], index["user"], index["pc"]
        kinds = _CERT_ACTIVITIES.get(source)
        i_activity = index["activity"] if kinds else None
        payload_columns = [(key, index.get(column), always)
                           for key, column, always in _CERT_PAYLOADS.get(source, ())]
        add = entries.append

        for line_no, raw in enumerate(reader, start=2):
            if len(raw) != width:
                if not raw or (len(raw) == 1 and not raw[0].strip()):
                    continue
                data_rows += 1
                errors.append(RowError(line_no, f"expected {width} fields, got {len(raw)}"))
                continue
            data_rows += 1
            try:
                timestamp = _iso_timestamp(raw[i_date], days)
                if kinds is None:
                    activity = _CERT_ACTIVITY[source]
                else:
                    activity = kinds.get(raw[i_activity].strip().lower())
                    if activity is None:
                        raise ValueError(f"line {line_no}: {source} activity column reads "
                                         f"{raw[i_activity]!r}")
            except ValueError as exc:
                errors.append(RowError(line_no, str(exc)))
                continue
            user = raw[i_user].strip()
            if not user:
                errors.append(RowError(line_no, "empty user field"))
                continue
            payload = {}
            for key, i, always in payload_columns:
                value = "" if i is None else raw[i]
                if value or always:
                    payload[key] = value
            host = raw[i_pc].strip()
            add(_tuple_new(LogEntry, (raw[i_id].strip(), timestamp, user,
                                      hosts.setdefault(host, host), activity, payload)))

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

    with path.open("r", encoding="utf-8") as handle, _readable(path):
        for line_no, line in enumerate(handle, start=1):
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
                moment = datetime.fromtimestamp(float(record["ts"]), tz=timezone.utc)
                timestamp = moment.replace(tzinfo=None).isoformat()
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

            entries.append(LogEntry(f"{path.stem}:{data_rows}", timestamp, user, host, activity, record))

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


def check_ids(ids: Iterable[str], labels: Mapping[str, str]) -> None:
    """An id that repeats raises DuplicateEntryId; then a label for an id
    not among them, or of an unknown value, raises LabelsInvalid."""
    _check_labels(labels, _sorted_ids(ids))


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
    labels = dict(labels or {})
    check_ids(map(_ENTRY_ID, entries), labels)
    grouped: defaultdict[str, list[LogEntry]] = defaultdict(list)
    lines: defaultdict[str, list[int]] = defaultdict(list)
    for position, entry in enumerate(entries):
        lines[entry.user].append(position)
        if entry.user:
            grouped[entry.user].append(entry)
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


# ---------------------------------------------------------------------------
# Snapshot lines: rows placed as they are parsed, and under-sampled
# ---------------------------------------------------------------------------

# The rows of a snapshot's user lines by user, host-only rows under the
# empty user: each row is ``[position, id, timestamp, host, activity,
# payload]``, and each line is in store order, the order rows were placed in.
Lines = Mapping[str, Sequence[list]]


def place_rows(lines: defaultdict[str, list[list]], ids: list[str], rows: Sequence[LogEntry]) -> None:
    """Append each row to its user's line and its id to ``ids``, whose
    length before a row is the row's store position."""
    start = len(ids)
    ids += map(_ENTRY_ID, rows)
    for position, (entry_id, timestamp, user, host, activity, payload) in enumerate(rows, start):
        lines[user].append([position, entry_id, timestamp, host, activity, payload])


def undersample_benign(lines: Lines, labels: Mapping[str, str],
                       cap: int = DEFAULT_UNDERSAMPLE_CAP,
                       seed: int = DEFAULT_SEED) -> tuple[Lines, Mapping[str, str]]:
    """The lines keeping every malicious row and at most ``cap`` benign ones,
    renumbered in store order, and the labels of the rows kept.

    Rows without an explicit label count as benign; the benign rows kept
    are ``cap`` drawn by ``seed`` from the benign positions in store order.
    When the benign count is already within the cap, the lines and labels
    themselves are returned. Neither argument is changed.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if not labels:
        raise LabelsMissing("under-sampling requires ground-truth labels")

    # Labels name only the lines' own, unique ids, so this is the benign count.
    malicious = {i for i, label in labels.items() if label == LABEL_MALICIOUS}
    rows = sum(map(len, lines.values()))
    if rows - len(malicious) <= cap:
        return lines, labels

    keep = bytearray(rows)  # by position
    for line in lines.values():
        for row in line:
            if row[1] in malicious:
                keep[row[0]] = 1
    benign = [position for position, flag in enumerate(keep) if not flag]
    for position in random.Random(seed).sample(benign, cap):
        keep[position] = 1
    rank = list(accumulate(keep))  # a kept row's new position, plus one
    kept: dict[str, list[list]] = {}
    for user, line in lines.items():
        mine = [[rank[row[0]] - 1, *row[1:]] for row in line if keep[row[0]]]
        if mine:
            kept[user] = mine
    ids = {row[1] for line in kept.values() for row in line}
    return kept, {i: label for i, label in labels.items() if i in ids}


def label_users(lines: Lines, labels: Mapping[str, str]) -> dict[str, str]:
    """Each user's label: malicious iff the user owns a row labelled
    malicious. Host-only rows belong to no user."""
    malicious = {i for i, label in labels.items() if label == LABEL_MALICIOUS}
    return {user: LABEL_MALICIOUS if any(row[1] in malicious for row in line) else LABEL_BENIGN
            for user, line in lines.items() if user}


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


def save_store(lines: Lines, path: str | Path, labels: Mapping[str, str] | None = None,
               manifest: Iterable[SourceFile] = ()) -> None:
    """Write a store snapshot of these lines: one compact JSON document of
    three parts.

    - The first line holds ``format``, ``labels``, ``manifest``, the row
      count ``rows``, the fleet's ``activities`` and the ``users`` in line
      order, and opens ``entries``.
    - Then one line per user, in sorted-user order, host-only rows under
      the empty user: that user's rows ``[position, id, ts, host, activity,
      payload]`` in store order, where the position is the row's index in
      the store.
    - A last line closes ``entries`` with ``sha256``, the digest of the
      user lines' bytes.

    Each user's line is encoded and written on its own."""
    users = sorted(lines)
    head = _encode({
        "activities": sorted(a.value for a in {row[4] for line in lines.values() for row in line}),
        "format": STORE_FORMAT,
        "labels": labels or {},
        "manifest": [
            {"path": s.path, "kind": s.kind, "rows": s.rows, "malformed": s.malformed}
            for s in manifest
        ],
        "rows": sum(map(len, lines.values())),
        "users": users,
    })
    digest = hashlib.sha256()
    # Renamed over the snapshot, so an interrupted write leaves the old one whole.
    partial = Path(f"{path}.partial")
    try:
        with partial.open("wb") as handle:
            handle.write(head[:-1].encode("utf-8") + _OPEN_ENTRIES)
            for n, user in enumerate(users, start=1):
                line = (_encode(lines[user])[1:-1] + (",\n" if n < len(users) else "\n")).encode("utf-8")
                digest.update(line)
                handle.write(line)
            handle.write(_closing_line(digest.hexdigest()))
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def _decoded(body: bytes) -> list:
    """The rows of one user line."""
    return json.loads(b"[" + body + b"]")


# The ISO text of a naive time as ``datetime.isoformat`` writes it: a date
# that exists (a February 29th only in a leap year, no year 0), and the
# microseconds only when they are not zero. Matched against a line's
# timestamps joined by newlines.
_MONTH_DAY = r"(?:(?:0[1-9]|1[0-2])-(?:0[1-9]|1\d|2[0-8])|(?:0[13-9]|1[0-2])-(?:29|30)|(?:0[13578]|1[02])-31)"
_LEAP_YEAR = r"(?:\d\d(?:0[48]|[2468][048]|[13579][26])|(?:[02468][048]|[13579][26])00)"
_ISO_TIME = (rf"(?!0000)(?:\d{{4}}-{_MONTH_DAY}|{_LEAP_YEAR}-02-29)"
             r"T(?:[01]\d|2[0-3]):[0-5]\d:[0-5]\d(?:\.(?!0{6})\d{6})?")
_ISO_TIMES = re.compile(rf"{_ISO_TIME}(?:\n{_ISO_TIME})*", re.ASCII).fullmatch


def _is_iso_time(stamp: str) -> bool:
    """Whether ``stamp`` is the ISO text of a naive time, as ingest writes it."""
    try:
        moment = datetime.fromisoformat(stamp)
    except ValueError:
        return False
    return moment.tzinfo is None and moment.isoformat() == stamp


def _check_times(rows: list) -> None:
    """Every timestamp of one line's rows must pass :func:`_is_iso_time`,
    which makes their text order their time order. One match checks them
    all at once (a newline within one would show in the count); only a
    line that fails is checked row by row, to name its first bad one."""
    stamps = [row[2] for row in rows]
    text = "\n".join(stamps)
    if _ISO_TIMES(text) and text.count("\n") < len(stamps):
        return
    for stamp in stamps:
        if not _is_iso_time(stamp):
            raise ValueError(f"timestamp {stamp!r} is not the ISO text ingest writes")


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
        _check_times(rows)
        # One string object per distinct host, shared by its entries, and the
        # immutable empty payload for every empty one.
        entries = [LogEntry(entry_id, ts, user, shared.setdefault(host, host),
                            _ACTIVITIES[activity], payload or _NO_PAYLOAD)
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
        the store that ingest saved: rows of six fields with a timestamp as
        ingest writes it (see :func:`_check_times`) and a known activity,
        the positions of each line ascending, no position repeated or left
        out, ids unique across users, labels naming known ids, and the
        header's activity types.
        Returns the line of each position, and each activity type's
        positions in store order."""
        line_of = [-1] * self.rows
        kind_of = bytearray(self.rows)  # the index of each row's type in _TYPES
        ids: list[str] = []
        placed = 0
        for n, (user, body) in enumerate(self._lines()):
            rows = _decoded(body)
            _check_times(rows)
            kinds = []
            for _, entry_id, _, _, activity, _ in rows:
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
