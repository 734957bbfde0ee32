from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import pickle
import random
import re
import tempfile
import tracemalloc
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import logaudit.logstore
from conftest import entry, seal
from logaudit.errors import DuplicateEntryId, IngestFailed, LabelsInvalid, LabelsMissing
from logaudit.logstore import (
    CERT_SOURCES,
    ActivityType,
    LogEntry,
    LogStore,
    SourceFile,
    _check_times,
    _iso_timestamp,
    build_user_sequences,
    label_users,
    load_labels,
    load_store,
    open_snapshot,
    parse_cert_file,
    parse_zeek_file,
    sample_exemplars,
    save_store,
    undersample_benign,
)
from logaudit.runtime import field_value
from oracles import malicious_ids, naive_has_duplicate_ids, naive_sequences, save_logstore, store_lines


# --- CERT parsing ---

def test_cert_logon_activity_mapping(data_dir):
    parsed = parse_cert_file(data_dir / "cert_logon.csv", "logon")
    assert not parsed.errors
    assert parsed.entries[0].activity is ActivityType.LOGON
    assert parsed.entries[1].activity is ActivityType.LOGOFF


def test_cert_pinned_row_field_order(data_dir):
    # Column order is id,date,user,pc,activity: user/host/timestamp come
    # from the 3rd/4th/2nd columns.
    parsed = parse_cert_file(data_dir / "cert_logon.csv", "logon")
    first = parsed.entries[0]
    assert first.entry_id == "{X1D9-S0ES98JV-5357PWMI}"
    assert first.user == "DTAA/TNM0961"
    assert first.host == "PC-0588"
    assert first.timestamp == "2010-01-02T06:49:00"


def test_cert_header_only_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("id,date,user,pc,activity\n", encoding="utf-8")
    parsed = parse_cert_file(path, "logon")
    assert parsed.entries == []
    assert parsed.errors == []


def test_cert_source_payloads(data_dir):
    device = parse_cert_file(data_dir / "cert_device.csv", "device")
    assert [e.activity for e in device.entries] == [
        ActivityType.DEVICE_CONNECT, ActivityType.DEVICE_DISCONNECT
    ]
    http = parse_cert_file(data_dir / "cert_http.csv", "http")
    assert http.entries[0].activity is ActivityType.HTTP_VISIT
    assert http.entries[0].payload["url"] == "http://news.example.com/story/42"
    email = parse_cert_file(data_dir / "cert_email.csv", "email")
    assert email.entries[0].activity is ActivityType.EMAIL_SEND
    assert email.entries[0].payload["to"] == "alice@dtaa.com"
    assert email.entries[0].payload["from"] == "tnm0961@dtaa.com"
    assert email.entries[0].payload["size"] == "1532"
    assert email.entries[0].payload["body"].startswith("quarterly numbers")
    fileop = parse_cert_file(data_dir / "cert_file.csv", "file")
    assert fileop.entries[1].payload["filename"].endswith("helper.exe")


def test_cert_malformed_rows_collected(tmp_path):
    rows = ["id,date,user,pc,activity"]
    rows += [f"{{A{i:04d}}},01/02/2010 06:49:00,U1,PC-1,Logon" for i in range(150)]
    rows.append("{BAD1},not-a-date,U1,PC-1,Logon")
    path = tmp_path / "logon.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    parsed = parse_cert_file(path, "logon")
    assert len(parsed.entries) == 150
    assert len(parsed.errors) == 1
    assert parsed.errors[0].line_no == 152
    # Round-trip: parsed entries = data rows - malformed rows.
    assert len(parsed.entries) == parsed.source.rows - parsed.source.malformed


def test_cert_too_many_malformed_rows_fails(tmp_path):
    rows = ["id,date,user,pc,activity",
            "{A1},01/02/2010 06:49:00,U1,PC-1,Logon",
            "{A2},garbage,U1,PC-1,Logon"]
    path = tmp_path / "logon.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(IngestFailed):
        parse_cert_file(path, "logon")


def test_cert_missing_header_column_fails(tmp_path):
    path = tmp_path / "logon.csv"
    path.write_text("id,date,pc,activity\n{A1},01/02/2010 06:49:00,PC-1,Logon\n")
    with pytest.raises(IngestFailed):
        parse_cert_file(path, "logon")


def _strptime_chain(raw: str) -> datetime:
    """The CERT timestamp parse before its fixed-format fast path."""
    raw = raw.strip()
    try:
        return datetime.strptime(raw, "%m/%d/%Y %H:%M:%S")
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(raw)
    except ValueError:
        raise ValueError(f"unparseable timestamp {raw!r}")


def _outcome(parse, raw: str) -> tuple:
    try:
        return ("ok", parse(raw))
    except Exception as exc:  # the type and message must match too
        return ("raised", type(exc), str(exc))


_FIELDS = st.tuples(*[st.integers(0, 99)] * 2, st.integers(0, 9999), *[st.integers(0, 99)] * 3)
_PADDED = st.one_of(st.datetimes().map(lambda d: f"{d:%m/%d}/{d.year:04d} {d:%H:%M:%S}"),
                    _FIELDS.map(lambda f: "%02d/%02d/%04d %02d:%02d:%02d" % f))
_UNPADDED = _FIELDS.map(lambda f: "%d/%d/%d %d:%d:%d" % f)
_DIGITS = st.sampled_from(["\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
                           "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19"])
_FOREIGN_DIGITS = st.tuples(_PADDED, _DIGITS).map(
    lambda pair: pair[0].translate({ord(str(i)): pair[1][i] for i in range(10)}))
_SPACE = st.text(st.sampled_from(" \t\n\r\x0b\x0c\xa0\u3000"), max_size=2)


_DAYS: dict[str, str] = {}


def _iso_chain(raw: str) -> str:
    """The ISO text of the chain's naive time; an aware one is refused."""
    timestamp = _strptime_chain(raw)
    if timestamp.tzinfo is not None:
        raise ValueError("timestamp carries a UTC offset")
    return timestamp.isoformat()


@given(st.tuples(_SPACE, st.one_of(_PADDED, _UNPADDED, _FOREIGN_DIGITS, st.text(),
                                   st.text(st.sampled_from("0123456789/: -T.")),
                                   st.datetimes().map(datetime.isoformat),
                                   st.datetimes(timezones=st.just(timezone.utc))
                                   .map(datetime.isoformat)), _SPACE)
       .map("".join))
@example("12/31/2024 23:59:59")
@example("12/31/2024 23:59:60")
@example("02/30/2024 00:00:00")
@example("02/29/2024 24:00:00")
@example("13/01/2024 00:00:00")
@example("01/02/0000 00:00:00")
@example("01/02/0999 00:00:00")
@example("\u0660\u0661/\u0660\u0662/\u0662\u0660\u0662\u0664 \u0660\u0663:\u0660\u0664:\u0660\u0665")
@example("1/2/2024 3:04:05")
@example("01/02/2024  03:04:05")
@example("2024-01-02T03:04:05.123456")
@example("2024-03-17T19:05:00+01:00")
@example("2024-03-17T19:05:00Z")
@settings(max_examples=400, deadline=None)
def test_cert_timestamp_matches_the_strptime_chain(raw):
    # The date cache is shared across draws, as across the rows of a file.
    assert _outcome(lambda text: _iso_timestamp(text, _DAYS), raw) == _outcome(_iso_chain, raw)


def test_cert_undecodable_byte_fails_the_file(tmp_path):
    path = tmp_path / "logon.csv"
    path.write_bytes(b"id,date,user,pc,activity\n{A1},01/02/2010 06:49:00,U\xff,PC-1,Logon\n")
    with pytest.raises(IngestFailed, match=f"^{re.escape(str(path))}: unreadable input: 'utf-8' codec"):
        parse_cert_file(path, "logon")


def test_cert_oversized_field_fails_the_file(tmp_path):
    path = tmp_path / "http.csv"
    path.write_text("id,date,user,pc,url\n{A1},01/02/2010 06:49:00,U1,PC-1,"
                    + "x" * 131_073 + "\n", encoding="utf-8")
    with pytest.raises(IngestFailed, match=f"^{re.escape(str(path))}: unreadable input: field larger"):
        parse_cert_file(path, "http")


# --- Zeek parsing ---

def test_zeek_row_count(data_dir):
    parsed = parse_zeek_file(data_dir / "zeek_kerberos.log")
    assert len(parsed.entries) == 2
    assert not parsed.errors


def test_zeek_kerberos_maps_to_auth(data_dir):
    parsed = parse_zeek_file(data_dir / "zeek_kerberos.log")
    assert all(e.activity is ActivityType.ZEEK_AUTH for e in parsed.entries)
    assert parsed.entries[0].user == "jsmith/PICO.PICODOMAIN.LOCAL"
    assert parsed.entries[0].host == "10.99.99.152"


def test_zeek_pinned_row_payload_keys(data_dir):
    # Payload keys equal the #fields names, verbatim.
    parsed = parse_zeek_file(data_dir / "zeek_kerberos.log")
    expected = {
        "ts", "uid", "id.orig_h", "id.orig_p", "id.resp_h", "id.resp_p",
        "request_type", "client", "service", "success", "error_msg",
        "from", "till", "cipher", "forwardable", "renewable",
    }
    assert set(parsed.entries[0].payload) == expected
    assert parsed.entries[0].timestamp == datetime.utcfromtimestamp(1563552513.214619).isoformat()


def test_zeek_stream_groups(data_dir):
    assert parse_zeek_file(data_dir / "zeek_weird.log").entries[0].activity \
        is ActivityType.ZEEK_ANOMALY
    assert parse_zeek_file(data_dir / "zeek_conn.log").entries[0].activity \
        is ActivityType.ZEEK_NETWORK
    assert parse_zeek_file(data_dir / "zeek_files.log").entries[0].activity \
        is ActivityType.ZEEK_FILE


def test_zeek_unknown_stream(tmp_path):
    path = tmp_path / "custom.log"
    path.write_text(
        "#separator \\x09\n#path\tcustom\n#fields\tts\tnote\n"
        "1563552513.0\thello\n",
        encoding="utf-8",
    )
    parsed = parse_zeek_file(path)
    assert parsed.entries[0].activity is ActivityType.ZEEK_SYSTEM


def test_zeek_json_lines(tmp_path):
    path = tmp_path / "dns.log"
    path.write_text(
        '{"ts": "1563552513.2", "uid": "C1", "query": "example.com", "id.orig_h": "10.0.0.9"}\n',
        encoding="utf-8",
    )
    parsed = parse_zeek_file(path, kind="dns")
    assert parsed.entries[0].activity is ActivityType.ZEEK_NETWORK
    assert parsed.entries[0].payload["query"] == "example.com"
    assert parsed.entries[0].host == "10.0.0.9"


@pytest.mark.parametrize("record", ["[" * 100_000, '{"ts": ' + "1" * 5_000 + "}"],
                         ids=["nested-past-recursion-limit", "integer-past-digit-limit"])
def test_zeek_json_record_json_refuses_is_a_malformed_row(tmp_path, record):
    path = tmp_path / "dns.log"
    rows = [f'{{"ts": "1563552513.{i}", "query": "q{i}"}}' for i in range(200)] + [record]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    parsed = parse_zeek_file(path)
    assert (len(parsed.entries), parsed.source.rows) == (200, 201)
    assert parsed.errors[0].reason == "unparseable JSON record"


def test_zeek_undecodable_byte_fails_the_file(tmp_path):
    path = tmp_path / "conn.log"
    path.write_bytes(b"#fields\tts\tuser\n1563552513.0\tu\xff\n")
    with pytest.raises(IngestFailed, match=f"^{re.escape(str(path))}: unreadable input: 'utf-8' codec"):
        parse_zeek_file(path)


def test_zeek_undecodable_separator_fails_the_file(tmp_path):
    path = tmp_path / "conn.log"
    path.write_text("#separator\t\\x\n#fields\tts\n1563552513.0\n", encoding="utf-8")
    with pytest.raises(IngestFailed, match=r"conn.log:1: bad #separator"):
        parse_zeek_file(path)


# --- any input: IngestFailed at most, every row counted ---

def _parse_bytes(directory: Path, parse, name: str, data: bytes):
    path = directory / name
    path.write_bytes(data)
    # No tolerance for malformed rows: files with bad rows are counted too.
    with mock.patch("logaudit.logstore.MALFORMED_ROW_TOLERANCE", 1.0):
        try:
            return parse(path)
        except IngestFailed:
            return None


_CERT_HEADER = b"id,date,user,pc,activity,url,to,from,filename\n"
_CERT_PIECES = [_CERT_HEADER,
                b"{A1},01/02/2010 06:49:00,U1,PC-1,Logon,u,t,f,n\n",
                b"{A2},2010-01-02T06:49:00,U2,PC-1,connect,u,t,f,n\r\n",
                b",", b'"', b"\n", b"\r", b"Logoff", b"\xff", b"\x00", b"13/45/2010 99:00:00"]


@given(st.sampled_from(CERT_SOURCES),
       st.one_of(st.binary(),
                 st.lists(st.sampled_from(_CERT_PIECES)).map(lambda p: _CERT_HEADER + b"".join(p))))
@settings(max_examples=200, deadline=None)
def test_cert_parser_raises_only_ingest_failed_and_counts_every_row(source, data):
    with tempfile.TemporaryDirectory() as directory:
        parsed = _parse_bytes(Path(directory), lambda p: parse_cert_file(p, source),
                              f"{source}.csv", data)
    if parsed is not None:
        assert len(parsed.entries) + len(parsed.errors) == parsed.source.rows
        assert parsed.source.malformed == len(parsed.errors)


_ZEEK_PIECES = [b"#separator \\x09\n", b"#separator\t\\x\n", b"#separator\t,\n",
                b"#fields\tts\tuser\tid.orig_h\n", b"#path\tkerberos\n",
                b"1563552513.2\tu1\t10.0.0.9\n", b'{"ts": "1563552513.2", "user": "u"}\n',
                b"[1]\n", b"{", b"\t", b"\n", b"-", b"nan", b"1e300", b"\xff", b"#"]


@given(st.one_of(st.binary(), st.lists(st.sampled_from(_ZEEK_PIECES)).map(b"".join)))
@settings(max_examples=200, deadline=None)
def test_zeek_parser_raises_only_ingest_failed_and_counts_every_row(data):
    with tempfile.TemporaryDirectory() as directory:
        parsed = _parse_bytes(Path(directory), parse_zeek_file, "conn.log", data)
    if parsed is not None:
        assert len(parsed.entries) + len(parsed.errors) == parsed.source.rows
        assert parsed.source.malformed == len(parsed.errors)


# --- sequences ---

def test_build_user_sequences_partition():
    entries = [
        entry("A1", "alice", ActivityType.LOGON, hour=8),
        entry("B1", "bob", ActivityType.LOGON, hour=9),
        entry("A2", "alice", ActivityType.LOGOFF, hour=10),
        entry("B2", "bob", ActivityType.LOGOFF, hour=11),
        entry("A3", "alice", ActivityType.LOGON, day_offset=1),
    ]
    store = seal(entries)
    assert len(store.users["alice"].entries) == 3
    assert len(store.users["bob"].entries) == 2
    total = sum(len(seq.entries) for seq in store.users.values())
    assert total == sum(1 for e in store.entries if e.user)


def test_sequences_stable_for_equal_timestamps():
    entries = [
        entry("E1", "u", ActivityType.LOGON, hour=8, minute=0),
        entry("E2", "u", ActivityType.LOGON, hour=8, minute=0),
        entry("E3", "u", ActivityType.LOGON, hour=8, minute=0),
    ]
    store = seal(entries)
    assert [e.entry_id for e in store.users["u"].entries] == ["E1", "E2", "E3"]


def test_sequences_match_single_pass_counter_oracle():
    rng = random.Random(123)
    users = [f"user{i}" for i in range(10)]
    entries = []
    oracle_counts: dict[str, int] = {}
    for i in range(1000):
        user = rng.choice(users)
        oracle_counts[user] = oracle_counts.get(user, 0) + 1
        entries.append(
            entry(f"N{i:04d}", user, ActivityType.LOGON,
                  day_offset=rng.randrange(20), hour=rng.randrange(24))
        )
    store = seal(entries)
    assert {u: len(s.entries) for u, s in store.users.items()} == oracle_counts
    for seq in store.users.values():
        times = [e.timestamp for e in seq.entries]
        assert times == sorted(times)


def test_seal_lines_hold_every_entry_once():
    rng = random.Random(7)
    types = [ActivityType.LOGON, ActivityType.HTTP_VISIT, ActivityType.ZEEK_NETWORK]
    store = seal([
        entry(f"X{i:03d}", rng.choice(["u1", "u2", ""]), rng.choice(types),
              day_offset=rng.randrange(5), hour=rng.randrange(24))
        for i in range(300)
    ])
    positions = sorted(i for part in store.lines.values() for i in part)
    assert positions == list(range(len(store.entries)))
    for user, part in store.lines.items():
        assert part == sorted(part)
        assert all(store.entries[i].user == user for i in part)
    assert "" in store.lines  # host-only entries have a line


def test_store_is_frozen():
    store = seal([entry("E1", "u", ActivityType.LOGON)])
    with pytest.raises(dataclasses.FrozenInstanceError):
        store.labels = {"E1": "malicious"}


def test_duplicate_entry_id_rejected():
    with pytest.raises(DuplicateEntryId):
        seal([entry("E1", "u", ActivityType.LOGON), entry("E1", "u", ActivityType.LOGOFF)])


_BUILDER_TYPES = (ActivityType.LOGON, ActivityType.HTTP_VISIT, ActivityType.ZEEK_NETWORK)


@given(
    rows=st.lists(st.tuples(st.integers(0, 30), st.sampled_from(("u1", "u2", "")),
                            st.sampled_from(_BUILDER_TYPES), st.integers(0, 2)),
                  max_size=10),
)
@settings(max_examples=200, deadline=None)
def test_builder_matches_naive_oracle(rows):
    # Few hours, so that equal timestamps are common; few ids, so are repeats.
    entries = [entry(f"E{n}", user, activity, hour=hour) for n, user, activity, hour in rows]
    if naive_has_duplicate_ids(entries):
        with pytest.raises(DuplicateEntryId):
            build_user_sequences(entries)
        return
    store = build_user_sequences(entries)
    assert {u: [e.entry_id for e in seq.entries] for u, seq in store.users.items()} == \
        naive_sequences(entries)
    assert store.lines == {user: [i for i, e in enumerate(entries) if e.user == user]
                           for user in {e.user for e in entries}}
    assert store.activity_types() == {e.activity for e in entries}
    with pytest.raises(LabelsInvalid):
        build_user_sequences(entries, {"unknown": "malicious"})


# --- sampling ---

def test_sample_exemplars_undersized_class():
    store = seal([
        entry("H1", "u", ActivityType.HTTP_VISIT, url="http://a.example/x"),
        *[entry(f"L{i}", "u", ActivityType.LOGON, hour=8 + i) for i in range(5)],
    ])
    picks = sample_exemplars(store, k=3)
    assert [e.entry_id for e in picks[ActivityType.HTTP_VISIT]] == ["H1"]
    assert len(picks[ActivityType.LOGON]) == 3
    assert len({e.entry_id for e in picks[ActivityType.LOGON]}) == 3


def test_sample_exemplars_deterministic():
    store = seal([entry(f"L{i}", "u", ActivityType.LOGON, hour=i % 24, minute=i % 60)
                  for i in range(50)])
    first = sample_exemplars(store, k=3, seed=42)
    second = sample_exemplars(store, k=3, seed=42)
    assert [e.entry_id for e in first[ActivityType.LOGON]] == \
        [e.entry_id for e in second[ActivityType.LOGON]]
    different = sample_exemplars(store, k=3, seed=43)
    assert first.keys() == different.keys()


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_sampling_determinism_property(k, seed):
    store = seal([entry(f"L{i}", "u", ActivityType.LOGON, hour=i % 24) for i in range(10)])
    a = sample_exemplars(store, k=k, seed=seed)
    b = sample_exemplars(store, k=k, seed=seed)
    assert {t: [e.entry_id for e in v] for t, v in a.items()} == \
        {t: [e.entry_id for e in v] for t, v in b.items()}


# --- under-sampling ---

def _labeled_store(n_benign: int, n_malicious: int) -> LogStore:
    entries = [entry(f"B{i:05d}", "u1", ActivityType.LOGON, hour=i % 24, minute=i % 60)
               for i in range(n_benign)]
    entries += [entry(f"M{i:05d}", "u2", ActivityType.HTTP_VISIT, hour=i % 24,
                      url="http://wikileaks.org/x") for i in range(n_malicious)]
    return seal(entries, {e.entry_id: ("malicious" if e.entry_id.startswith("M") else "benign")
                          for e in entries})


def _undersampled(store: LogStore, cap: int, seed: int = 42) -> tuple[dict, dict, dict]:
    """The store's lines, and the lines and labels under-sampling them keeps."""
    lines = store_lines(store)
    return (lines, *undersample_benign(lines, store.labels, cap=cap, seed=seed))


def _ids(lines) -> set[str]:
    return {row[1] for line in lines.values() for row in line}


def _positions(lines) -> list[int]:
    return sorted(row[0] for line in lines.values() for row in line)


def test_undersample_keeps_all_malicious():
    store = _labeled_store(200, 10)
    lines, sampled, labels = _undersampled(store, cap=50, seed=1)
    assert _positions(sampled) == list(range(60))  # renumbered in store order
    assert {i for i, label in labels.items() if label == "malicious"} == malicious_ids(store)
    assert malicious_ids(store) <= _ids(sampled) and labels.keys() <= _ids(sampled)
    assert lines == store_lines(store)  # untouched


def test_undersample_noop_when_under_cap():
    store = _labeled_store(30, 5)
    lines, sampled, labels = _undersampled(store, cap=50)
    assert sampled is lines and labels is store.labels


@pytest.mark.parametrize("cap, kept", [(30, 35), (29, 34)], ids=["at-cap", "one-over"])
@pytest.mark.parametrize("label_benign", [True, False], ids=["all-labelled", "malicious-only"])
def test_undersample_cap_boundary(cap, kept, label_benign):
    # Unlabelled entries count as benign on both sides of the boundary.
    store = _labeled_store(30, 5)
    if not label_benign:
        store = seal(store.entries, {i: "malicious" for i in malicious_ids(store)})
    lines, sampled, labels = _undersampled(store, cap=cap)
    assert _positions(sampled) == list(range(kept))
    assert (sampled is lines) == (kept == len(store.entries))
    assert malicious_ids(store) <= _ids(sampled)


def test_undersample_cap_zero():
    store = _labeled_store(30, 5)
    assert _ids(_undersampled(store, cap=0)[1]) == malicious_ids(store)


def test_undersample_requires_labels():
    store = seal([entry("E1", "u", ActivityType.LOGON)])
    with pytest.raises(LabelsMissing):
        _undersampled(store, cap=10)


def test_undersample_deterministic():
    store = _labeled_store(100, 5)
    assert _undersampled(store, cap=20, seed=9) == _undersampled(store, cap=20, seed=9)


# --- labels and snapshots ---

def test_load_labels_and_attach(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("entry_id,label\nE1,malicious\n", encoding="utf-8")
    store = seal([entry("E1", "u", ActivityType.LOGON)], load_labels(path))
    assert malicious_ids(store) == {"E1"}
    assert label_users(store_lines(store), store.labels) == {"u": "malicious"}


@pytest.mark.parametrize("labels", [{"NOPE": "malicious"}, {"E1": "suspicious"}],
                         ids=["unknown-id", "bad-value"])
def test_builder_rejects_bad_labels(labels):
    with pytest.raises(LabelsInvalid):
        seal([entry("E1", "u", ActivityType.LOGON)], labels)


def test_load_labels_bad_value(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("E1,suspicious\n", encoding="utf-8")
    with pytest.raises(LabelsInvalid):
        load_labels(path)


_TEXT = st.text(max_size=8)


@st.composite
def _stores(draw) -> LogStore:
    rows = draw(st.lists(
        st.tuples(st.text(min_size=1, max_size=8), st.datetimes().map(datetime.isoformat), _TEXT,
                  _TEXT, st.sampled_from(ActivityType), st.dictionaries(_TEXT, _TEXT, max_size=3)),
        max_size=12, unique_by=lambda row: row[0]))
    manifest = draw(st.lists(st.builds(
        SourceFile, _TEXT, _TEXT, st.integers(0, 10**6), st.integers(0, 10**6)), max_size=3))
    labelled = draw(st.lists(st.sampled_from([row[0] for row in rows]), unique=True)
                    if rows else st.just([]))
    labels = {i: draw(st.sampled_from(["benign", "malicious"])) for i in labelled}
    return build_user_sequences([LogEntry(*row) for row in rows], labels, manifest)


def _fields(store: LogStore) -> list[tuple]:
    return [(e.entry_id, e.timestamp, e.user, e.host, e.activity, dict(e.payload))
            for e in store.entries]


@st.composite
def _fleets(draw) -> LogStore:
    """Stores of a few users, host-only rows (the empty user) among them,
    whose rows interleave as rows read from several source files do."""
    rows = draw(st.lists(
        st.tuples(st.text(min_size=1, max_size=8), st.datetimes().map(datetime.isoformat),
                  st.sampled_from(["", "u", "v", "\u00fc"]), _TEXT, st.sampled_from(ActivityType),
                  st.dictionaries(_TEXT, _TEXT, max_size=2)),
        max_size=16, unique_by=lambda row: row[0]))
    manifest = draw(st.lists(st.builds(
        SourceFile, _TEXT, _TEXT, st.integers(0, 10**6), st.integers(0, 10**6)), max_size=3))
    labelled = draw(st.lists(st.sampled_from([row[0] for row in rows]), unique=True)
                    if rows else st.just([]))
    labels = {i: draw(st.sampled_from(["benign", "malicious"])) for i in labelled}
    return build_user_sequences([LogEntry(*row) for row in rows], labels, manifest)


def _same_store(loaded: LogStore, store: LogStore) -> None:
    assert _fields(loaded) == _fields(store)
    assert loaded.labels == store.labels
    assert loaded.source_manifest == store.source_manifest
    assert loaded.activities == store.activities
    assert {u: [e.entry_id for e in seq.entries] for u, seq in loaded.users.items()} == \
        {u: [e.entry_id for e in seq.entries] for u, seq in store.users.items()}
    assert loaded.lines == store.lines


def _forge_read(path: Path, users=(), **sampling) -> tuple[dict, dict]:
    """What forge reads of a snapshot: its exemplars, and the sequences of
    ``users``."""
    snapshot = open_snapshot(path)
    return snapshot.exemplars(**sampling), {seq.user: seq for seq in snapshot.sequences(users)}


@given(_stores() | _fleets())
@example(build_user_sequences([]))
@example(seal([LogEntry("E1", "2024-01-02T03:04:05.678901", "\u00fc", "",
                        ActivityType.HTTP_VISIT, {"url": "", "note": "\u2603"})]))
@settings(max_examples=100, deadline=None)
def test_store_snapshot_round_trip(store):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "store.json"
        save_logstore(store, path)
        written = path.read_bytes()
        snapshot = open_snapshot(path)
        loaded = load_store(path)
        sequences = list(snapshot.sequences())
        subset = sorted(loaded.users)[::2] + ["", "nobody"]
        subset_sequences = list(snapshot.sequences(subset))
        save_logstore(loaded, path)
        assert path.read_bytes() == written
    # A first line, one line per user (host-only rows under the empty one), a last line.
    lines = sorted(store.lines)
    assert snapshot.users == tuple(lines)
    assert written.count(b"\n") == 2 + len(lines)
    _same_store(loaded, store)
    # Every empty payload is the entry's shared immutable default.
    assert all(e.payload is logaudit.logstore._NO_PAYLOAD for e in loaded.entries if not e.payload)
    # Detect's sequences, one line at a time, equal the whole store's, user
    # by user; a subset yields the users of it the store holds, and no others.
    assert [seq.user for seq in sequences] == sorted(loaded.users)
    for seq in sequences:
        assert seq.entries == loaded.users[seq.user].entries
    assert [seq.user for seq in subset_sequences] == sorted(loaded.users.keys() & set(subset))
    for seq in subset_sequences:
        assert seq.entries == loaded.users[seq.user].entries


_FEW_TYPES = [ActivityType.LOGON, ActivityType.HTTP_VISIT, ActivityType.EMAIL_SEND,
              ActivityType.ZEEK_ANOMALY]


@st.composite
def _sampled(draw) -> tuple[LogStore, int, int, list[str]]:
    """A store of a few users and host-only rows, interleaved, over a few
    activity types, some with more rows than ``k`` and some with fewer;
    ``k``, a seed, and the case users to read, some of them absent."""
    rows = draw(st.lists(st.tuples(st.sampled_from(["", "u", "v", "w"]), st.sampled_from(_FEW_TYPES),
                                   st.integers(0, 3), st.integers(0, 2)), max_size=30))
    entries = [entry(f"E{n}", user, activity, day_offset=day, hour=hour, host=f"PC-{n % 3}",
                     **({"url": f"http://x{n}.example/"} if n % 2 else {}))
               for n, (user, activity, day, hour) in enumerate(rows)]
    labels = {e.entry_id: "malicious" for e in entries[::5]}
    k = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    users = draw(st.lists(st.sampled_from(["", "u", "v", "w", "nobody"]), unique=True))
    return seal(entries, labels), k, seed, users


class _Counted(LogEntry):
    """A LogEntry that counts the entries made."""

    made = 0

    def __new__(cls, *fields, **named):
        _Counted.made += 1
        return LogEntry(*fields, **named)


@given(_sampled())
@settings(max_examples=100, deadline=None)
def test_forge_read_matches_the_whole_store(sampled):
    store, k, seed, users = sampled
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "store.json"
        save_logstore(store, path)
        loaded = load_store(path)
        _Counted.made = 0
        with mock.patch.object(logaudit.logstore, "LogEntry", _Counted):
            exemplars, sequences = _forge_read(path, users, k=k, seed=seed)
    # The exemplars sample_exemplars picks from the whole store, in memory or
    # loaded, and the sequences of the named users the store holds.
    assert exemplars == sample_exemplars(store, k=k, seed=seed) == \
        sample_exemplars(loaded, k=k, seed=seed)
    assert list(exemplars) == list(sample_exemplars(loaded, k=k, seed=seed))
    assert sequences.keys() == loaded.users.keys() & set(users)
    for user, seq in sequences.items():
        assert seq.user == user and seq.entries == loaded.users[user].entries
    # Entries are built for those rows alone: no store is built.
    assert _Counted.made == sum(map(len, exemplars.values())) + \
        sum(len(seq.entries) for seq in sequences.values())


_FIELDS = ("entry_id", "timestamp", "user", "host", "activity", "payload")
# Naive times with and without microseconds, from year 1 to 9999.
_MOMENTS = st.datetimes() | st.datetimes().map(lambda moment: moment.replace(microsecond=0))


# Only naive times are drawn: no producer writes an aware one since ingest
# made offsets a malformed row, and the snapshot readers reject it.
@given(st.tuples(_TEXT, _MOMENTS.map(datetime.isoformat), _TEXT, _TEXT,
                 st.sampled_from(ActivityType), st.dictionaries(_TEXT, _TEXT, max_size=3)),
       st.booleans(), st.booleans())
@settings(max_examples=100, deadline=None)
def test_entry_carries_its_timestamps_day(row, by_keyword, with_payload):
    fields = dict(zip(_FIELDS, row if with_payload else row[:5]))
    made = LogEntry(**fields) if by_keyword else LogEntry(*fields.values())
    assert made.day == datetime.fromisoformat(row[1]).date().isoformat()
    assert made == (*row[:5], made.payload)
    assert made.payload == (row[5] if with_payload else {})
    for name in (*_FIELDS, "day"):
        with pytest.raises(AttributeError):
            setattr(made, name, None)
    if not with_payload:
        with pytest.raises(TypeError):
            made.payload["key"] = "value"  # the default payload is immutable
    moved = made._replace(timestamp="2024-02-03T04:05:00")
    assert moved.day == "2024-02-03" and moved.entry_id == made.entry_id
    for twin in (copy.copy(made), copy.deepcopy(made), pickle.loads(pickle.dumps(made))):
        assert type(twin) is LogEntry and twin == made and twin.day == made.day
        assert (twin.payload is logaudit.logstore._NO_PAYLOAD) == (not with_payload)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "store.json"
        save_logstore(build_user_sequences([made]), path)
        [loaded] = load_store(path).entries
        [[sampled]] = _forge_read(path)[0].values()
    assert loaded == made and loaded.day == made.day
    assert sampled == made and sampled.day == made.day


@given(st.lists(_MOMENTS, min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_timestamp_text_sorts_in_time_order(moments):
    texts = [moment.isoformat() for moment in moments]
    assert sorted(texts) == [moment.isoformat() for moment in sorted(moments)]
    _check_times([[0, "E", text] for text in texts])
    for moment, text in zip(moments, texts):
        made = LogEntry("E", text, "u", "PC-1", ActivityType.LOGON)
        assert made.day == moment.date().isoformat()
        assert field_value(made, "hour") == moment.hour


def _round_trips(stamp: str) -> bool:
    try:
        moment = datetime.fromisoformat(stamp)
    except ValueError:
        return False
    return moment.tzinfo is None and moment.isoformat() == stamp


_STAMPS = st.one_of(
    _MOMENTS.map(datetime.isoformat),
    st.datetimes(timezones=st.just(timezone.utc)).map(datetime.isoformat),
    st.text(st.sampled_from("0123456789-T:. +Z\n"), max_size=32),
    st.builds(lambda moment, at, text: moment.isoformat()[:at] + text, _MOMENTS,
              st.integers(0, 26), st.text(st.sampled_from("0123456789-T:.\n"), max_size=8)),
    st.tuples(_MOMENTS, _MOMENTS).map(lambda pair: "\n".join(map(datetime.isoformat, pair))),
    # Dates that may not exist.
    st.tuples(st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32))
    .map(lambda date: "%04d-%02d-%02dT00:00:00" % date))


@given(st.lists(_STAMPS, max_size=4))
@example(["2024-02-30T00:00:00"])
@example(["2023-02-29T00:00:00", "2024-02-29T00:00:00"])
@example(["1900-02-29T00:00:00", "2000-02-29T00:00:00", "2100-02-29T00:00:00"])
@example(["0004-02-29T00:00:00", "0400-02-29T00:00:00", "2024-04-31T00:00:00"])
@example(["0000-01-01T00:00:00"])
@example(["0000-02-29T00:00:00"])
@example(["2024-01-02T24:00:00"])
@example(["2024-01-02T03:04:60"])
@settings(max_examples=400, deadline=None)
def test_timestamp_check_is_the_round_trip(stamps):
    """A line's timestamps pass the readers' check iff each is the ISO text
    its own time writes, naive; a line that fails names its first bad one."""
    bad = [stamp for stamp in stamps if not _round_trips(stamp)]
    if not bad:
        _check_times([[0, "E", stamp] for stamp in stamps])
        return
    with pytest.raises(ValueError, match="^" + re.escape(
            f"timestamp {bad[0]!r} is not the ISO text ingest writes") + "$"):
        _check_times([[0, "E", stamp] for stamp in stamps])


def test_interrupted_snapshot_write_keeps_the_previous_snapshot(tmp_path, monkeypatch):
    path = tmp_path / "store.json"
    save_logstore(seal([entry("E1", "u", ActivityType.LOGON)]), path)
    before = path.read_bytes()
    encode = logaudit.logstore._encode
    lines = []

    def interrupted(value):
        if isinstance(value, list):  # a user's rows, not the first line
            lines.append(Path(f"{path}.partial").exists())
            if len(lines) == 2:
                raise OSError("interrupted")
        return encode(value)

    monkeypatch.setattr(logaudit.logstore, "_encode", interrupted)
    with pytest.raises(OSError):
        save_logstore(seal([entry(f"E{i}", f"u{i}", ActivityType.LOGOFF) for i in (2, 3, 4)]), path)
    monkeypatch.undo()
    assert lines == [True, True]  # interrupted after the first user's line
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


_CUT_STORE = [entry("E1", "u", ActivityType.LOGON),
              entry("E2", "u", ActivityType.EMAIL_SEND, body="two\nlines \u2603"),
              entry("E3", "v", ActivityType.HTTP_VISIT, url="http://example.com/"),
              entry("E4", "", ActivityType.ZEEK_ANOMALY, host="10.0.0.1"),
              entry("E5", "v", ActivityType.LOGOFF)]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_cut_snapshot_is_damaged(data):
    store = seal(_CUT_STORE, {"E3": "malicious"})
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "store.json"
        save_logstore(store, path)
        whole = path.read_bytes()
        ends = [i + 1 for i, byte in enumerate(whole) if byte == ord("\n")]
        # Cut anywhere, or right after a line or before the last newline.
        cut = data.draw(st.sampled_from([*ends[:-1], len(whole) - 1])
                        | st.integers(0, len(whole) - 1))
        path.write_bytes(whole[:cut])
        for read in (load_store, _forge_read):
            with pytest.raises(IngestFailed, match="damaged snapshot"):
                read(path)
        # Detect reads one user line at a time and finds the cut as well.
        with pytest.raises(IngestFailed, match="damaged snapshot"):
            list(open_snapshot(path).sequences())


def _rewrite_rows(path: Path, edit) -> None:
    """Let ``edit`` change the rows of the user lines, then write them back
    with a fresh digest."""
    first, *lines, _closing = path.read_bytes().splitlines(keepends=True)
    rows = [json.loads(b"[" + line.rstrip(b",\n") + b"]") for line in lines]
    edit(rows)
    body = b",\n".join(json.dumps(r, separators=(",", ":"))[1:-1].encode() for r in rows) + b"\n"
    digest = hashlib.sha256(body).hexdigest().encode()
    path.write_bytes(first + body + b'],"sha256":"' + digest + b'"}\n')


def _set_position(line: int, row: int, position: int):
    def edit(rows):
        rows[line][row][0] = position
    return edit


# The lines hold positions "": [4], "u": [0, 1, 2] and "v": [3, 5].
@pytest.mark.parametrize("edit, detect_finds", [
    (_set_position(2, 0, 0), False),
    (_set_position(1, 2, 6), True),
    (_set_position(1, 0, -1), True),
    (lambda rows: rows[1].reverse(), True),
    (lambda rows: rows[1].pop(), False),
], ids=["repeated", "past-the-count", "negative", "out-of-order", "gap"])
def test_misplaced_row_positions_are_damaged(tmp_path, edit, detect_finds):
    path = tmp_path / "store.json"
    save_logstore(seal(_CUT_STORE[:2] + [entry("E6", "u", ActivityType.LOGOFF)] + _CUT_STORE[2:]),
               path)
    _rewrite_rows(path, edit)
    for read in (load_store, _forge_read):
        with pytest.raises(IngestFailed, match="damaged snapshot"):
            read(path)
    # Detect holds one line at a time: it finds positions that do not ascend
    # within the row count, and leaves the rest to the digest.
    if detect_finds:
        with pytest.raises(IngestFailed, match="damaged snapshot"):
            list(open_snapshot(path).sequences())
    else:
        assert len(list(open_snapshot(path).sequences())) == 2


def test_repeated_id_within_a_user_line_fails_its_sequence(tmp_path):
    path = tmp_path / "store.json"
    save_logstore(seal(_CUT_STORE), path)

    def repeat_first_id(rows):
        rows[1][1][1] = rows[1][0][1]  # the line of "u": E2 takes the id E1

    _rewrite_rows(path, repeat_first_id)
    for read in (load_store, _forge_read, lambda p: list(open_snapshot(p).sequences())):
        with pytest.raises(DuplicateEntryId, match="'E1'"):
            read(path)


def test_edited_snapshot_fails_its_digest(tmp_path):
    path = tmp_path / "store.json"
    save_logstore(seal(_CUT_STORE), path)
    path.write_bytes(path.read_bytes().replace(b'"E3"', b'"E1"'))
    for read in (load_store, _forge_read, lambda p: list(open_snapshot(p).sequences())):
        with pytest.raises(IngestFailed, match="digest"):
            read(path)


def _rewrite_head(path: Path, edit) -> None:
    """Let ``edit`` change the document of the first line, then write it
    back; the digest covers the user lines alone."""
    first, rest = path.read_bytes().split(b"\n", 1)
    doc = json.loads(first + b"]}")
    del doc["entries"]
    edit(doc)
    head = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    path.write_bytes(head[:-1].encode() + b',"entries":[\n' + rest)


def _set_field(line: int, row: int, field: int, value):
    def edit(path):
        def change(rows):
            rows[line][row][field] = value
        _rewrite_rows(path, change)
    return edit


# The lines hold "": [E4], "u": [E1, E2] and "v": [E3, E5]. Detect holds one
# line at a time and checks neither the labels nor the header's activity
# types, so it finds only a bad row of a line.
@pytest.mark.parametrize("edit, category, message, detect_finds", [
    (_set_field(2, 0, 1, "E1"), DuplicateEntryId, "duplicate entry id 'E1'", False),
    (lambda path: _rewrite_head(path, lambda doc: doc["labels"].update(NOPE="malicious")),
     LabelsInvalid, "label references unknown entry id 'NOPE'", False),
    (lambda path: _rewrite_head(path, lambda doc: doc["labels"].update(E1="suspicious")),
     LabelsInvalid, "bad label 'suspicious' for 'E1'", False),
    (lambda path: _rewrite_head(path, lambda doc: doc["activities"].remove("Logoff")),
     IngestFailed, "the rows' activity types are not the header's", False),
    (lambda path: _rewrite_head(path, lambda doc: doc["activities"].append("FileOp")),
     IngestFailed, "the rows' activity types are not the header's", False),
    (lambda path: _rewrite_rows(path, lambda rows: rows[1][0].pop()),
     IngestFailed, "ValueError: not enough values to unpack", True),
    (_set_field(1, 0, 4, "Nope"), IngestFailed, "KeyError: 'Nope'", True),
    *[(_set_field(1, 0, 2, stamp), IngestFailed,
       f"timestamp {stamp!r} is not the ISO text ingest writes", True)
      for stamp in ("yesterday", "2024-01-02 03:04:05", "2024-01-02T03:04:05.000000",
                    "2024-01-02T03:04:05+01:00", "20240102T030405")],
], ids=["id-shared-by-two-users", "label-of-unknown-id", "bad-label", "activity-not-in-header",
        "header-activity-without-rows", "short-row", "unknown-activity", "unparseable-timestamp",
        "space-separated-timestamp", "zero-microseconds-timestamp", "offset-timestamp",
        "basic-format-timestamp"])
def test_forge_read_rejects_what_the_whole_store_rejects(tmp_path, edit, category, message,
                                                         detect_finds):
    """Forge builds no store, yet fails a snapshot edited after ingest, with
    a fresh digest, as the whole-store load does: same category, same message."""
    path = tmp_path / "store.json"
    save_logstore(seal(_CUT_STORE, {"E3": "malicious"}), path)
    edit(path)
    with pytest.raises(category, match=re.escape(message)) as read:
        _forge_read(path, ["u"])
    with pytest.raises(category) as whole:
        load_store(path)
    assert str(read.value) == str(whole.value)
    if detect_finds:
        with pytest.raises(category) as detect:
            list(open_snapshot(path).sequences())
        assert str(detect.value) == str(whole.value)


def _synthetic_store(rows: int) -> LogStore:
    start = datetime(2024, 1, 1)
    activities = list(ActivityType)
    return seal([LogEntry(f"{{S{i:07d}}}", (start + timedelta(minutes=7 * i)).isoformat(),
                          f"user{i % 200:03d}",
                          f"PC-{i % 500:04d}", activities[i % len(activities)],
                          {"url": f"http://site{i % 97}.example/"} if i % 3 == 0 else {})
                 for i in range(rows)], {"{S0000000}": "malicious"})


def test_snapshot_memory_does_not_grow_with_the_store(tmp_path):
    # save_store's traced peak, and load_store's traced peak above the store
    # it returns, at 5k and at 40k rows.
    figures = []
    for rows in (5_000, 40_000):
        store = _synthetic_store(rows)
        lines = store_lines(store)
        path = tmp_path / f"store-{rows}.json"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            save_store(lines, path, store.labels, store.source_manifest)
            save_peak = tracemalloc.get_traced_memory()[1] - before
            tracemalloc.reset_peak()
            loaded = load_store(path)
            returned, load_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(loaded.entries) == rows
        figures.append((save_peak, load_peak - returned))
    (small_save, small_load), (large_save, large_load) = figures
    assert large_save - small_save < 2**20, figures
    assert large_load - small_load < 2**20, figures


def test_forge_read_memory_grows_less_than_the_store(tmp_path):
    """From 5k to 40k rows, the forge read's traced peak grows by less than
    a third of what the whole store grows: it holds every row's id (to
    find one repeated), line and activity type, but builds no entry beyond
    the exemplars and the named user's."""
    figures = []
    for rows in (5_000, 40_000):
        path = tmp_path / f"store-{rows}.json"
        save_logstore(_synthetic_store(rows), path)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            store = load_store(path)
            size = tracemalloc.get_traced_memory()[0] - before
            del store
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            exemplars, sequences = _forge_read(path, ["user001"])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(sequences["user001"].entries) == rows // 200
        figures.append((peak, size))
    (small_peak, small_store), (large_peak, large_store) = figures
    assert large_peak - small_peak < (large_store - small_store) / 3, figures
