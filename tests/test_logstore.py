from __future__ import annotations

import random
from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import entry, seal
from logaudit.errors import (
    DuplicateEntryId,
    IngestFailed,
    LabelsInvalid,
    LabelsMissing,
    StoreSealed,
)
from logaudit.logstore import (
    ActivityType,
    LogStore,
    build_user_sequences,
    load_labels,
    load_store,
    parse_cert_file,
    parse_zeek_file,
    sample_exemplars,
    save_store,
    undersample_benign,
)


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
    assert first.timestamp == datetime(2010, 1, 2, 6, 49, 0)


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
    assert parsed.entries[0].timestamp == datetime.utcfromtimestamp(1563552513.214619)


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


def test_seal_index_holds_every_entry_once():
    rng = random.Random(7)
    types = [ActivityType.LOGON, ActivityType.HTTP_VISIT, ActivityType.ZEEK_NETWORK]
    store = seal([
        entry(f"X{i:03d}", rng.choice(["u1", "u2", ""]), rng.choice(types),
              day_offset=rng.randrange(5), hour=rng.randrange(24))
        for i in range(300)
    ])
    positions = sorted(i for part in store.index.values() for i in part)
    assert positions == list(range(len(store.entries)))
    for (user, activity), part in store.index.items():
        assert part == sorted(part)
        assert all((store.entries[i].user, store.entries[i].activity) == (user, activity)
                   for i in part)
    assert any(user == "" for user, _ in store.index)  # host-only entries are indexed


def test_sealed_store_rejects_mutation():
    store = seal([entry("E1", "u", ActivityType.LOGON)])
    with pytest.raises(StoreSealed):
        store.add_entries([entry("E2", "u", ActivityType.LOGON)])


def test_duplicate_entry_id_rejected():
    store = LogStore()
    store.add_entries([entry("E1", "u", ActivityType.LOGON)])
    with pytest.raises(DuplicateEntryId):
        store.add_entries([entry("E1", "u", ActivityType.LOGOFF)])


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
    store = seal(entries)
    labels = {e.entry_id: ("malicious" if e.entry_id.startswith("M") else "benign")
              for e in store.entries}
    store.attach_labels(labels)
    return store


def test_undersample_keeps_all_malicious():
    store = _labeled_store(200, 10)
    view = undersample_benign(store, cap=50, seed=1)
    assert len(view.entries) == 60
    assert view.malicious_ids() == store.malicious_ids()
    assert len(store.entries) == 210  # untouched


def test_undersample_noop_when_under_cap():
    store = _labeled_store(30, 5)
    assert undersample_benign(store, cap=50) is store


def test_undersample_cap_zero():
    store = _labeled_store(30, 5)
    view = undersample_benign(store, cap=0)
    assert {e.entry_id for e in view.entries} == store.malicious_ids()


def test_undersample_requires_labels():
    store = seal([entry("E1", "u", ActivityType.LOGON)])
    with pytest.raises(LabelsMissing):
        undersample_benign(store, cap=10)


def test_undersample_deterministic():
    store = _labeled_store(100, 5)
    first = undersample_benign(store, cap=20, seed=9)
    second = undersample_benign(store, cap=20, seed=9)
    assert [e.entry_id for e in first.entries] == [e.entry_id for e in second.entries]


# --- labels and snapshots ---

def test_load_labels_and_attach(tmp_path):
    store = seal([entry("E1", "u", ActivityType.LOGON)])
    path = tmp_path / "labels.csv"
    path.write_text("entry_id,label\nE1,malicious\n", encoding="utf-8")
    store.attach_labels(load_labels(path))
    assert store.is_malicious("E1")
    assert store.user_label("u") == "malicious"


def test_attach_labels_unknown_id(tmp_path):
    store = seal([entry("E1", "u", ActivityType.LOGON)])
    with pytest.raises(LabelsInvalid):
        store.attach_labels({"NOPE": "malicious"})


def test_load_labels_bad_value(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("E1,suspicious\n", encoding="utf-8")
    with pytest.raises(LabelsInvalid):
        load_labels(path)


def test_store_snapshot_round_trip(tmp_path, data_dir):
    store = LogStore()
    store.add_parsed(parse_cert_file(data_dir / "cert_logon.csv", "logon"))
    store.add_parsed(parse_cert_file(data_dir / "cert_http.csv", "http"))
    build_user_sequences(store)
    store.attach_labels({"{H7F8-G9H0I1J2-0002DDDD}": "malicious"})
    path = tmp_path / "store.json"
    save_store(store, path)
    loaded = load_store(path)
    assert [e.entry_id for e in loaded.entries] == [e.entry_id for e in store.entries]
    assert loaded.labels == store.labels
    assert loaded.users.keys() == store.users.keys()
    assert loaded.entry("{X1D9-S0ES98JV-5357PWMI}").payload == {}
