"""Ingest places each parsed row straight into its user's snapshot line. It
must write what the whole-store path writes: parse every file into entries,
build the store, under-sample it and save it (``oracles.naive_ingest``)."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from logaudit.cli import MALFORMED_ROWS_LISTED, main
from logaudit.errors import AuditError
from logaudit.logstore import CERT_SOURCES, load_store
from logaudit.synthetic import generate_demo
from oracles import CERT_COLUMNS, naive_ingest

# Per field: the draws that parse, and those that make a row malformed or
# take the timestamp parse's slow path.
_GOOD_DATES = st.datetimes(min_value=datetime(1990, 1, 1), max_value=datetime(2030, 12, 31)) \
    .map(lambda d: d.strftime("%m/%d/%Y %H:%M:%S"))
_ODD_DATES = st.sampled_from([
    "02/30/2024 10:00:00", "01/05/2024 24:00:00", "12/31/2024 23:59:60",
    "2024-01-05T10:00:00.123456", "2024-01-05 10:00:00", " 01/05/2024 10:00:00 ",
    "1/5/2024 9:05:00", "2024-03-17T19:05:00+01:00", "2024-03-17T19:05:00Z", "not-a-date", "",
]) | st.datetimes(timezones=st.none() | st.just(timezone.utc)).map(datetime.isoformat)
_TEXTS = st.sampled_from(["", "x", "a,b", 'say "hi"', "two\nlines", "ü"]) | st.text(max_size=4)
_ACTIVITIES = {"logon": ["Logon", "logoff", " LOGON "], "device": ["Connect", "disconnect "]}
_ODD_ACTIVITIES = st.sampled_from(["bogus", "Connect", "Logon"])
_USERS = st.sampled_from(["u1", "u2", " u3 ", "ü"])
_PCS = st.sampled_from(["PC-1", " PC-2 ", ""])


@st.composite
def _cert_file(draw, source: str) -> tuple[list[str], str]:
    """The ids and the text of one CERT file: a header of the source's
    columns and a few optional ones, in any order and case, one of them
    maybe named twice; rows of drawn fields, quoted where a field needs it,
    with blank lines between. In a noisy file some fields are odd: a date
    of the slow path or malformed (one in four), an empty user, an unknown
    activity, an id shared across files, a row of the wrong width (one in
    twelve each)."""
    noisy = draw(st.booleans())

    def field(good, odd, one_in=12):
        return draw(odd if noisy and draw(st.integers(1, one_in)) == one_in else good)

    activities = st.sampled_from(_ACTIVITIES.get(source, ["x"]))
    columns = list(CERT_COLUMNS[source]) + draw(st.lists(
        st.sampled_from(["content", "cc", "size", "note"]), unique=True, max_size=2))
    columns = list(draw(st.permutations(columns)))
    if draw(st.booleans()):
        columns.append(draw(st.sampled_from(columns)))
    text = io.StringIO()
    writer = csv.writer(text, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow([draw(st.sampled_from([c, c.upper(), f" {c} "])) for c in columns])
    fields = {
        "date": lambda: field(_GOOD_DATES, _ODD_DATES, one_in=4),
        "user": lambda: field(_USERS, st.just("")),
        "pc": lambda: draw(_PCS),
        "activity": lambda: field(activities, _ODD_ACTIVITIES),
    }
    ids = []
    for n in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 5)) == 0:
            text.write(draw(st.sampled_from(["\n", "  \n"])))
        entry_id = field(st.sampled_from([f"{{{source}-{n}}}", f" {{{source}-{n}}}"]),
                         st.just("{SHARED}"))
        ids.append(entry_id.strip())
        row = [entry_id if c == "id" else fields.get(c, lambda: draw(_TEXTS))() for c in columns]
        width = field(st.just(0), st.sampled_from([-1, 1]))
        writer.writerow(row[:width] if width < 0 else row + ["extra"] * width)
    return ids, text.getvalue()


@st.composite
def _zeek_file(draw, stream: str) -> tuple[list[str], str]:
    """The ids and the text of one Zeek TSV log: rows of a user, of a host
    alone or of neither; in a noisy file, some with a ts that does not
    parse or a width that does not fit."""
    noisy = draw(st.booleans())
    lines = ["#separator \\x09", f"#path\t{stream}", "#fields\tts\tuid\tclient\tid.orig_h"]
    ids = []
    for n in range(draw(st.integers(0, 8))):
        ts = draw(st.sampled_from(["1563552513.2", "1563552513.214619", "1563552600"]
                                  + ["nan", "bogus", "1e300"] * noisy))
        fields = [ts, f"C{n}", draw(st.sampled_from(["-", "u1", "u2"])),
                  draw(st.sampled_from(["-", "10.0.0.1", "10.0.0.2"]))]
        lines.append("\t".join(fields[:draw(st.sampled_from([4, 4, 4] + [3] * noisy))]))
        ids.append(f"{stream}:{n + 1}")
    return ids, "\n".join(lines) + "\n"


@st.composite
def _datasets(draw) -> tuple:
    """A dataset of CERT or Zeek files, its labels file (None, or drawn
    labels of its ids, maybe of an unknown id or of a bad value), the
    malformed-row tolerance, and the under-sampling cap and seed."""
    kind = draw(st.sampled_from(["cert", "zeek"]))
    files, ids = {}, []
    if kind == "cert":
        for source in draw(st.lists(st.sampled_from(CERT_SOURCES), min_size=1, max_size=3,
                                    unique=True)):
            mine, files[source] = draw(_cert_file(source))
            ids += mine
    else:
        for stream in draw(st.lists(st.sampled_from(["conn", "kerberos", "weird"]), min_size=1,
                                    max_size=2, unique=True)):
            mine, files[stream] = draw(_zeek_file(stream))
            ids += mine
    labels = None
    if draw(st.integers(0, 2)):
        named = draw(st.lists(st.sampled_from(ids), unique=True, min_size=1, max_size=3)) if ids else []
        labels = "entry_id,label\n" + "".join(
            f"{i},{draw(st.sampled_from(['malicious', 'benign', 'Malicious']))}\n" for i in named)
        labels += draw(st.sampled_from([""] * 5 + ["{NOPE},malicious\n",
                                                 f"{(ids or ['x'])[0]},suspicious\n"]))
    tolerance = draw(st.sampled_from([0.01, 0.5, 1.0, 1.0, 1.0]))
    cap = draw(st.integers(0, 4) | st.integers(0, 40))
    return kind, files, labels, tolerance, cap, draw(st.integers(0, 2**32 - 1))


_LOGONS = ("id,date,user,pc,activity\n{A1},01/02/2010 06:49:00,U1,PC-1,Logon\n"
           "{A2},01/02/2010 07:49:00,U2,PC-1,Logoff\n{A3},01/02/2010 08:49:00,U1,PC-1,Logoff\n")
_ZEEK_HOSTS = ("#fields\tts\tclient\tid.orig_h\n1563552513.2\t-\t10.0.0.1\n"
          "1563552514.5\tu1\t10.0.0.2\n1563552515.0\t-\t-\n")


@given(_datasets())
# Under-sampled, and kept whole: the cap below and above the benign count.
@example(("cert", {"logon": _LOGONS}, "entry_id,label\n{A2},malicious\n", 0.01, 1, 7))
@example(("zeek", {"conn": _ZEEK_HOSTS}, "entry_id,label\nconn:1,malicious\n", 0.01, 2, 7))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_streamed_ingest_writes_what_the_whole_store_writes(dataset):
    kind, files, labels, tolerance, cap, seed = dataset
    suffix = "csv" if kind == "cert" else "log"
    paths = {source: f"data/{source}.{suffix}" for source in files}
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        (directory / "data").mkdir()
        for source, text in files.items():
            (directory / paths[source]).write_text(text, encoding="utf-8", newline="")
        dataset_doc = {"kind": kind, "paths": paths}
        if labels is not None:
            (directory / "data" / "labels.csv").write_text(labels, encoding="utf-8")
            dataset_doc["labels"] = "data/labels.csv"
        (directory / "config.json").write_text(json.dumps({
            "dataset": dataset_doc, "backend": {"type": "scripted", "script": "script.json"},
            "undersample_cap": cap, "seeds": {"sampler": seed},
            "store_path": "out/store.json", "output_dir": "out"}), encoding="utf-8")
        stderr = io.StringIO()
        with mock.patch("logaudit.logstore.MALFORMED_ROW_TOLERANCE", tolerance):
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                code = main(["ingest", "--config", str(directory / "config.json")])
            try:
                expected = naive_ingest(kind, directory, paths,
                                        None if labels is None else "data/labels.csv", cap, seed)
            except AuditError as exc:
                # Bad input: the same category and message.
                assert (code, stderr.getvalue()) == (1, f"{exc.category}: {exc}\n")
                return
        assert code == 0, stderr.getvalue()
        store, users, malformed = expected
        out = directory / "out"
        assert (out / "store.json").read_bytes() == store
        if users is None:
            assert not (out / "store.users.json").exists()
        else:
            assert (out / "store.users.json").read_text(encoding="utf-8") == \
                json.dumps(users, sort_keys=True, indent=1) + "\n"
        manifest = json.loads((out / "manifest-ingest.json").read_text(encoding="utf-8"))
        assert manifest.get("malformed", []) == malformed


def _demo_with_rows(root: Path, *rows: str) -> None:
    generate_demo(root)
    with (root / "data" / "logon.csv").open("a", encoding="utf-8") as handle:
        handle.writelines(row + "\n" for row in rows)


def _manifest(root: Path) -> dict:
    return json.loads((root / "out" / "manifest-ingest.json").read_text(encoding="utf-8"))


def test_cert_timestamp_with_a_utc_offset_is_a_malformed_row(tmp_path):
    # An aware time does not compare with the naive ones of the rest of the
    # user's sequence; forge and detect read the snapshot as usual.
    _demo_with_rows(tmp_path, "{S9999999},2024-03-17T19:05:00+01:00,KEYL0001,PC-0102,Logoff")
    config = str(tmp_path / "config.json")
    for phase in ("ingest", "forge", "detect"):
        assert main([phase, "--config", config]) == 0
    store = load_store(tmp_path / "out" / "store.json")
    assert "{S9999999}" not in {e.entry_id for e in store.entries}
    [listed] = _manifest(tmp_path)["malformed"]
    assert listed["rows"] == [{"line": 1755, "reason": "timestamp carries a UTC offset"}]


def test_ingest_manifest_lists_the_malformed_rows(tmp_path):
    clean = tmp_path / "clean"
    generate_demo(clean)
    assert main(["ingest", "--config", str(clean / "config.json")]) == 0
    assert "malformed" not in _manifest(clean)  # a clean run keeps its bytes

    _demo_with_rows(tmp_path / "two", "{S9999998},02/30/2024 10:00:00,KEYL0001,PC-0102,Logon",
                    "{S9999999},03/17/2024 10:00:00,KEYL0001,PC-0102,Logout")
    assert main(["ingest", "--config", str(tmp_path / "two" / "config.json")]) == 0
    assert _manifest(tmp_path / "two")["malformed"] == [{"path": "data/logon.csv", "count": 2, "rows": [
        {"line": 1755, "reason": "unparseable timestamp '02/30/2024 10:00:00'"},
        {"line": 1756, "reason": "line 1756: logon activity column reads 'Logout'"}]}]


def test_ingest_manifest_lists_a_fixed_number_of_malformed_rows_per_file(tmp_path):
    bad = [f"{{S99{n:05d}}},not-a-date,KEYL0001,PC-0102,Logon" for n in range(MALFORMED_ROWS_LISTED + 5)]
    _demo_with_rows(tmp_path, *bad)
    with mock.patch("logaudit.logstore.MALFORMED_ROW_TOLERANCE", 0.5):
        assert main(["ingest", "--config", str(tmp_path / "config.json")]) == 0
    [listed] = _manifest(tmp_path)["malformed"]
    assert listed["count"] == MALFORMED_ROWS_LISTED + 5
    assert [row["line"] for row in listed["rows"]] == list(range(1755, 1755 + MALFORMED_ROWS_LISTED))
