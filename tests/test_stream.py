"""Detect audits one user at a time, each from that user's sequence read
from the snapshot as its audit is about to start. A user's outcome
therefore cannot depend on the other users, detect's memory does not grow
with the fleet's rows, and a damaged snapshot still fails detect whole."""

from __future__ import annotations

import json
import random
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import logaudit.logstore
import logaudit.synthetic
from logaudit import gateway, pipeline
from logaudit.cli import main
from logaudit.config import load_config
from logaudit.gateway import HttpBackend
from logaudit.logstore import LogEntry, Snapshot, build_user_sequences, load_store, save_store
from logaudit.synthetic import generate_demo
from test_fanout import PromptTransport

VARIANTS = ["original", "vanilla", "no_cot", "no_decomp", "no_tools", "no_emad"]
OUTPUTS = ("conclusions.json", "costs-detect.jsonl", "manifest-detect.json", "transcripts")


@pytest.fixture(scope="module")
def demo(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("stream-demo")
    generate_demo(root)
    config = str(root / "config.json")
    assert main(["ingest", "--config", config]) == 0
    assert main(["forge", "--config", config]) == 0
    return root


def _config(demo: Path, directory: Path, store: Path, **changes) -> str:
    """The demo config on the HTTP backend, reading ``store`` and the demo's
    registry and writing under ``directory``, with ``changes`` applied."""
    doc = json.loads((demo / "config.json").read_text())
    doc.update(backend={"type": "http", "endpoint": "http://llm.test/v1", "model": "m"},
               store_path=str(store), registry_path=str(demo / "out" / "registry.json"),
               output_dir=str(directory / "out"))
    doc.update(changes)
    for name, item in doc["lists"].items():
        item["path"] = str(demo / "lists" / f"{name}.txt")
    path = directory / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _detect(monkeypatch, config: str, transport: PromptTransport, variant: str = "original",
            parallelism: int = 1) -> tuple[int, dict[str, int]]:
    """One CLI detect over an order-free ``transport``: the exit code and
    the number of ledger records each audited user added."""
    records: dict[str, int] = {}
    audit = pipeline.detect_user

    def counted(user, ctx):
        before = len(ctx.ledger)
        outcome = audit(user, ctx)
        records[user.user] = len(ctx.ledger) - before
        return outcome

    with monkeypatch.context() as patch:
        patch.setattr(gateway, "urllib_post", lambda _opener: transport.post)
        patch.setattr(HttpBackend, "order_free", True)
        patch.setattr(pipeline, "detect_user", counted)
        code = main(["detect", "--config", config, "--variant", variant,
                     "--parallelism", str(parallelism)])
    return code, records


def _per_user(outdir: Path, records: dict[str, int]) -> dict[str, tuple]:
    """Each user's conclusion, transcript and slice of the ledger."""
    users = json.loads((outdir / "conclusions.json").read_text())["users"]
    ledger = [json.loads(line) for line in (outdir / "costs-detect.jsonl").read_text().splitlines()]
    slices, start = {}, 0
    for user in sorted(users):
        end = start + records[user]
        # Latency is wall-clock time; everything else is the reply's.
        slices[user] = [(r["stage"], r["note"], r["prompt_tokens"], r["completion_tokens"])
                        for r in ledger[start:end]]
        start = end
    assert start == len(ledger)
    transcripts = outdir / "transcripts"
    return {user: (users[user], slices[user],
                   (transcripts / f"{user}.json").read_bytes()
                   if (transcripts / f"{user}.json").exists() else None)
            for user in users}


_BASELINES: dict[tuple[str, int], dict[str, tuple]] = {}
# Names that sort before, among and after the demo's B0001..B0048, KEYL0001, LEAK0001.
_NEW_NAMES = ["A0001", "B0007X", "C0001", "KEYL0002", "Z0001"]


@given(variant=st.sampled_from(VARIANTS), parallelism=st.sampled_from([1, 2]),
       removed=st.sets(st.sampled_from([f"B{i:04d}" for i in range(12, 49)]), max_size=6),
       added=st.dictionaries(st.sampled_from(_NEW_NAMES),
                             st.sampled_from(["B0012", "B0013", "KEYL0001", "LEAK0001"]),
                             max_size=3),
       seed=st.integers(0, 2**16))
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_other_users_leave_an_audit_unchanged(demo, tmp_path_factory, monkeypatch, variant,
                                              parallelism, removed, added, seed):
    """Adding users to the snapshot, or removing them, changes no other
    user's conclusion, transcript or ledger slice. Added users copy the rows
    of an existing one, so the fleet keeps its activity types; their rows
    land among the others' at random places. The registry's case users
    (B0001-B0011 and the two insiders) stay."""
    seed_b = load_config(demo / "config.json").seed_executor_b
    key = (variant, parallelism)
    if key not in _BASELINES:
        directory = tmp_path_factory.mktemp("baseline")
        config = _config(demo, directory, demo / "out" / "store.json")
        code, records = _detect(monkeypatch, config, PromptTransport(seed_b), variant, parallelism)
        assert code == 0
        _BASELINES[key] = _per_user(directory / "out", records)

    store = load_store(demo / "out" / "store.json")
    entries = [e for e in store.entries if e.user not in removed]
    rng = random.Random(seed)
    for name, model in added.items():
        for n, e in enumerate(store.users[model].entries):
            copy = LogEntry(f"{{{name}-{n}}}", e.timestamp, name, e.host, e.activity, e.payload)
            entries.insert(rng.randrange(len(entries) + 1), copy)
    directory = tmp_path_factory.mktemp("changed")
    changed = build_user_sequences(entries, {i: label for i, label in store.labels.items()
                                             if i in {e.entry_id for e in entries}})
    assert changed.activities == store.activities
    save_store(changed, directory / "store.json")

    config = _config(demo, directory, directory / "store.json")
    code, records = _detect(monkeypatch, config, PromptTransport(seed_b), variant, parallelism)
    assert code == 0
    outcomes = _per_user(directory / "out", records)
    assert sorted(outcomes) == sorted(set(_BASELINES[key]) - removed | set(added))
    for user, outcome in _BASELINES[key].items():
        if user not in removed:
            assert outcomes[user] == outcome, user


class Stop(Exception):
    pass


@pytest.mark.parametrize("parallelism", [1, 2])
def test_setup_pass_leaves_no_open_snapshot_or_thread(demo, tmp_path, monkeypatch, parallelism):
    """A detect stopped as its first audit starts has closed the snapshot and
    joined every thread it started."""
    opened = []
    real_open = open

    def recording_open(*args, **kwargs):
        handle = real_open(*args, **kwargs)
        opened.append(handle)
        return handle

    def stop(user, ctx):
        raise Stop

    config = _config(demo, tmp_path, demo / "out" / "store.json")
    threads = threading.active_count()
    monkeypatch.setattr(logaudit.logstore, "open", recording_open, raising=False)
    monkeypatch.setattr(gateway, "urllib_post",
                        lambda _opener: PromptTransport(seed_b=2, delay=0.01).post)
    monkeypatch.setattr(HttpBackend, "order_free", True)
    monkeypatch.setattr(pipeline, "detect_user", stop)
    with pytest.raises(Stop):
        main(["detect", "--config", config, "--parallelism", str(parallelism)])
    assert opened and all(handle.closed for handle in opened)
    assert threading.active_count() == threads


@pytest.mark.parametrize("parallelism", [2, 3])
def test_detect_decodes_at_most_parallelism_users_ahead(demo, tmp_path, monkeypatch,
                                                        parallelism):
    """On an order-free backend, with threads switched often, detect holds
    at most ``parallelism`` users' sequences beyond the audits it has finished,
    and writes what a serial detect writes."""
    seed_b = load_config(demo / "config.json").seed_executor_b
    store = demo / "out" / "store.json"
    (tmp_path / "serial").mkdir()
    code, serial_records = _detect(monkeypatch, _config(demo, tmp_path / "serial", store),
                                   PromptTransport(seed_b))
    assert code == 0

    lock = threading.Lock()
    counts = {"decoded": 0, "audited": 0, "ahead": 0}
    real_sequences = Snapshot.sequences
    audit = pipeline.detect_user

    def counted_sequences(self, users=None):
        for sequence in real_sequences(self, users):
            if users is None:  # the audits' sequences, not the case users' at set-up
                with lock:
                    counts["decoded"] += 1
                    counts["ahead"] = max(counts["ahead"], counts["decoded"] - counts["audited"])
            yield sequence

    def counted_audit(user, ctx):
        outcome = audit(user, ctx)
        with lock:
            counts["audited"] += 1
        return outcome

    monkeypatch.setattr(Snapshot, "sequences", counted_sequences)
    monkeypatch.setattr(pipeline, "detect_user", counted_audit)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        code, records = _detect(monkeypatch, _config(demo, tmp_path, store),
                                PromptTransport(seed_b, delay=0.001), parallelism=parallelism)
    finally:
        sys.setswitchinterval(interval)
    assert code == 0
    assert counts["decoded"] == counts["audited"] == 50
    assert counts["ahead"] == parallelism
    assert _per_user(tmp_path / "out", records) == \
        _per_user(tmp_path / "serial" / "out", serial_records)


def _share_id(owner: str, taker: str):
    """An edit of a snapshot's text: ``taker``'s first row takes the id of
    ``owner``'s first row."""
    def edit(text: str) -> str:
        lines = text.split("\n")
        line_of = {user: i + 1 for i, user in enumerate(json.loads(lines[0] + "]}")["users"])}
        taken, mine = (json.loads(f"[{lines[line_of[user]].rstrip(',')}]")[0][1]
                       for user in (owner, taker))
        lines[line_of[taker]] = lines[line_of[taker]].replace(json.dumps(mine), json.dumps(taken), 1)
        return "\n".join(lines)
    return edit


@pytest.mark.parametrize("edit, category", [
    # Found by the digest, after the last audit.
    (_share_id("B0020", "B0021"), "IngestFailed"),
    # The registry's case users are read together before the first audit.
    (_share_id("B0001", "B0002"), "DuplicateEntryId"),
    # Cut in the closing line, which detect reads after the last audit.
    (lambda text: text[:-10], "IngestFailed"),
    (lambda text: text, "RegistryCorrupt"),
], ids=["id-shared-by-two-users", "id-shared-by-two-case-users", "cut-closing-line",
        "failing-recorded-case"])
def test_failed_detect_writes_no_outputs(demo, tmp_path, capsys, edit, category):
    """Detect holds one user's rows at a time, yet a snapshot edited after
    ingest, a cut one, or a registry whose recorded case fails, still fails
    it with one line and leaves no outputs."""
    store = tmp_path / "store.json"
    store.write_text((demo / "out" / "store.json").read_text())
    registry = tmp_path / "registry.json"
    registry.write_text((demo / "out" / "registry.json").read_text())
    backend = {"type": "scripted", "script": str(demo / "script.json")}
    config = _config(demo, tmp_path, store, backend=backend, registry_path=str(registry))
    assert main(["detect", "--config", config]) == 0
    if category == "RegistryCorrupt":
        tools = json.loads(registry.read_text())
        tools["tools"][0]["test_cases"][0]["expected"]["n"] = 99
        registry.write_text(json.dumps(tools))
    store.write_text(edit(store.read_text()))
    capsys.readouterr()
    assert main(["detect", "--config", config]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{category}:") and err.count("\n") == 1
    for name in OUTPUTS:
        assert not (tmp_path / "out" / name).exists()


def _phase_peak(root: Path, users: int, phase: str, monkeypatch) -> tuple[int, int]:
    """The demo with ``users`` benign users over 20 days, ingested, and
    forged before a detect: the phase's traced peak, and the size of the
    whole store loaded."""
    monkeypatch.setattr(logaudit.synthetic, "N_BENIGN", users)
    monkeypatch.setattr(logaudit.synthetic, "N_DAYS", 20)
    generate_demo(root)
    config = str(root / "config.json")
    assert main(["ingest", "--config", config]) == 0
    if phase == "detect":
        assert main(["forge", "--config", config]) == 0
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store = load_store(root / "out" / "store.json")
        size = tracemalloc.get_traced_memory()[0] - before
        del store
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert main([phase, "--config", config]) == 0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak, size


def test_detect_memory_is_set_by_the_largest_user(tmp_path, monkeypatch):
    """From 12 to 48 benign users, detect's peak grows by less than a fifth
    of what the users added to the whole store. A detect that holds the
    whole store grows by at least that much. Both fleets hold every user the
    registry's cases name."""
    (small_peak, small_store), (large_peak, large_store) = (
        _phase_peak(tmp_path / f"users-{n}", n, "detect", monkeypatch) for n in (12, 48))
    assert large_peak - small_peak < (large_store - small_store) / 5, \
        (small_peak, large_peak, small_store, large_store)


def test_forge_memory_grows_less_than_the_store(tmp_path, monkeypatch):
    """From 12 to 48 benign users, forge's peak grows by less than a third
    of what the users added to the whole store: it holds each row's id,
    line and activity type, and builds entries only for the exemplars and
    the case users. A forge that loads the whole store grows by nearly as
    much as the store."""
    (small_peak, small_store), (large_peak, large_store) = (
        _phase_peak(tmp_path / f"users-{n}", n, "forge", monkeypatch) for n in (12, 48))
    assert large_peak - small_peak < (large_store - small_store) / 3, \
        (small_peak, large_peak, small_store, large_store)
