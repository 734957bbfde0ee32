from __future__ import annotations

import gc
import hashlib
import json
import sys
from pathlib import Path

import pytest

from logaudit.cli import main
from logaudit.gateway import RateTable
from logaudit.synthetic import generate_demo


@pytest.fixture(scope="module")
def demo(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("demo")
    generate_demo(root)
    return root


@pytest.fixture(scope="module")
def completed_run(demo: Path) -> Path:
    config = str(demo / "config.json")
    assert main(["ingest", "--config", config]) == 0
    assert main(["forge", "--config", config]) == 0
    assert main(["detect", "--config", config]) == 0
    assert main(["evaluate", "--config", config]) == 0
    return demo


def test_full_phase_sequence(completed_run: Path):
    out = completed_run / "out"
    assert (out / "store.json").exists()
    assert (out / "registry.json").exists()
    assert (out / "conclusions.json").exists()
    assert (out / "report.txt").exists()
    assert (out / "report.struct").exists()
    assert (out / "costs.struct").exists()


def test_detected_exactly_the_two_insiders(completed_run: Path):
    doc = json.loads((completed_run / "out" / "conclusions.json").read_text())
    verdicts = {u: item["verdict"] for u, item in doc["users"].items()}
    assert len(verdicts) == 50
    malicious = sorted(u for u, v in verdicts.items() if v == "malicious")
    assert malicious == ["KEYL0001", "LEAK0001"]
    for user in malicious:
        assert doc["users"][user]["anomalies"]
        assert doc["users"][user]["consensus"] is True


def test_perfect_metrics_in_struct_report(completed_run: Path):
    doc = json.loads((completed_run / "out" / "report.struct").read_text())
    row = doc["metrics"][0]
    assert row["prec"] == 1.0
    assert row["dr"] == 1.0
    assert row["fpr"] == 0.0
    assert row["acc"] == 1.0
    assert row["counts"] == {"tp": 2, "fp": 0, "fn": 0, "tn": 48}


def test_transcripts_written_per_user(completed_run: Path):
    transcripts = completed_run / "out" / "transcripts"
    assert len(list(transcripts.glob("*.json"))) == 50
    keylog = json.loads((transcripts / "KEYL0001.json").read_text())
    assert keylog["final"]["verdict"] == "malicious"
    assert keylog["rounds"][0]["a"]["verdict"] == "malicious"
    assert keylog["rounds"][0]["consensus"] is True


def test_manifests_record_config_hash(completed_run: Path):
    out = completed_run / "out"
    manifests = {p.name: json.loads(p.read_text()) for p in out.glob("manifest-*.json")}
    assert set(manifests) == {
        "manifest-ingest.json", "manifest-forge.json",
        "manifest-detect.json", "manifest-evaluate.json",
    }
    hashes = {m["config_hash"] for m in manifests.values()}
    assert len(hashes) == 1
    assert manifests["manifest-forge.json"]["tools"] == 7
    assert manifests["manifest-forge.json"]["unservable"] == []
    assert manifests["manifest-detect.json"]["seeds"]["executor_a"] == 1


def test_costs_ledgers_written(completed_run: Path):
    out = completed_run / "out"
    detect_lines = (out / "costs-detect.jsonl").read_text().splitlines()
    assert detect_lines
    record = json.loads(detect_lines[0])
    assert {"backend_name", "prompt_tokens", "completion_tokens",
            "dollars", "latency_ms", "stage"} <= set(record)
    assert main(["cost-report", "--config", str(completed_run / "config.json")]) == 0


@pytest.mark.parametrize("parallelism", ["1", "2"])
def test_detect_ledger_is_priced_at_the_config_rates(completed_run: Path, parallelism):
    config = completed_run / "config.json"
    rates = RateTable(**json.loads(config.read_text())["rates"])
    assert main(["detect", "--config", str(config), "--parallelism", parallelism]) == 0
    records = [json.loads(line) for line in
               (completed_run / "out" / "costs-detect.jsonl").read_text().splitlines()]
    assert records and any(r["dollars"] for r in records)
    for record in records:
        assert record["dollars"] == rates.dollars(record["prompt_tokens"],
                                                  record["completion_tokens"])


def test_parallel_detect_writes_the_serial_ledger(demo: Path, completed_run: Path, tmp_path):
    # Single-use merge replies put first: the scripted backend hands them out
    # in call order, so only users audited one by one get the same ones in
    # every run.
    merges = [{"when": "[stage: merge]",
               "response": f"Basis of Judgment: merge reply {n}.\nDecision: Benign"}
              for n in range(40)]
    config = str(_config_copy(demo, completed_run, tmp_path,
                              merges + json.loads((demo / "script.json").read_text())))
    assert main(["forge", "--config", config]) == 0
    out = tmp_path / "out"

    def detect(parallelism: str) -> dict[str, bytes]:
        assert main(["detect", "--config", config, "--parallelism", parallelism]) == 0
        paths = [out / "conclusions.json", out / "costs-detect.jsonl",
                 *sorted((out / "transcripts").glob("*.json"))]
        return {str(p.relative_to(out)): p.read_bytes() for p in paths}

    serial = detect("1")
    assert len(serial) == 52
    # Switch threads often, so calls made out of order would show.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            assert detect("4") == serial
    finally:
        sys.setswitchinterval(interval)


def test_forge_is_idempotent(completed_run: Path):
    registry_path = completed_run / "out" / "registry.json"
    before = registry_path.read_bytes()
    assert main(["forge", "--config", str(completed_run / "config.json")]) == 0
    assert registry_path.read_bytes() == before


def test_detect_without_registry(demo: Path, tmp_path, capsys):
    # A fresh output tree that has a store but no registry.
    config_doc = json.loads((demo / "config.json").read_text())
    config_doc["store_path"] = str(demo / "out" / "store.json")
    config_doc["registry_path"] = str(tmp_path / "missing-registry.json")
    config_doc["output_dir"] = str(tmp_path / "out")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_doc))
    code = main(["detect", "--config", str(config_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("RegistryMissing:")


def test_evaluate_without_labels(demo: Path, tmp_path, capsys):
    config_doc = json.loads((demo / "config.json").read_text())
    del config_doc["dataset"]["labels"]
    config_doc["store_path"] = str(tmp_path / "store.json")
    config_doc["output_dir"] = str(tmp_path / "out")
    config_doc["dataset"]["paths"] = {
        kind: str(demo / "data" / f"{kind}.csv")
        for kind in ("logon", "device", "http", "email", "file")
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_doc))
    assert main(["ingest", "--config", str(config_path)]) == 0
    code = main(["evaluate", "--config", str(config_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("LabelsMissing:")


def test_missing_ground_truth_file_is_labels_missing(demo: Path, tmp_path, capsys):
    config_doc = json.loads((demo / "config.json").read_text())
    config_doc["dataset"]["labels"] = "data/does-not-exist.csv"
    config_doc["dataset"]["paths"] = {
        kind: str(demo / "data" / f"{kind}.csv")
        for kind in ("logon", "device", "http", "email", "file")
    }
    config_doc["store_path"] = str(tmp_path / "store.json")
    config_doc["output_dir"] = str(tmp_path / "out")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_doc))
    code = main(["ingest", "--config", str(config_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("LabelsMissing:")


def test_unknown_config_key_rejected(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"dataset": {"kind": "cert"},
                                       "backend": {"type": "scripted", "script": "s.json"},
                                       "typo_key": 1}))
    code = main(["ingest", "--config", str(config_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("ConfigInvalid:")


@pytest.mark.parametrize("bad, flags", [
    ({"n_debate": "three"}, []),
    ({"n_debate": 2.7}, []),
    ({"allow_partial_coverage": "false"}, []),
    ({"seeds": {"sampler": "x"}}, []),
    ({"rates": {"input_per_1k": "abc"}}, []),
    # A command-line override meets the same range check as the file.
    ({}, ["--parallelism", "0"]),
    # A case names one user: a select reads one user's sequence.
    ({"tool_tests": {"a": [{"params": {"user": "U1,U2"}}]}}, []),
], ids=["int-as-text", "int-as-float", "bool-as-text", "seed-as-text", "rate-as-text",
        "parallelism-flag-out-of-range", "case-user-as-comma-list"])
def test_mistyped_config_value_rejected(tmp_path, capsys, bad, flags):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"dataset": {"kind": "cert"},
                                       "backend": {"type": "scripted", "script": "s.json"},
                                       **bad}))
    code = main(["ingest", "--config", str(config_path), *flags])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ConfigInvalid:") and err.count("\n") == 1


@pytest.mark.parametrize("bad", [
    {"lists": {"x": {"kind": "keyword"}}},
    {"tool_tests": {"a": ["x"]}},
    {"dataset": ["x"]},
    {"backend": ["x"]},
    {"templates": ["x"]},
    {"dataset": {"kind": "cert", "paths": ["x"]}},
    {"seeds": ["sampler"]},
    {"rates": [1]},
    {"dataset": {"kind": "cert", "labels": 5}},
    {"tool_tests": {"a": [{"params": {"day": "2024-13-01"}}]}},
], ids=["list-without-path", "test-case-not-a-mapping", "dataset-not-a-mapping",
        "backend-not-a-mapping", "templates-not-a-mapping", "dataset-paths-not-a-mapping",
        "seeds-not-a-mapping", "rates-not-a-mapping", "labels-not-a-string",
        "test-case-day-not-a-date"])
def test_malformed_config_entry_rejected(tmp_path, capsys, bad):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"dataset": {"kind": "cert"},
                                       "backend": {"type": "scripted", "script": "s.json"},
                                       **bad}))
    code = main(["ingest", "--config", str(config_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ConfigInvalid:") and err.count("\n") == 1


@pytest.mark.parametrize("name, text", [
    ("config.json", '{"dataset": {"kind": "cert"},'),
    ("config.yaml", "dataset: [cert,\n"),
], ids=["json", "yaml"])
def test_unparseable_config_rejected(tmp_path, capsys, name, text):
    config_path = tmp_path / name
    config_path.write_text(text)
    assert main(["ingest", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ConfigInvalid:") and err.count("\n") == 1


def test_unknown_ablation_tag_rejected(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"dataset": {"kind": "cert"},
                                       "backend": {"type": "scripted", "script": "s.json"},
                                       "ablation": "vanila"}))
    assert main(["detect", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err.startswith("ConfigInvalid: unknown ablation tag")


def test_variant_flag_overrides_config(demo: Path, completed_run: Path, tmp_path):
    config_doc = json.loads((demo / "config.json").read_text())
    config_doc["store_path"] = str(completed_run / "out" / "store.json")
    config_doc["registry_path"] = str(completed_run / "out" / "registry.json")
    config_doc["backend"]["script"] = str(demo / "script.json")
    config_doc["output_dir"] = str(tmp_path / "out")
    for name, item in config_doc["lists"].items():
        item["path"] = str(demo / "lists" / f"{name}.txt")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_doc))
    assert main(["detect", "--config", str(config_path), "--variant", "no_emad"]) == 0
    doc = json.loads((tmp_path / "out" / "conclusions.json").read_text())
    assert doc["variant"] == "no_emad"
    verdicts = {u: i["verdict"] for u, i in doc["users"].items()}
    assert sorted(u for u, v in verdicts.items() if v == "malicious") == \
        ["KEYL0001", "LEAK0001"]


def test_coverage_gate_and_override(demo: Path, completed_run: Path, tmp_path, capsys):
    # A decomposition that never mentions FileOp leaves it uncovered.
    partial_script = [
        {"when": "[stage: decompose]",
         "response": "1. Check logons. (types: Logon, Logoff)\n"
                     "2. Check websites. (types: HttpVisit)\n"
                     "3. Check devices. (types: DeviceConnect, DeviceDisconnect)\n"
                     "4. Check email. (types: EmailSend)"},
        {"when": "[stage: refine]", "response": "nothing further"},
        {"when": "[stage: tool-draft]",
         "response": "select activity=Logon user={user} day={day}\naggregate func=count",
         "repeat": True},
    ]
    script_path = tmp_path / "partial-script.json"
    script_path.write_text(json.dumps(partial_script))
    config_doc = json.loads((demo / "config.json").read_text())
    config_doc["backend"]["script"] = str(script_path)
    config_doc["store_path"] = str(completed_run / "out" / "store.json")
    config_doc["registry_path"] = str(tmp_path / "registry.json")
    config_doc["output_dir"] = str(tmp_path / "out")
    config_doc["tool_tests"] = {}
    for name, item in config_doc["lists"].items():
        item["path"] = str(demo / "lists" / f"{name}.txt")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_doc))

    code = main(["forge", "--config", str(config_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("CoverageIncomplete:")
    assert "FileOp" in err

    script_path.write_text(json.dumps(partial_script))  # fresh script
    assert main(["forge", "--config", str(config_path),
                 "--allow-partial-coverage"]) == 0
    registry = json.loads((tmp_path / "registry.json").read_text())
    assert len(registry["subtasks"]["items"]) == 4


def test_ingest_applies_undersample_cap(demo: Path, tmp_path):
    config_doc = json.loads((demo / "config.json").read_text())
    config_doc["dataset"]["paths"] = {
        kind: str(demo / "data" / f"{kind}.csv")
        for kind in ("logon", "device", "http", "email", "file")
    }
    config_doc["dataset"]["labels"] = str(demo / "data" / "labels.csv")
    config_doc["undersample_cap"] = 1000
    config_doc["store_path"] = str(tmp_path / "store.json")
    config_doc["output_dir"] = str(tmp_path / "out")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_doc))
    assert main(["ingest", "--config", str(config_path)]) == 0

    from logaudit.logstore import load_store
    from oracles import malicious_ids

    store = load_store(tmp_path / "store.json")
    malicious = malicious_ids(store)
    assert len(malicious) == 8  # every labeled entry survives
    assert len(store.entries) == 1000 + len(malicious)


def test_yaml_config_accepted(demo: Path, tmp_path):
    import yaml

    config_doc = json.loads((demo / "config.json").read_text())
    config_doc["dataset"]["paths"] = {
        kind: str(demo / "data" / f"{kind}.csv")
        for kind in ("logon", "device", "http", "email", "file")
    }
    config_doc["dataset"]["labels"] = str(demo / "data" / "labels.csv")
    config_doc["store_path"] = str(tmp_path / "store.json")
    config_doc["output_dir"] = str(tmp_path / "out")
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(config_doc))
    assert main(["ingest", "--config", str(config_path)]) == 0


def test_store_snapshot_is_the_same_in_any_checkout(tmp_path):
    snapshots = []
    for root in (tmp_path / "a", tmp_path / "checkout" / "elsewhere"):
        generate_demo(root)
        assert main(["ingest", "--config", str(root / "config.json")]) == 0
        snapshots.append((root / "out" / "store.json").read_bytes())
        manifest = json.loads(snapshots[-1])["manifest"]
        assert [item["path"] for item in manifest][0] == "data/device.csv"
    assert snapshots[0] == snapshots[1]


def _config_copy(demo: Path, completed_run: Path, tmp_path: Path, script: list[dict]) -> Path:
    """The demo config with the given backend script, reading the completed
    run's store and writing its registry and outputs under tmp_path."""
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps(script))
    config_doc = json.loads((demo / "config.json").read_text())
    config_doc["backend"]["script"] = str(script_path)
    config_doc["store_path"] = str(completed_run / "out" / "store.json")
    config_doc["registry_path"] = str(tmp_path / "registry.json")
    config_doc["output_dir"] = str(tmp_path / "out")
    for name, item in config_doc["lists"].items():
        item["path"] = str(demo / "lists" / f"{name}.txt")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_doc))
    return config_path


def test_forge_manifest_records_builtin_fallbacks(demo: Path, completed_run: Path, tmp_path):
    # The logon draft counts every day, so it fails its unit test, and the
    # script has no repair entry, so the repair call fails; the built-in
    # passes the case and is served. The website check has no test cases.
    script = [
        {"when": "[stage: decompose]",
         "response": "1. Check logons. (types: Logon, Logoff)\n"
                     "2. Check websites. (types: HttpVisit)"},
        {"when": "[stage: refine]", "response": "nothing further"},
        {"when": "[stage: tool-draft]",
         "response": "select activity=Logon user={user}\naggregate func=count"},
    ]
    config_path = _config_copy(demo, completed_run, tmp_path, script)
    config_doc = json.loads(config_path.read_text())
    config_doc["tool_tests"] = {"check-logons": [
        {"params": {"user": "B0001", "day": "2024-03-06"}, "expected": {"n": 2}},
    ]}
    config_path.write_text(json.dumps(config_doc))

    assert main(["forge", "--config", str(config_path), "--allow-partial-coverage"]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest-forge.json").read_text())
    assert manifest["unservable"] == []
    assert manifest["fallbacks"]["check-websites"] == "no unit-test cases configured"
    assert manifest["fallbacks"]["check-logons"].startswith("ScriptExhausted: ")
    assert set(manifest["fallbacks"]) == {"check-logons", "check-websites"}


@pytest.mark.parametrize("break_input", [
    lambda doc, tmp: doc["lists"]["untrusted_domains"].update(path=str(tmp / "missing.txt")),
    lambda doc, tmp: doc.update(templates={"executor_subtask": str(tmp / "missing.txt")}),
    lambda doc, tmp: (tmp / "script.json").write_text('[{"response": "x"}]'),
    lambda doc, tmp: (tmp / "script.json").write_text("[{"),
], ids=["list-file-missing", "template-file-missing", "script-entry-without-when",
        "script-not-json"])
def test_unreadable_run_input_rejected(demo: Path, completed_run: Path, tmp_path, capsys,
                                       break_input):
    config_path = _config_copy(demo, completed_run, tmp_path, [])
    config_doc = json.loads(config_path.read_text())
    break_input(config_doc, tmp_path)
    config_path.write_text(json.dumps(config_doc))
    assert main(["forge", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ConfigInvalid:") and err.count("\n") == 1


def test_builtin_fallback_records_only_cases_it_passes(demo: Path, completed_run: Path, tmp_path):
    # Without its draft entry the threatening-content check falls back to
    # the url_legitimacy built-in, a domain lookup that fails that check's
    # content cases, so the check is unservable rather than served a tool
    # that measures something else.
    script = [item for item in json.loads((demo / "script.json").read_text())
              if item["when"] != ["[stage: tool-draft]", "website content for threatening"]]
    config_path = _config_copy(demo, completed_run, tmp_path, script)
    assert main(["forge", "--config", str(config_path)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest-forge.json").read_text())
    assert manifest["unservable"] == ["review-visited-website-content-for-threatening"]
    assert manifest["tools"] == 6 and manifest["fallbacks"] == {}
    tools = json.loads((tmp_path / "registry.json").read_text())["tools"]
    assert all(t["subtask_id"] != "review-visited-website-content-for-threatening"
               for t in tools)
    assert main(["detect", "--config", str(config_path)]) == 0
    assert main(["evaluate", "--config", str(config_path)]) == 0
    row = json.loads((tmp_path / "out" / "report.struct").read_text())["metrics"][0]
    assert (row["prec"], row["dr"], row["acc"]) == (1.0, 1.0, 1.0)


def test_check_without_log_examples_is_unservable(demo: Path, completed_run: Path, tmp_path):
    # The store holds no ZeekAuth entries, so the kerberos check has no
    # examples to draft from; with a case configured and no built-in it is
    # unservable, and the other seven checks keep their tools.
    script = json.loads((demo / "script.json").read_text())
    decompose = next(item for item in script if item["when"] == "[stage: decompose]")
    decompose["response"] += "\n8. Inspect kerberos authentication anomalies. (types: ZeekAuth)"
    config_path = _config_copy(demo, completed_run, tmp_path, script)
    config_doc = json.loads(config_path.read_text())
    config_doc["tool_tests"]["inspect-kerberos-authentication-anomalies"] = [
        {"params": {"user": "B0001"}, "expected": {"n": 0}},
    ]
    config_path.write_text(json.dumps(config_doc))
    assert main(["forge", "--config", str(config_path)]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest-forge.json").read_text())
    assert manifest["unservable"] == ["inspect-kerberos-authentication-anomalies"]
    assert manifest["tools"] == 7
    assert len(json.loads((tmp_path / "registry.json").read_text())["tools"]) == 7


def test_failed_detect_leaves_no_outputs_to_evaluate(demo: Path, completed_run: Path,
                                                     tmp_path, capsys):
    config_path = _config_copy(demo, completed_run, tmp_path,
                               json.loads((demo / "script.json").read_text()))
    config = str(config_path)
    for phase in ("forge", "detect", "evaluate"):
        assert main([phase, "--config", config]) == 0
    reports = ("report.txt", "report.struct", "costs.struct")
    assert all((tmp_path / "out" / name).exists() for name in reports)
    # Without its subtask replies the next detect fails at the first audit.
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps([
        item for item in json.loads((demo / "script.json").read_text())
        if "[stage: subtask]" not in str(item["when"])]))
    capsys.readouterr()
    assert main(["detect", "--config", config]) == 1
    assert capsys.readouterr().err.startswith("ScriptExhausted:")
    out = tmp_path / "out"
    for name in ("conclusions.json", "costs-detect.jsonl", "manifest-detect.json",
                 "transcripts", *reports):
        assert not (out / name).exists()
    assert main(["evaluate", "--config", config]) == 1
    assert capsys.readouterr().err.startswith("ConfigInvalid: conclusions not found")


def test_unlabelled_ingest_removes_the_label_map(demo: Path, tmp_path, capsys):
    config_doc = json.loads((demo / "config.json").read_text())
    config_doc["dataset"]["paths"] = {
        kind: str(demo / "data" / f"{kind}.csv")
        for kind in ("logon", "device", "http", "email", "file")
    }
    config_doc["dataset"]["labels"] = str(demo / "data" / "labels.csv")
    config_doc["store_path"] = str(tmp_path / "store.json")
    config_doc["output_dir"] = str(tmp_path / "out")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config_doc))
    assert main(["ingest", "--config", str(config_path)]) == 0
    labels = json.loads((tmp_path / "store.users.json").read_text())
    assert len(labels) == 50
    assert sorted(u for u, label in labels.items() if label == "malicious") == \
        ["KEYL0001", "LEAK0001"]

    del config_doc["dataset"]["labels"]
    config_path.write_text(json.dumps(config_doc))
    assert main(["ingest", "--config", str(config_path)]) == 0
    assert not (tmp_path / "store.users.json").exists()
    assert main(["evaluate", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err.startswith("LabelsMissing:")


def test_old_snapshot_format_rejected(demo: Path, completed_run: Path, tmp_path, capsys):
    # audit-store/1 keyed its rows; audit-store/2 was one line of sorted keys;
    # audit-store/3 wrote slices of rows in store order, each with its user.
    keyed = {"format": "audit-store/1", "labels": {}, "manifest": [], "entries": [
        {"id": "E1", "ts": "2024-01-02T09:00:00", "user": "u", "host": "h",
         "activity": "Logon", "payload": {}}]}
    one_line = {"format": "audit-store/2", "labels": {}, "manifest": [], "entries": [
        ["E1", "2024-01-02T09:00:00", "u", "h", "Logon", {}]]}
    sliced = ('{"format":"audit-store/3","labels":{},"manifest":[],"entries":[\n'
              '["E1","2024-01-02T09:00:00","u","h","Logon",{}]\n]}\n')
    config_path = _config_copy(demo, completed_run, tmp_path,
                               json.loads((demo / "script.json").read_text()))
    config_doc = json.loads(config_path.read_text())
    config_doc["store_path"] = str(tmp_path / "store.json")
    config_doc["registry_path"] = str(completed_run / "out" / "registry.json")
    config_path.write_text(json.dumps(config_doc))
    for text in (json.dumps(keyed, indent=1),
                 json.dumps(one_line, sort_keys=True, separators=(",", ":")) + "\n", sliced):
        (tmp_path / "store.json").write_text(text)
        for phase in ("forge", "detect"):
            assert main([phase, "--config", str(config_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("IngestFailed:") and err.count("\n") == 1
            assert f"{json.loads(text)['format']!r} is not 'audit-store/4'; re-run ingest" in err


def test_evaluate_reads_no_snapshot(completed_run: Path, monkeypatch):
    import logaudit.config
    import logaudit.logstore

    config = str(completed_run / "config.json")
    out = completed_run / "out"
    names = ("report.txt", "report.struct", "costs.struct")
    assert main(["evaluate", "--config", config]) == 0
    expected = {name: (out / name).read_bytes() for name in names}
    for name in names:
        (out / name).unlink()

    def no_open(path):
        raise AssertionError(f"evaluate opened the snapshot {path}")

    monkeypatch.setattr(logaudit.logstore, "open_snapshot", no_open)
    monkeypatch.setattr(logaudit.config, "open_snapshot", no_open)
    assert main(["evaluate", "--config", config]) == 0
    assert {name: (out / name).read_bytes() for name in names} == expected


def _audit_store(users: dict[str, str], rows: int, activities: list[str]) -> str:
    """An audit-store/4 snapshot holding these user lines, with their digest."""
    head = json.dumps({"activities": activities, "format": "audit-store/4", "labels": {},
                       "manifest": [], "rows": rows, "users": sorted(users)},
                      sort_keys=True, separators=(",", ":"))
    lines = ",\n".join(users[user] for user in sorted(users)) + "\n"
    digest = hashlib.sha256(lines.encode("utf-8")).hexdigest()
    return f'{head[:-1]},"entries":[\n{lines}],"sha256":"{digest}"}}\n'


@pytest.mark.parametrize("phase, text", [
    ("forge", "{"),
    # Detect decodes the lines of the registry's case users, B0001 among them,
    # before its first audit.
    ("detect", _audit_store({"B0001": '[0,"E1","2024-01-02T09:00:00","h","Logon"]'},
                            1, ["Logon"])),
    ("forge", "[" * 100_000),
], ids=["not-json", "row-of-five-fields", "nested-past-recursion-limit"])
def test_damaged_snapshot_rejected(demo: Path, completed_run: Path, tmp_path, capsys,
                                   phase, text):
    (tmp_path / "store.json").write_text(text)
    config_path = _config_copy(demo, completed_run, tmp_path,
                               json.loads((demo / "script.json").read_text()))
    config_doc = json.loads(config_path.read_text())
    config_doc["store_path"] = str(tmp_path / "store.json")
    config_doc["registry_path"] = str(completed_run / "out" / "registry.json")
    config_path.write_text(json.dumps(config_doc))
    assert main([phase, "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("IngestFailed:") and err.count("\n") == 1
    assert "damaged snapshot" in err and "re-run ingest" in err


def _move_first_logon(store: Path, user: str, day: str, to: str, fresh_digest: bool) -> None:
    """Move the user's first Logon on ``day`` to the day ``to``, and write
    either a fresh digest of the user lines or the old one."""
    first, *lines, closing = store.read_bytes().splitlines(keepends=True)
    n = json.loads(first + b"]}")["users"].index(user)
    body = lines[n].rstrip(b",\n")
    rows = json.loads(b"[" + body + b"]")
    row = next(r for r in rows if r[4] == "Logon" and r[2].startswith(day))
    row[2] = to + row[2][len(day):]
    lines[n] = (json.dumps(rows, sort_keys=True, separators=(",", ":"))[1:-1].encode()
                + lines[n][len(body):])
    if fresh_digest:
        digest = hashlib.sha256(b"".join(lines)).hexdigest().encode()
        closing = b'],"sha256":"' + digest + b'"}\n'
    store.write_bytes(first + b"".join(lines) + closing)


@pytest.mark.parametrize("fresh_digest, category, detail", [
    (False, "IngestFailed", "damaged snapshot"),
    (True, "RegistryCorrupt", "fails a recorded case: params {'day': '2024-03-06', 'user': 'B0001'}"),
], ids=["edited-after-ingest", "intact"])
def test_detect_setup_blames_a_damaged_snapshot_not_the_registry(
        demo: Path, completed_run: Path, tmp_path, capsys, fresh_digest, category, detail):
    """A recorded case fails on an edited case user's rows: detect's set-up
    read them unchecked, so it checks the digest before it blames the
    registry."""
    store = tmp_path / "store.json"
    store.write_bytes((completed_run / "out" / "store.json").read_bytes())
    _move_first_logon(store, "B0001", "2024-03-06", "2023-01-01", fresh_digest)
    config_path = _config_copy(demo, completed_run, tmp_path,
                               json.loads((demo / "script.json").read_text()))
    config_doc = json.loads(config_path.read_text())
    config_doc["store_path"] = str(store)
    config_doc["registry_path"] = str(completed_run / "out" / "registry.json")
    config_path.write_text(json.dumps(config_doc))
    assert main(["detect", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{category}:") and err.count("\n") == 1
    assert detail in err
    if not fresh_digest:
        assert "re-run ingest" in err


def test_ingest_rejects_an_id_shared_by_two_files(tmp_path, capsys):
    generate_demo(tmp_path)
    data = tmp_path / "data"
    first_id = (data / "logon.csv").read_text().splitlines()[1].split(",")[0]
    lines = (data / "device.csv").read_text().splitlines(keepends=True)
    lines[1] = first_id + lines[1][lines[1].index(","):]
    (data / "device.csv").write_text("".join(lines))
    assert main(["ingest", "--config", str(tmp_path / "config.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("DuplicateEntryId:") and err.count("\n") == 1
    assert first_id in err


def test_detect_replaces_the_previous_transcripts(demo: Path, completed_run: Path, tmp_path):
    config_path = _config_copy(demo, completed_run, tmp_path,
                               json.loads((demo / "script.json").read_text()))
    config = str(config_path)
    for phase in ("forge", "detect"):
        assert main([phase, "--config", config]) == 0
    transcripts = tmp_path / "out" / "transcripts"
    assert len(list(transcripts.glob("*.json"))) == 50
    assert main(["detect", "--config", config, "--variant", "vanilla"]) == 0
    assert not transcripts.exists()


def test_detect_interrupted_by_a_non_audit_error_keeps_every_output(
        demo: Path, completed_run: Path, tmp_path, monkeypatch):
    import logaudit.pipeline

    config_path = _config_copy(demo, completed_run, tmp_path,
                               json.loads((demo / "script.json").read_text()))
    config = str(config_path)
    for phase in ("forge", "detect"):
        assert main([phase, "--config", config]) == 0
    out = tmp_path / "out"
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}

    class Interrupted(Exception):
        pass

    def interrupt(user, ctx):
        raise Interrupted

    monkeypatch.setattr(logaudit.pipeline, "detect_user", interrupt)
    with pytest.raises(Interrupted):
        main(["detect", "--config", config, "--variant", "vanilla"])
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
    assert gc.isenabled() and gc.get_freeze_count() == 0


@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, monkeypatch, collecting):
    """Each phase freezes the state it builds, and the audit runs with that
    state frozen; main unfreezes it and restores the caller's collector,
    also when the phase fails."""
    import logaudit.cli

    generate_demo(tmp_path)
    config = str(tmp_path / "config.json")
    during_detect = []
    real = logaudit.cli.detect_all

    def watched(ctx, parallelism=1):
        during_detect.append((gc.isenabled(), gc.get_freeze_count() > 0))
        return real(ctx, parallelism)

    monkeypatch.setattr(logaudit.cli, "detect_all", watched)
    enabled = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        for phase in ("ingest", "forge", "detect"):
            assert main([phase, "--config", config]) == 0
            assert (gc.isenabled(), gc.get_freeze_count()) == (collecting, 0)
        (tmp_path / "out" / "store.json").write_text("{")
        for phase in ("forge", "detect"):
            assert main([phase, "--config", config]) == 1
            assert capsys.readouterr().err.startswith("IngestFailed:")
            assert (gc.isenabled(), gc.get_freeze_count()) == (collecting, 0)
    finally:
        (gc.enable if enabled else gc.disable)()
    assert during_detect == [(collecting, True)]
