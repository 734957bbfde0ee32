"""Golden-output gate: the demo's store snapshot, its forge outputs and, for
every variant, its conclusions, detect ledger and transcripts are pinned by
content hash (first 16 hex digits of SHA-256). A refactor must leave them
unchanged; a change that means to alter them updates the pins and says why."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from logaudit.cli import main as cli_main
from logaudit.synthetic import generate_demo

# store.json is audit-store/4: one line per user, each row carrying its store
# position, and a closing line with the digest of the user lines.
SNAPSHOT = {
    "store.json": "ec36362078926d88",
    "store.users.json": "9bb9643a9361ffb1",
}

# The demo ingested with undersample_cap 1000: every malicious entry and
# 1,000 benign ones, 1,008 rows.
UNDERSAMPLED_STORE = "99375571269081ce"

FORGE = {
    "registry.json": "903022c09ae00acf",
    "costs-forge.jsonl": "f31a6203f02fc5a6",
}

# The demo with one tool repaired and one irreparable: the logon check's draft
# counts Logoff, so it parses but fails its unit tests, and its first repair
# passes. The device check's draft and first repair do not parse, and the
# later repairs count over all days and fail, so it takes the built-in.
REPAIR_FORGE = {
    "registry.json": "70871245eb71fa3b",
    "costs-forge.jsonl": "24dc487238854629",
    "manifest-forge.json": "22fd8d19e362275b",
}

LOGOFF_PLAN = ("select activity=Logoff user={user}\ngroup_by key=user_day\n"
               "aggregate func=count\nbaseline_compare statistic=mean k_sigma=2.0")
LOGON_PLAN = LOGOFF_PLAN.replace("Logoff", "Logon")
ALL_DAYS_DEVICE_PLAN = "select activity=DeviceConnect user={user}\naggregate func=count"

# variant -> (conclusions.json, costs-detect.jsonl, transcripts digest)
DETECT = {
    "original": ("f424a2c5fce5e9f4", "55ae86f585b244f4", "137428d35c0b1a77"),
    "vanilla": ("b2255789b6f14f0c", "914f801b1b6ae843", None),
    "no_cot": ("c0be1fc1b2db1aa6", "212d71577b687bbf", "fcea2a4180aaf1b8"),
    "no_decomp": ("a9b3e4e6efee4a3c", "c700ad0e33dbbb4a", "8cdb9b47c51f6eee"),
    "no_tools": ("07097baa3344725f", "d5d1e1347a80fb75", "b11cf9f8c4bc2498"),
    "no_emad": ("f4ddd8d83549c5ed", "55ae86f585b244f4", "137428d35c0b1a77"),
}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _transcripts_digest(directory: Path) -> str | None:
    """Hash of every transcript's file name and bytes, in name order; None
    when the variant writes no transcripts."""
    if not directory.exists():
        return None
    digest = hashlib.sha256()
    for path in sorted(directory.glob("*.json")):
        digest.update(path.name.encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


@pytest.fixture(scope="module")
def demo(tmp_path_factory) -> tuple[Path, Path]:
    root = tmp_path_factory.mktemp("golden-demo")
    generate_demo(root)
    config = root / "config.json"
    for phase in ("ingest", "forge"):
        assert cli_main([phase, "--config", str(config)]) == 0
    return config, root / "out"


def _repair_script(script: list[dict]) -> list[dict]:
    for item in script:
        if item["when"] == ["[stage: tool-draft]", "daily logon count"]:
            item["response"] = LOGOFF_PLAN
        elif item["when"] == ["[stage: tool-draft]", "daily removable device"]:
            item["response"] = "count the device connections per day"
    return script + [
        {"when": ["[stage: tool-repair]", "daily logon count"], "response": LOGON_PLAN},
        {"when": ["[stage: tool-repair]", "daily removable device"],
         "response": "aggregate func=count"},
        {"when": ["[stage: tool-repair]", "daily removable device"],
         "response": ALL_DAYS_DEVICE_PLAN, "repeat": True},
    ]


def test_snapshot_is_golden(demo):
    _config, out = demo
    assert {name: _digest(out / name) for name in SNAPSHOT} == SNAPSHOT


def test_undersampled_snapshot_is_golden(tmp_path):
    generate_demo(tmp_path)
    config = tmp_path / "config.json"
    doc = json.loads(config.read_text())
    doc["undersample_cap"] = 1000
    config.write_text(json.dumps(doc))
    assert cli_main(["ingest", "--config", str(config)]) == 0
    assert _digest(tmp_path / "out" / "store.json") == UNDERSAMPLED_STORE


def test_forge_outputs_are_golden(demo):
    _config, out = demo
    assert {name: _digest(out / name) for name in FORGE} == FORGE


@pytest.mark.parametrize("variant", sorted(DETECT))
def test_detect_outputs_are_golden(demo, variant):
    config, out = demo
    assert cli_main(["detect", "--config", str(config), "--variant", variant]) == 0
    outputs = (
        _digest(out / "conclusions.json"),
        _digest(out / "costs-detect.jsonl"),
        _transcripts_digest(out / "transcripts"),
    )
    assert outputs == DETECT[variant]


def test_forge_repair_outputs_are_golden(tmp_path):
    generate_demo(tmp_path)
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps(_repair_script(json.loads(script_path.read_text()))))
    config = tmp_path / "config.json"
    for phase in ("ingest", "forge"):
        assert cli_main([phase, "--config", str(config)]) == 0
    out = tmp_path / "out"
    assert {name: _digest(out / name) for name in REPAIR_FORGE} == REPAIR_FORGE
