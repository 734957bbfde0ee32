"""Opening audits and forge's checks fanned out on an order-free backend must
give what a serial run of the same backend gives: the same files and ledger
sequence, and, when a reply cannot be parsed or a call fails, the same
error."""

from __future__ import annotations

import json
import shutil
import sys
import threading
import time
from pathlib import Path

import pytest

from logaudit import gateway
from logaudit.cli import main
from logaudit.config import load_config
from logaudit.decomposer import slugify
from logaudit.gateway import HttpBackend, HttpReply
from logaudit.synthetic import CHECKS, generate_demo

VARIANTS = ["original", "no_tools", "no_emad", "no_decomp", "no_cot"]
DISPUTED = "LEAK0001"  # executor B misses this insider's evidence, so they debate
GARBLED = "KEYL0001"


@pytest.fixture(scope="module")
def demo(tmp_path_factory) -> Path:
    """The demo, ingested and forged, with a copy of its config on the HTTP
    backend; each run writes to its own output directory."""
    root = tmp_path_factory.mktemp("fanout-demo")
    generate_demo(root)
    config = str(root / "config.json")
    assert main(["ingest", "--config", config]) == 0
    assert main(["forge", "--config", config]) == 0
    return root


class PromptTransport:
    """An order-free ``post``: each reply depends on the prompt and the seed
    alone. It sleeps ``delay`` seconds per call and records the peak number
    of calls in flight. ``garble`` holds (seed, user, text, delay) entries:
    a call with that seed whose prompt names both the user and the text
    gets, after a further ``delay`` seconds, a reply that never parses."""

    def __init__(self, seed_b: int, delay: float = 0.0, garble=()) -> None:
        self.seed_b = seed_b
        self.delay = delay
        self.garble = garble
        self.in_flight = 0
        self.peak = 0
        self._lock = threading.Lock()

    def reply(self, prompt: str, seed: int | None) -> str:
        for garbled_seed, user, text, delay in self.garble:
            if seed == garbled_seed and user in prompt and text in prompt:
                time.sleep(delay)
                return "no structure here"
        missed = seed == self.seed_b and DISPUTED in prompt
        if "[stage: subtask]" in prompt:
            flag = "Tool signal: suspicious" in prompt and not missed
            return f"Finding: judged from the tool.\nSuspicious: {'yes' if flag else 'no'}"
        if "[stage: one-shot]" in prompt:
            flag = "(signal: suspicious)" in prompt and not missed
        else:  # rebuttal and merge
            flag = "verdict: malicious" in prompt
        return f"Basis of Judgment: judged.\nDecision: {'Malicious' if flag else 'Benign'}"

    def post(self, url, json, headers, timeout) -> HttpReply:
        with self._lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(self.delay)
            text = self.reply(json["messages"][-1]["content"], json.get("seed"))
        finally:
            with self._lock:
                self.in_flight -= 1
        return HttpReply(200, _completion_body(text))


def _completion_body(text: str) -> bytes:
    # Outside ``post``, whose ``json`` parameter hides the module.
    return json.dumps({"choices": [{"message": {"content": text}}]}).encode("utf-8")


def _detect(demo: Path, monkeypatch, capsys, variant: str, *, fan_out: bool,
            transport: PromptTransport, parallelism: int = 1) -> tuple[int, str, Path]:
    """One CLI detect of ``variant`` over ``transport`` with up to
    ``parallelism`` users at once; the backend keeps its order-free flag
    only when ``fan_out``."""
    name = f"{variant}-{'fan' if fan_out else 'serial'}-{parallelism}"
    doc = json.loads((demo / "config.json").read_text())
    doc["backend"] = {"type": "http", "endpoint": "http://llm.test/v1", "model": "m"}
    doc["output_dir"] = f"out-{name}"
    doc["store_path"] = "out/store.json"
    doc["registry_path"] = "out/registry.json"
    config_path = demo / f"{name}.json"
    config_path.write_text(json.dumps(doc))
    monkeypatch.setattr(gateway, "urllib_post", lambda _opener: transport.post)
    monkeypatch.setattr(HttpBackend, "order_free", fan_out)
    capsys.readouterr()
    code = main(["detect", "--config", str(config_path), "--variant", variant,
                 "--parallelism", str(parallelism)])
    return code, capsys.readouterr().err, demo / f"out-{name}"


def _outputs(outdir: Path) -> tuple[bytes, dict[str, bytes], list[tuple]]:
    transcripts = outdir / "transcripts"
    ledger = [json.loads(line) for line in (outdir / "costs-detect.jsonl").read_text().splitlines()]
    return (
        (outdir / "conclusions.json").read_bytes(),
        {p.name: p.read_bytes() for p in sorted(transcripts.glob("*.json"))}
        if transcripts.exists() else {},
        [(r["stage"], r["note"], r["prompt_tokens"], r["completion_tokens"]) for r in ledger],
    )


@pytest.mark.parametrize("variant, parallelism", [
    pytest.param(variant, parallelism,
                 id=variant if parallelism == 1 else f"{variant}-parallelism-{parallelism}")
    for parallelism in (1, 2) for variant in VARIANTS])
def test_fanned_out_opening_matches_a_serial_run(demo, monkeypatch, capsys, variant,
                                                 parallelism):
    """Both levels, users and each user's opening calls, run at once only
    on an order-free backend, and give what one-by-one calls give."""
    seed_b = load_config(demo / "config.json").seed_executor_b
    serial = PromptTransport(seed_b)
    code, err, serial_out = _detect(demo, monkeypatch, capsys, variant, fan_out=False,
                                    transport=serial, parallelism=parallelism)
    assert code == 0, err
    fanned = PromptTransport(seed_b, delay=0.002)
    # Switch threads often, so a record appended out of order would show.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        code, err, fan_out = _detect(demo, monkeypatch, capsys, variant, fan_out=True,
                                     transport=fanned, parallelism=parallelism)
    finally:
        sys.setswitchinterval(interval)
    assert code == 0, err

    assert serial.peak == 1
    assert fanned.peak > 1
    conclusions, transcripts, ledger = _outputs(fan_out)
    assert (conclusions, transcripts, ledger) == _outputs(serial_out)
    # Without tools nothing is flagged, so nothing is disputed.
    tools = variant != "no_tools"
    assert any(stage == "rebuttal" for stage, *_ in ledger) == (tools and variant != "no_emad")
    users = json.loads(conclusions)["users"]
    assert sorted(u for u, c in users.items() if c["verdict"] == "malicious") == (
        [GARBLED, DISPUTED] if tools else [])


@pytest.mark.parametrize("variant", VARIANTS)
def test_fanned_out_opening_raises_the_serial_error(demo, monkeypatch, capsys, variant):
    """Executor A's email check (its sixth) and executor B's first check
    never parse for one user: both runs fail on A's, the first failing job
    in job order, although A's replies come last."""
    config = load_config(demo / "config.json")
    seed_a, seed_b = config.seed_executor_a, config.seed_executor_b
    first, later = CHECKS[0][0], CHECKS[5][0]
    garble = ((seed_a, GARBLED, later, 0.03), (seed_b, GARBLED, first, 0.0),
              # the single-check and one-step variants have no per-check text
              (seed_a, GARBLED, "[stage: one-shot]", 0.03),
              (seed_b, GARBLED, "[stage: one-shot]", 0.0),
              (seed_a, GARBLED, "Audit all of this user's activity", 0.0))
    errors = []
    for fan_out in (False, True):
        transport = PromptTransport(seed_b, garble=garble)
        code, err, _out = _detect(demo, monkeypatch, capsys, variant, fan_out=fan_out,
                                  transport=transport)
        assert code == 1
        errors.append(err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("ResponseUnparseable:")
    if variant in ("original", "no_tools", "no_emad"):
        assert f"check {slugify(later)}:" in errors[0]


# --- forge: every check's draft -> test -> repair chain at once ---

LOGON_PLAN = CHECKS[0][4]
LOGOFF_PLAN = LOGON_PLAN.replace("activity=Logon", "activity=Logoff")
EMAIL_DRAFT = ["[stage: tool-draft]", CHECKS[5][3]]


class ScriptTransport(PromptTransport):
    """An order-free ``post`` for forge: each reply is the response of the
    first script entry whose ``when`` parts all occur in the prompt, however
    often that entry has answered before. A prompt holding every part of
    ``deny`` is answered HTTP 401 at once."""

    def __init__(self, script: list[dict], delay: float = 0.0, deny=()) -> None:
        super().__init__(seed_b=0, delay=delay)
        self.script = [([item["when"]] if isinstance(item["when"], str) else item["when"],
                        item["response"]) for item in script]
        self.deny = deny

    def reply(self, prompt: str, seed: int | None) -> str:
        return next(response for parts, response in self.script
                    if all(part in prompt for part in parts))

    def post(self, url, json, headers, timeout) -> HttpReply:
        if self.deny and all(part in json["messages"][-1]["content"] for part in self.deny):
            return HttpReply(401, b"invalid api key")
        return super().post(url, json, headers, timeout)


def _forge_script(demo: Path) -> list[dict]:
    """The demo's script with the logon check's draft counting Logoff, so
    it parses but fails its cases and its first repair passes, and the
    device check's draft and repairs never parsing, so it takes its
    built-in."""
    device = CHECKS[4][3]
    return [
        {"when": ["[stage: tool-draft]", CHECKS[0][3]], "response": LOGOFF_PLAN},
        {"when": ["[stage: tool-repair]", CHECKS[0][3]], "response": LOGON_PLAN},
        {"when": ["[stage: tool-draft]", device], "response": "count the devices per day"},
        {"when": ["[stage: tool-repair]", device], "response": "still no plan"},
    ] + json.loads((demo / "script.json").read_text())


def _forge(demo: Path, monkeypatch, capsys, name: str, *, fan_out: bool,
           transport: ScriptTransport) -> tuple[int, str, dict[str, bytes]]:
    """One CLI forge over ``transport`` into a fresh ``out-<name>``: the exit
    code, stderr, and every file it left there. Both runs of a test share a
    config, so their manifests' config hashes agree."""
    doc = json.loads((demo / "config.json").read_text())
    doc["backend"] = {"type": "http", "endpoint": "http://llm.test/v1", "model": "m"}
    doc["output_dir"] = f"out-{name}"
    doc["store_path"] = "out/store.json"
    doc["registry_path"] = f"out-{name}/registry.json"
    config_path = demo / f"{name}.json"
    config_path.write_text(json.dumps(doc))
    outdir = demo / f"out-{name}"
    shutil.rmtree(outdir, ignore_errors=True)
    monkeypatch.setattr(gateway, "urllib_post", lambda _opener: transport.post)
    monkeypatch.setattr(HttpBackend, "order_free", fan_out)
    capsys.readouterr()
    threads = threading.active_count()
    code = main(["forge", "--config", str(config_path)])
    assert threading.active_count() == threads
    files = {p.name: p.read_bytes() for p in sorted(outdir.glob("*"))} if outdir.exists() else {}
    return code, capsys.readouterr().err, files


def _ledger(files: dict[str, bytes]) -> list[tuple]:
    return [(r["stage"], r["note"], r["prompt_tokens"], r["completion_tokens"])
            for r in map(json.loads, files["costs-forge.jsonl"].splitlines())]


def test_fanned_out_forge_matches_a_serial_run(demo, monkeypatch, capsys):
    """On an order-free backend each check's draft, tests and repairs run
    in a job of its own, every check's at once, and forge writes what a
    one-by-one run writes: the same registry and manifest bytes and the
    same ledger sequence."""
    script = _forge_script(demo)
    serial = ScriptTransport(script)
    code, err, serial_files = _forge(demo, monkeypatch, capsys, "forge", fan_out=False,
                                     transport=serial)
    assert code == 0, err
    fanned = ScriptTransport(script, delay=0.01)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        code, err, fanned_files = _forge(demo, monkeypatch, capsys, "forge", fan_out=True,
                                         transport=fanned)
    finally:
        sys.setswitchinterval(interval)
    assert code == 0, err

    assert serial.peak == 1
    assert 1 < fanned.peak <= len(CHECKS)
    for name in ("registry.json", "manifest-forge.json"):
        assert fanned_files[name] == serial_files[name]
    ledger = _ledger(fanned_files)
    assert ledger == _ledger(serial_files)
    logon, device = slugify(CHECKS[0][0]), slugify(CHECKS[4][0])
    repairs = [note for stage, note, *_ in ledger if stage == "tool-repair"]
    assert repairs == [f"{logon}#1"] + [f"{device}#{n}" for n in (1, 2, 3)]
    manifest = json.loads(fanned_files["manifest-forge.json"])
    assert list(manifest["fallbacks"]) == [device] and manifest["tools"] == len(CHECKS)


def test_fanned_out_forge_fails_as_a_serial_run(demo, monkeypatch, capsys):
    """A non-retryable backend error in one check's draft fails a fanned-out
    forge with the serial run's error line, leaving the same files (none),
    once the other checks' jobs have finished."""
    results = []
    for fan_out in (False, True):
        transport = ScriptTransport(_forge_script(demo), delay=0.01 * fan_out,
                                    deny=EMAIL_DRAFT)
        results.append(_forge(demo, monkeypatch, capsys, "forge-denied", fan_out=fan_out,
                              transport=transport))
    (code, err, files), fanned = results
    assert code == 1
    assert err.splitlines()[-1] == "GatewayError: http: HTTP 401: invalid api key"
    assert fanned == (code, err, files)
    assert files == {}
