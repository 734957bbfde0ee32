"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

from __future__ import annotations

import itertools
import json
import random
import time
from pathlib import Path

import pytest

from conftest import entry, evaluate_detection, seal
from logaudit.bench import ConfusionCounts, compute_metrics
from logaudit.cli import main as cli_main
from logaudit.config import load_config
from logaudit.debate import DebateConfig, merge_conclusion, rebut
from logaudit.decomposer import SubTask, SubTaskSet
from logaudit.executor import ExecutorResultSet, SubTaskResult
from logaudit.forge import (
    ToolSpec,
    ToolTestCase,
    build_tool_for_subtask,
    drafted_tool,
    load_registry,
    save_registry,
    unit_test_tool,
)
from logaudit.gateway import CostLedger, ScriptEntry, make_scripted_backend
from logaudit.logstore import ActivityType, undersample_benign
from logaudit.pipeline import DetectContext, context_from_config, detect_user
from logaudit.plans import free_params, parse_plan
from logaudit.runtime import ListDef, invoke
from logaudit.synthetic import generate_demo
from conftest import random_store
from oracles import naive_metrics, naive_plan_eval, store_lines


def _report(n: int, text: str) -> None:
    print(f"[criterion {n:02d}] PASS - {text}")


@pytest.fixture(scope="module")
def demo_root(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("acceptance-demo")
    generate_demo(root)
    return root


def _run_pipeline(demo_root: Path, tag: str) -> Path:
    """One full scripted run into its own output tree; returns the out dir."""
    config_doc = json.loads((demo_root / "config.json").read_text())
    config_doc["store_path"] = f"{tag}/store.json"
    config_doc["registry_path"] = f"{tag}/registry.json"
    config_doc["output_dir"] = tag
    config_path = demo_root / f"config-{tag}.json"
    config_path.write_text(json.dumps(config_doc, sort_keys=True, indent=1))
    for phase in ("ingest", "forge", "detect", "evaluate"):
        assert cli_main([phase, "--config", str(config_path)]) == 0, f"{phase} failed"
    return demo_root / tag


def test_criterion_01_end_to_end_scenario_suite(demo_root: Path):
    """50-user fixture with one data-leakage and one keylogging insider:
    perfect per-user metrics, deterministic across 3 runs, under 60 s."""
    started = time.monotonic()
    outputs = [_run_pipeline(demo_root, f"run{i}") for i in range(1, 4)]
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"wall clock {elapsed:.1f}s exceeds 60s"

    for out in outputs:
        doc = json.loads((out / "report.struct").read_text())
        row = doc["metrics"][0]
        assert row["prec"] == 1.0
        assert row["dr"] == 1.0
        assert row["fpr"] == 0.0
        assert row["acc"] == 1.0
        conclusions = json.loads((out / "conclusions.json").read_text())
        malicious = sorted(u for u, i in conclusions["users"].items()
                           if i["verdict"] == "malicious")
        assert malicious == ["KEYL0001", "LEAK0001"]

    first = (outputs[0] / "conclusions.json").read_bytes()
    for out in outputs[1:]:
        assert (out / "conclusions.json").read_bytes() == first
        assert (out / "report.struct").read_bytes() == \
            (outputs[0] / "report.struct").read_bytes()
    _report(1, f"Prec/DR/Acc=1.0 FPR=0.0 on 3 identical runs in {elapsed:.1f}s")


def _spec_for(plan_text: str) -> ToolSpec:
    plan = parse_plan(plan_text)
    return ToolSpec(name="t", subtask_id="s", plan=plan, params=free_params(plan),
                    doc="equivalence suite tool")


ORACLE_PLANS: list[tuple[str, dict[str, str]]] = [
    ("select activity=Logon user=U001\naggregate func=count", {}),
    ("select activity=Logon user={user} day={day}\naggregate func=count",
     {"user": "U002", "day": "2024-01-11"}),
    ("select activity=HttpVisit user={user}\naggregate func=distinct_count field=url", {}),
    ("select activity=EmailSend user={user}\naggregate func=mean field=size", {}),
    ("select activity=EmailSend user={user}\naggregate func=std field=size", {}),
    ("select activity=EmailSend user={user}\naggregate func=max field=size", {}),
    ("select activity=EmailSend user={user}\naggregate func=min field=size", {}),
    ("select activity=HttpVisit user={user}\n"
     "filter field=content predicate=contains value=keylog\naggregate func=count", {}),
    ("select activity=FileOp user={user}\n"
     "filter field=filename predicate=matches_glob value=*.exe\naggregate func=count", {}),
    ("select activity=Logon user={user}\nfilter field=hour predicate=in_list value=0,1,2,3,4,5\n"
     "aggregate func=count", {}),
    ("select activity=EmailSend user={user}\n"
     "filter field=size predicate=numeric_cmp value=50000 op=gt\naggregate func=count", {}),
    ("select activity=Logon user={user}\ngroup_by key=host\naggregate func=count", {}),
    ("select activity=Logon user={user}\ngroup_by key=user_day\naggregate func=count\n"
     "baseline_compare statistic=mean k_sigma=2.0",
     {"user": "U001", "day": "2024-01-15"}),
    ("select activity=HttpVisit user={user}\nlookup list=deny field=url", {"user": "U003"}),
    ("select activity=EmailSend user={user} day_from=2024-01-05 day_to=2024-01-20\n"
     "aggregate func=count", {}),
]


def test_criterion_02_tool_runtime_oracle_equivalence():
    """Every aggregate over users' histories in a 10,000-entry fixture
    matches an independent naive full scan: counts exactly, means/stds
    within 1e-9."""
    store = random_store(10_000, seed=7)
    lists = {"deny": ListDef("deny", "domain_deny", frozenset({"wikileaks.org"}))}
    checked = 0
    for (plan_text, plan_params), user in itertools.product(ORACLE_PLANS, ("U001", "U020")):
        spec = _spec_for(plan_text)
        params = {"user": user, **plan_params}
        mine = invoke(spec, params, store.users, lists)
        theirs = naive_plan_eval(store, spec.plan, params, lists)
        assert mine.values["n"] == theirs["n"], plan_text
        agg = spec.plan.aggregate()
        comparator = spec.plan.comparator()
        if comparator is not None and "mu" in mine.values:
            assert abs(float(mine.values["mu"]) - theirs["mu"]) <= 1e-9 + 1e-4, plan_text
            # mu/sigma are rounded for rendering; compare at render precision.
            assert abs(float(mine.values["mu"]) - round(theirs["mu"], 4)) <= 1e-9
            assert abs(float(mine.values["sigma"]) - round(theirs["sigma"], 4)) <= 1e-9
            assert (mine.verdict_hint == "suspicious") == theirs["suspicious"], plan_text
        elif comparator is not None and "n_matched" in mine.values:
            assert mine.values["n_matched"] == theirs["n_matched"], plan_text
        elif agg is not None and spec.plan.group_by() is not None:
            assert mine.values["n_groups"] == theirs["n_groups"], plan_text
        elif agg is not None and agg.func != "count":
            key = {"distinct_count": "n_distinct", "mean": "mean", "std": "std",
                   "max": "max", "min": "min"}[agg.func]
            if theirs["agg"] is None:
                assert mine.values[key] == "(no data)"
            elif agg.func in ("distinct_count",):
                assert mine.values[key] == theirs["agg"], plan_text
            else:
                assert abs(float(mine.values[key]) - round(theirs["agg"], 4)) <= 1e-9, plan_text
        checked += 1
    assert checked >= 10
    _report(2, f"{checked} plan evaluations match the naive full-scan oracle on 10,000 entries")


def test_criterion_03_metrics_identities():
    """100 randomized confusion matrices reproduce the formulas within
    1e-12; degenerate denominators are absent, never zero."""
    rng = random.Random(20240810)
    cases = [(0, 0, 0, 0), (0, 0, 0, 7), (5, 0, 0, 0), (0, 3, 0, 0), (0, 0, 4, 0)]
    while len(cases) < 100:
        cases.append(tuple(rng.randrange(0, 400) for _ in range(4)))
    for tp, fp, fn, tn in cases:
        mine = compute_metrics(ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn))
        prec, dr, fpr, acc = naive_metrics(tp, fp, fn, tn)
        for a, b in ((mine.prec, prec), (mine.dr, dr), (mine.fpr, fpr), (mine.acc, acc)):
            if b is None:
                assert a is None
            else:
                assert abs(a - b) <= 1e-12
    degenerate = compute_metrics(ConfusionCounts(0, 0, 0, 9))
    assert degenerate.prec is None and degenerate.dr is None
    _report(3, "100 randomized confusion matrices within 1e-12; degenerates absent")


SUBTASKS = SubTaskSet(
    subtasks=[
        SubTask("logon-baseline", "Compare daily logon counts against the baseline.",
                frozenset({ActivityType.LOGON})),
        SubTask("website-legitimacy", "Verify the legitimacy of visited domains.",
                frozenset({ActivityType.HTTP_VISIT})),
    ],
    rounds=0,
)
TOOLS = {"logon-baseline": None, "website-legitimacy": None}

BENIGN_REPLY = "Finding: fine\nSuspicious: no"
FLAG_WEB = "Finding: untrusted website visited\nSuspicious: yes\nFlagged: WEB-1"


def test_criterion_04_debate_conformance(burst_store):
    """(a) agreement means zero rebuttal rounds; (b) a never-agreeing script
    with a cap of 3 runs exactly 3 rounds then merges; (c) the cost ledger
    stays within 2*N_t + 2*n_debate + 1 calls plus re-prompts."""
    # (a) agreeing initial verdicts
    agree_backend = make_scripted_backend([
        ScriptEntry("[stage: subtask]", BENIGN_REPLY, repeat=True),
        ScriptEntry("[stage: merge]", "Basis of Judgment: ok\nDecision: Benign", repeat=True),
    ])
    ledger_a = CostLedger()
    final, transcript = detect_user(burst_store.users["UX"], DetectContext(
        SUBTASKS, TOOLS, burst_store, agree_backend, ledger_a, debate=DebateConfig(n_debate=3)))
    assert final.rounds_used == 0
    assert final.consensus
    assert len(transcript.rounds) == 1

    # (b) + (c) never-agreeing scripts, n_debate=3
    disagree_backend = make_scripted_backend([
        ScriptEntry("[stage: subtask]", BENIGN_REPLY),
        ScriptEntry("[stage: subtask]", FLAG_WEB),
        ScriptEntry("[stage: subtask]", BENIGN_REPLY, repeat=True),
        ScriptEntry(["[stage: rebuttal]", "executor A"],
                    "Basis of Judgment: firm\nFlagged: WEB-1\nDecision: Malicious",
                    repeat=True),
        ScriptEntry("[stage: rebuttal]",
                    "Basis of Judgment: unmoved\nDecision: Benign", repeat=True),
        ScriptEntry("[stage: merge]",
                    "Basis of Judgment: folded evidence\nDecision: Malicious", repeat=True),
    ])
    ledger_b = CostLedger()
    n_debate = 3
    final, transcript = detect_user(burst_store.users["UX"], DetectContext(
        SUBTASKS, TOOLS, burst_store, disagree_backend, ledger_b,
        debate=DebateConfig(n_debate=n_debate)))
    assert final.rounds_used == 3
    assert not final.consensus
    assert len(transcript.rounds) == 4       # initial + 3 rebuttal rounds
    assert final.verdict == "malicious"      # executor A's merge folds the evidence
    merge_calls = [r for r in ledger_b.records() if r.stage == "merge"]
    assert len(merge_calls) == 1

    n_t = len(SUBTASKS.subtasks)
    for ledger in (ledger_a, ledger_b):
        reprompts = sum(1 for r in ledger.records() if "reprompt" in r.note)
        assert len(ledger) <= 2 * n_t + 2 * n_debate + 1 + reprompts
    assert len(ledger_b) == 2 * n_t + 2 * n_debate + 1
    _report(4, "zero rounds on agreement; exactly 3 rounds then merge; "
               f"ledger bound 2*{n_t}+2*{n_debate}+1 holds")


def test_criterion_05_faithfulness_post_check(burst_store, ledger, caplog):
    """A rebuttal or a merge that says Benign while anomalies stay flagged is
    corrected to Malicious and the contradiction is logged."""
    flagged = ExecutorResultSet(
        "executor_a",
        [SubTaskResult("logon-baseline", "tool: fine", "normal", frozenset(), False),
         SubTaskResult("website-legitimacy", "tool: flagged wikileaks.org",
                       "untrusted visit", frozenset({"WEB-1"}), True)],
        frozenset({"WEB-1"}), "untrusted visit", "malicious",
    )
    clean = ExecutorResultSet(
        "executor_b",
        [SubTaskResult("logon-baseline", "tool: fine", "normal", frozenset(), False)],
        frozenset(), "nothing found", "benign",
    )
    backend = make_scripted_backend([
        ("[stage: rebuttal]",
         "Suspicious: none\nBasis of Judgment: seems fine\nFlagged: WEB-1\nDecision: Benign"),
        ("[stage: merge]", "Basis of Judgment: seems fine\nDecision: Benign"),
    ])
    user = burst_store.users["UX"]
    with caplog.at_level("WARNING"):
        rebutted = rebut("executor_a", flagged, clean, backend, user=user, ledger=ledger)
        final = merge_conclusion(flagged, clean, backend, user=user, rounds_used=0,
                                 consensus=False, ledger=ledger)
    for outcome in (rebutted, final):
        assert outcome.verdict == "malicious"
        assert outcome.anomalies == frozenset({"WEB-1"})
        assert outcome.correction is not None
    assert sum("contradicts the evidence" in r.message for r in caplog.records) == 2
    _report(5, "hallucinated Benign corrected to Malicious and logged (rebuttal and merge)")


def test_criterion_06_ablation_degradation(demo_root: Path):
    """With flags tied to tool output: no_tools misses the logon-burst user
    (DR strictly below original); no_emad equals original under agreement."""
    _run_pipeline(demo_root, "ablate")
    config = load_config(demo_root / "config-ablate.json")

    def run(tag):
        ctx = context_from_config(config, CostLedger(), tag)
        metrics, predictions = evaluate_detection(ctx)
        return metrics, ctx.ledger, predictions

    original, ledger_orig, _ = run("original")
    no_tools, _, preds_no_tools = run("no_tools")
    no_emad, ledger_noemad, _ = run("no_emad")

    assert original.dr == 1.0
    assert no_tools.dr is not None and no_tools.dr < original.dr
    assert preds_no_tools["KEYL0001"].verdict == "benign"  # burst user missed
    assert (no_emad.prec, no_emad.dr, no_emad.fpr, no_emad.acc, no_emad.counts) == \
        (original.prec, original.dr, original.fpr, original.acc, original.counts)

    # Variant isolation: original and no_emad ledgers differ only in
    # rebuttal-stage records (none here, since the executors agree).
    def stage_counts(records):
        counts: dict[str, int] = {}
        for record in records:
            if record.stage != "rebuttal":
                counts[record.stage] = counts.get(record.stage, 0) + 1
        return counts

    assert stage_counts(ledger_orig.records()) == stage_counts(ledger_noemad.records())
    _report(6, f"no_tools DR {no_tools.dr:.2f} < original {original.dr:.2f}; "
               "no_emad identical under agreement")


def test_criterion_07_undersampling():
    """30,000 benign / 100 malicious capped at 20,000 keeps every malicious
    entry and exactly 20,000 benign."""
    entries = [entry(f"B{i:06d}", f"u{i % 60:02d}", ActivityType.LOGON,
                     day_offset=i % 28, hour=i % 24, minute=i % 60)
               for i in range(30_000)]
    entries += [entry(f"M{i:04d}", "insider", ActivityType.HTTP_VISIT,
                      day_offset=i % 28, hour=i % 24, url="http://wikileaks.org/x")
                for i in range(100)]
    store = seal(entries, {e.entry_id: ("malicious" if e.entry_id.startswith("M") else "benign")
                           for e in entries})
    lines = store_lines(store)
    sampled, labels = undersample_benign(lines, store.labels, cap=20_000, seed=42)
    rows = [row for line in sampled.values() for row in line]
    malicious = [row for row in rows if labels[row[1]] == "malicious"]
    benign = [row for row in rows if labels[row[1]] != "malicious"]
    assert len(malicious) == 100
    assert len(benign) == 20_000
    assert sum(map(len, lines.values())) == 30_100
    _report(7, "cap-20,000 view keeps 100/100 malicious and exactly 20,000 benign")


def test_criterion_08_registry_lifecycle(burst_store, ledger, tmp_path):
    """Three failed repairs fall back to the built-in tool, which is served
    because it passes the check's cases; save/load round-trips losslessly.
    The draft->tested->decorated status checks went with the status: a tool
    is built whole, and test_forge's property test pins that the forge
    serves only tools that pass their cases."""
    plan = parse_plan("select activity=Logon user={user} day={day}\naggregate func=count")
    cases = [ToolTestCase(params={"user": "UX", "day": "2024-01-05"}, expected={"n": 4})]
    subtask = SubTask("logon-baseline", "Check logon frequency against history.",
                      frozenset({ActivityType.LOGON}))
    bad_plan = "select activity=HttpVisit\nfilter field=urll predicate=contains value=x"
    backend = make_scripted_backend([
        ScriptEntry("tool_builder", bad_plan),
        ScriptEntry("tool_repair", bad_plan, repeat=True),
    ])
    outcome = build_tool_for_subtask(
        subtask, [entry("L1", "UX", ActivityType.LOGON)], cases, burst_store.users,
        backend, ledger=ledger,
    )
    assert outcome.used_builtin
    assert outcome.spec.subtask_id == "logon-baseline"
    assert unit_test_tool(outcome.spec, burst_store.users, cases) == []
    repair_calls = [r for r in ledger.records() if r.stage == "tool-repair"]
    assert len(repair_calls) == 3

    drafted = drafted_tool(subtask, plan, cases)
    path = tmp_path / "registry.json"
    save_registry([drafted, outcome.spec],
                  SubTaskSet(subtasks=[subtask], rounds=0), path)
    loaded = load_registry(path, store=burst_store)
    by_name = {t.name: t for t in loaded.tools}
    assert by_name[drafted.name] == drafted
    assert by_name[outcome.spec.name] == outcome.spec
    _report(8, "ToolIrreparable falls back to a builtin that passes the cases; "
               "registry round-trip lossless")


def test_criterion_09_parser_fidelity(data_dir):
    """Committed CERT and Zeek fixtures (with one pinned public-shape row
    each) parse completely with correct activity mapping."""
    from logaudit.logstore import parse_cert_file, parse_zeek_file

    checks = [
        ("cert_logon.csv", "logon", 4, {ActivityType.LOGON, ActivityType.LOGOFF}),
        ("cert_device.csv", "device", 2,
         {ActivityType.DEVICE_CONNECT, ActivityType.DEVICE_DISCONNECT}),
        ("cert_http.csv", "http", 2, {ActivityType.HTTP_VISIT}),
        ("cert_email.csv", "email", 2, {ActivityType.EMAIL_SEND}),
        ("cert_file.csv", "file", 2, {ActivityType.FILE_OP}),
    ]
    for name, source, rows, types in checks:
        parsed = parse_cert_file(data_dir / name, source)
        assert len(parsed.entries) == rows == parsed.source.rows
        assert parsed.source.malformed == 0
        assert {e.activity for e in parsed.entries} == types

    zeek_checks = [
        ("zeek_kerberos.log", 2, ActivityType.ZEEK_AUTH),
        ("zeek_weird.log", 1, ActivityType.ZEEK_ANOMALY),
        ("zeek_conn.log", 2, ActivityType.ZEEK_NETWORK),
        ("zeek_files.log", 1, ActivityType.ZEEK_FILE),
    ]
    for name, rows, activity in zeek_checks:
        parsed = parse_zeek_file(data_dir / name)
        assert len(parsed.entries) == rows == parsed.source.rows
        assert all(e.activity is activity for e in parsed.entries)

    pinned_cert = parse_cert_file(data_dir / "cert_logon.csv", "logon").entries[0]
    assert pinned_cert.user == "DTAA/TNM0961"
    pinned_zeek = parse_zeek_file(data_dir / "zeek_kerberos.log").entries[0]
    assert pinned_zeek.payload["client"] == "jsmith/PICO.PICODOMAIN.LOCAL"
    _report(9, "CERT and Zeek fixtures parse row-for-row with correct mapping")


def test_criterion_10_cost_ledger_conservation(demo_root: Path):
    """Every scripted run's report totals equal the sum of per-call records,
    and the emitted report carries latency / token / dollar categories."""
    from logaudit.gateway import cost_report

    out = demo_root / "run1"
    if not out.exists():
        out = _run_pipeline(demo_root, "run1")
    records = []
    for path in sorted(out.glob("costs-*.jsonl")):
        from logaudit.gateway import CostRecord

        for line in path.read_text().splitlines():
            records.append(CostRecord(**json.loads(line)))
    assert records
    report = cost_report(records)
    assert report.prompt_tokens == sum(r.prompt_tokens for r in records)
    assert report.completion_tokens == sum(r.completion_tokens for r in records)
    assert abs(report.dollars - sum(r.dollars for r in records)) <= 1e-9
    assert report.latency_ms == sum(r.latency_ms for r in records)
    assert report.calls == len(records)

    costs_doc = json.loads((out / "costs.struct").read_text())
    assert "latency_ms" in costs_doc
    assert "token_usage" in costs_doc
    assert "economic_cost_dollars" in costs_doc
    assert costs_doc["token_usage"]["total"] == report.total_tokens
    _report(10, f"{len(records)} ledger records conserve totals; "
                "report carries latency/token/dollar categories")
