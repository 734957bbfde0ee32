from __future__ import annotations

import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import entry, evaluate_detection, seal, simple_subtasks
from logaudit import executor, pipeline
from logaudit.cli import main as cli_main
from logaudit.config import load_config, load_templates
from logaudit.debate import DebateConfig
from logaudit.decomposer import SubTask, SubTaskSet
from logaudit.forge import ToolSpec, builtin_tools
from logaudit.gateway import CostLedger, ScriptEntry, make_scripted_backend
from logaudit.logstore import ActivityType
from logaudit.pipeline import (
    NO_RELEVANT_ACTIVITY,
    VARIANTS,
    DetectContext,
    context_from_config,
    detect_all,
    detect_user,
)
from logaudit.plans import free_params, parse_plan
from logaudit.runtime import ListDef
from logaudit.synthetic import generate_demo


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline-demo")
    generate_demo(root)
    config_path = root / "config.json"
    assert cli_main(["ingest", "--config", str(config_path)]) == 0
    assert cli_main(["forge", "--config", str(config_path)]) == 0
    return root, load_config(config_path)


def _run(bundle, tag):
    _root, config = bundle
    ctx = context_from_config(config, CostLedger(), tag)
    metrics, predictions = evaluate_detection(ctx)
    return metrics, ctx.ledger, predictions


def test_variant_table_is_exhaustive():
    assert set(VARIANTS) == {"original", "vanilla", "no_cot", "no_decomp",
                             "no_tools", "no_emad"}
    for behavior in VARIANTS.values():
        assert behavior.description


def test_vanilla_is_blind_to_tool_evidence(bundle):
    metrics, ledger, predictions = _run(bundle, "vanilla")
    # The single-prompt variant never sees tool output, so the scripted
    # backend has nothing to key on and both insiders are missed.
    assert metrics.dr == 0.0
    assert metrics.acc == 48 / 50
    stages = {r.stage for r in ledger.records()}
    assert stages == {"vanilla"}
    assert len(ledger) == 50


def test_one_shot_variant_still_catches_insiders(bundle):
    metrics, ledger, _ = _run(bundle, "no_cot")
    assert metrics.dr == 1.0
    assert metrics.fpr == 0.0
    stages = {r.stage for r in ledger.records()}
    assert "one-shot" in stages
    assert "subtask" not in stages


@pytest.mark.parametrize("variant", ["original", "no_cot", "no_decomp"])
def test_each_tool_runs_once_per_user_and_params(bundle, monkeypatch, variant):
    # Both executors read the same tool outcomes, so no (tool, params) pair
    # is invoked twice.
    calls = []
    real = executor.invoke

    def counting(spec, params, *args):
        calls.append((spec.name, tuple(sorted(params.items()))))
        return real(spec, params, *args)

    monkeypatch.setattr(executor, "invoke", counting)
    _run(bundle, variant)
    assert calls and len(calls) == len(set(calls))


@pytest.mark.parametrize("variant", ["original", "no_cot", "no_decomp"])
def test_tool_day_binds_to_the_checks_busiest_day(monkeypatch, variant):
    """UX logs on 3 times on 2024-01-05, but 2024-01-03 (1 logon, 4 logoffs)
    is its busiest day for the check's types: every variant binds the
    Logon tool's day to the check's busiest day."""
    logon, logoff = ActivityType.LOGON, ActivityType.LOGOFF
    day_types = [[logon, logoff], [logon, logoff], [logon] + [logoff] * 4,
                 [logon, logoff], [logon] * 3]
    store = seal([entry(f"S{day}-{n}", "UX", activity, day_offset=day, hour=8 + n)
                  for day, types in enumerate(day_types) for n, activity in enumerate(types)])
    check = SubTask(id="sessions", description="Compare logon sessions against the baseline.",
                    activity_types=frozenset({logon, logoff}))
    plan = parse_plan("select activity=Logon user={user} day={day}\naggregate func=count")
    spec = ToolSpec(name="day-logons", subtask_id="sessions", plan=plan,
                    params=free_params(plan), output_template="n={n}")
    backend = make_scripted_backend([
        ScriptEntry("[stage: subtask]", "Finding: fine\nSuspicious: no", repeat=True),
        ScriptEntry("one_shot", "Basis of Judgment: fine\nDecision: Benign", repeat=True),
        ScriptEntry("[stage: merge]", "Basis of Judgment: fine\nDecision: Benign", repeat=True),
    ])
    days = []
    real = executor.invoke

    def recording(spec, params, *args):
        days.append(params["day"])
        return real(spec, params, *args)

    monkeypatch.setattr(executor, "invoke", recording)
    ctx = DetectContext(SubTaskSet([check]), {"sessions": spec}, store, backend, CostLedger(),
                        variant=VARIANTS[variant])
    detect_user(store.users["UX"], ctx)
    assert days == ["2024-01-03"]


def test_no_decomp_single_generic_check(bundle):
    metrics, ledger, predictions = _run(bundle, "no_decomp")
    assert metrics.dr == 1.0
    assert metrics.fpr == 0.0
    # One check per executor per user instead of seven.
    subtask_calls = [r for r in ledger.records() if r.stage == "subtask"]
    assert len(subtask_calls) == 2 * 50
    assert predictions["KEYL0001"].anomalies


def test_parallel_detection_matches_serial(bundle):
    _root, config = bundle

    def conclusions(parallelism):
        ctx = context_from_config(config, CostLedger(), "original")
        outcomes = detect_all(ctx, parallelism=parallelism)
        return {u: (f.verdict, tuple(sorted(f.anomalies))) for u, (f, _t) in outcomes.items()}

    assert conclusions(1) == conclusions(4)


def _config_with_subtask_override(root, tmp_path, text: str):
    """A copy of the demo config, in tmp_path, with the executor_subtask
    prompt replaced by ``text``."""
    override = tmp_path / "subtask_prompt.txt"
    override.write_text(text, encoding="utf-8")
    doc = json.loads((root / "config.json").read_text())
    doc["templates"] = {"executor_subtask": str(override)}
    doc["output_dir"] = str(tmp_path / "out")
    doc["store_path"] = str(root / "out" / "store.json")
    doc["registry_path"] = str(root / "out" / "registry.json")
    doc["backend"]["script"] = str(root / "script.json")
    for name, item in doc["lists"].items():
        item["path"] = str(root / "lists" / f"{name}.txt")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc))
    return config_path


def test_template_override_from_config(bundle, tmp_path):
    root, *_ = bundle
    config_path = _config_with_subtask_override(
        root, tmp_path,
        "[stage: subtask] OVERRIDDEN auditor reviewing {user}.\n"
        "Check: {subtask_description}\n"
        "Tool output: {tool_output}\n"
        "Tool signal: {tool_signal}\n"
        "Excerpt ({excerpt_count}):\n{activity_excerpt}\n"
        "Reply with Finding:/Suspicious:/Flagged: lines.\n",
    )

    assert cli_main(["detect", "--config", str(config_path)]) == 0
    conclusions = json.loads((tmp_path / "out" / "conclusions.json").read_text())
    malicious = sorted(u for u, i in conclusions["users"].items()
                       if i["verdict"] == "malicious")
    assert malicious == ["KEYL0001", "LEAK0001"]

    config = load_config(config_path)
    templates = load_templates(config)
    assert "OVERRIDDEN" in templates["executor_subtask"].system_text


def test_context_from_config_applies_template_overrides(bundle, tmp_path):
    # The demo script flags a check only on "Tool signal: suspicious"; a
    # subtask prompt that hides the signal must leave both insiders unflagged.
    root, *_ = bundle
    config_path = _config_with_subtask_override(
        root, tmp_path,
        "[stage: subtask] Auditor reviewing {user}.\n"
        "Check: {subtask_description}\n"
        "Tool output: {tool_output}\n"
        "Excerpt ({excerpt_count}):\n{activity_excerpt}\n"
        "Reply with Finding:/Suspicious:/Flagged: lines.\n",
    )
    ctx = context_from_config(load_config(config_path), CostLedger(), "original")
    metrics, _ = evaluate_detection(ctx)
    assert metrics.counts.tp == 0
    assert metrics.dr == 0.0


def test_no_tools_misses_burst_when_flags_depend_on_tool_phrase(burst_store):
    """Script flags only when the tool output literally says "above average";
    without the tool the baseline is unavailable and the burst user is missed."""
    script = [
        ScriptEntry(["[stage: subtask]", "above average"],
                    "Finding: Logs in 4 times, above average.\nSuspicious: yes", repeat=True),
        ScriptEntry("[stage: subtask]", "Finding: fine\nSuspicious: no", repeat=True),
        ScriptEntry(["[stage: merge]", "verdict: malicious"],
                    "Basis of Judgment: evidence\nDecision: Malicious", repeat=True),
        ScriptEntry("[stage: merge]", "Basis of Judgment: none\nDecision: Benign", repeat=True),
    ]
    lists = {"untrusted_domains": ListDef("untrusted_domains", "domain_deny", frozenset())}

    def detect(with_tools: bool) -> str:
        backend = make_scripted_backend(script)
        tools = {
            "logon-baseline": builtin_tools()["logon_frequency"] if with_tools else None,
            "website-legitimacy": None,
        }
        ctx = DetectContext(simple_subtasks(), tools, burst_store, backend, CostLedger(),
                            lists=lists, debate=DebateConfig(n_debate=3))
        final, _ = detect_user(burst_store.users["UX"], ctx)
        return final.verdict

    assert detect(with_tools=True) == "malicious"
    assert detect(with_tools=False) == "benign"


def test_template_override_unknown_name(tmp_path, bundle):
    root, *_ = bundle
    doc = json.loads((root / "config.json").read_text())
    doc["templates"] = {"not_a_template": "x.txt"}
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps(doc))
    assert cli_main(["ingest", "--config", str(config_path)]) == 1


@pytest.mark.parametrize("variant", ["original", "no_cot"])
def test_tool_with_an_unbindable_param_is_not_invocable(burst_store, variant):
    """Only ``user`` and ``day`` bind; a tool with any other parameter is
    reported as not invocable, by the per-check and the one-step paths alike."""
    plan = parse_plan("select activity=Logon user={user} day={day}\n"
                      "filter field=host predicate=equals value={host}\naggregate func=count")
    spec = ToolSpec(name="host-logons", subtask_id="logon-baseline", plan=plan,
                    params=free_params(plan), output_template="n={n}")
    not_invocable = "tool not invocable"
    backend = make_scripted_backend([
        ScriptEntry("[stage: subtask]", "Finding: fine\nSuspicious: no", repeat=True),
        # The one-step prompt must carry the note, or the script runs out.
        ScriptEntry(["one_shot", f"[host-logons] ({not_invocable}"],
                    "Basis of Judgment: fine\nDecision: Benign", repeat=True),
        ScriptEntry("[stage: merge]", "Basis of Judgment: fine\nDecision: Benign", repeat=True),
    ])
    ctx = DetectContext(simple_subtasks(), {"logon-baseline": spec, "website-legitimacy": None},
                        burst_store, backend, CostLedger(), variant=VARIANTS[variant])
    final, transcript = detect_user(burst_store.users["UX"], ctx)
    assert final.verdict == "benign"
    if variant == "original":
        opening = transcript.rounds[0]
        for side in (opening.a, opening.b):
            assert side.results[0].tool_rendered.startswith(f"({not_invocable}")


_VIEW_TYPES = (ActivityType.LOGON, ActivityType.LOGOFF, ActivityType.HTTP_VISIT)
_DAY_LOGONS = parse_plan("select activity=Logon user={user} day={day}\naggregate func=count")


def _naive_prepared_checks(ctx: DetectContext, user) -> list[executor.PreparedCheck]:
    """Each check prepared on its own, with no view shared between checks."""
    one_by_one = ctx.variant.per_check_cot and ctx.variant.use_decomposition
    checks = []
    for subtask in ctx.subtasks.subtasks:
        focus = executor.select_focus_day(user, subtask)
        spec = ctx.tools.get(subtask.id) if ctx.variant.use_tools else None
        if spec is None:
            tool = (executor.TOOL_UNAVAILABLE, None)
        elif focus is None and not one_by_one:
            tool = (NO_RELEVANT_ACTIVITY, None)
        else:
            tool = executor.bind_and_invoke(spec, user, focus, ctx.lists)
        checks.append(executor.prepare_check(subtask, user, focus, tool, ctx.excerpt_budget)
                      if one_by_one else executor.PreparedCheck(subtask, focus, tool))
    return checks


@given(
    rows=st.lists(st.tuples(st.sampled_from(_VIEW_TYPES), st.integers(0, 4),
                            st.integers(0, 23)), min_size=1, max_size=40),
    type_sets=st.lists(st.frozensets(st.sampled_from(_VIEW_TYPES), min_size=1),
                       min_size=1, max_size=3, unique=True),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_prepared_checks_match_checks_prepared_one_by_one(rows, type_sets, data):
    # Checks drawn from at most three type sets, so most share one.
    store = seal([entry(f"E{i:02d}", "U", activity, day_offset=day, hour=hour)
                  for i, (activity, day, hour) in enumerate(rows)])
    picks = data.draw(st.lists(st.sampled_from(type_sets), min_size=1, max_size=6))
    subtasks = [SubTask(f"c{i}", f"check {i}", types) for i, types in enumerate(picks)]
    tools = {s.id: data.draw(st.sampled_from([None, ToolSpec(
        name=f"logons-{s.id}", subtask_id=s.id, plan=_DAY_LOGONS,
        params=free_params(_DAY_LOGONS), output_template="n={n}")])) for s in subtasks}
    variant = data.draw(st.sampled_from(sorted(t for t, v in VARIANTS.items() if not v.agentless)))
    ctx = DetectContext(SubTaskSet(subtasks), tools, store, make_scripted_backend([]),
                        CostLedger(), excerpt_budget=data.draw(st.integers(1, 12)),
                        variant=VARIANTS[variant])
    user = store.users["U"]
    with mock.patch.object(pipeline, "select_focus_day", wraps=executor.select_focus_day) as focus:
        prepared = pipeline._prepared_checks(ctx, user)
    assert prepared == _naive_prepared_checks(ctx, user)
    assert focus.call_count == len(set(picks))
