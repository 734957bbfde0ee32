from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import entry, logon_series, seal
from logaudit import forge
from logaudit.decomposer import SubTask, SubTaskSet
from logaudit.errors import (
    MissingPlaceholder,
    RegistryCorrupt,
    TemplateMismatch,
)
from logaudit.forge import (
    ToolTestCase,
    build_tool_for_subtask,
    builtin_tools,
    drafted_tool,
    load_registry,
    match_builtin,
    save_registry,
    unit_test_tool,
)
from logaudit.gateway import CostLedger, PromptTemplate, ScriptEntry, make_scripted_backend
from logaudit.logstore import ActivityType
from logaudit.plans import parse_plan
from oracles import naive_forge

LOGON_SUBTASK = SubTask(
    id="logon-baseline",
    description="Compare daily logon counts against the user's baseline.",
    activity_types=frozenset({ActivityType.LOGON}),
)

GOOD_PLAN = ("select activity=Logon user={user}\ngroup_by key=user_day\n"
             "aggregate func=count\nbaseline_compare statistic=mean k_sigma=2.0")
COUNT_PLAN = "select activity=Logon user={user} day={day}\naggregate func=count"
BAD_FIELD_PLAN = "select activity=HttpVisit user={user}\nfilter field=urll predicate=contains value=x"

INVALID_PLAN = "aggregate func=count\nselect activity=Logon"

LOG_EXAMPLES = [entry("L1", "u", ActivityType.LOGON)]


@pytest.fixture
def fixture_store(burst_store):
    return burst_store


def _count_cases():
    return [
        ToolTestCase(params={"user": "UX", "day": "2024-01-05"}, expected={"n": 4}),
        ToolTestCase(params={"user": "UX", "day": "2024-01-02"}, expected={"n": 2}),
        ToolTestCase(params={"user": "UY", "day": "2024-01-03"}, expected={"n": 2}),
    ]


@pytest.fixture
def invocations(monkeypatch):
    """Counts the tool invocations the forge makes."""
    calls = []
    real = forge.invoke

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(forge, "invoke", counting)
    return calls


def _build(backend, store, ledger, cases=None, **kwargs):
    return build_tool_for_subtask(
        LOGON_SUBTASK, LOG_EXAMPLES, _count_cases() if cases is None else cases, store.users, backend,
        ledger=ledger, **kwargs,
    )


def _repairs(ledger) -> int:
    return sum(1 for r in ledger.records() if r.stage == "tool-repair")


# --- drafting ---

def test_build_tool_decorates_a_passing_draft(fixture_store, ledger):
    backend = make_scripted_backend([("tool_builder", GOOD_PLAN)])
    cases = [ToolTestCase(params={"user": "UX", "day": "2024-01-05"}, expected={"n": 4})]
    outcome = _build(backend, fixture_store, ledger, cases)
    spec = outcome.spec
    assert not outcome.used_builtin and outcome.error is None
    assert not spec.builtin and spec.test_cases == tuple(cases)
    assert spec.plan == parse_plan(GOOD_PLAN)
    assert spec.params == (("day", "date"), ("user", "principal"))
    assert spec.subtask_id == "logon-baseline"
    assert _repairs(ledger) == 0


def test_build_tool_repair_prompt_shows_the_raw_draft(fixture_store, ledger):
    # The repair entry matches only if the unparseable draft's own text is
    # in the repair prompt.
    backend = make_scripted_backend([
        ("tool_builder", INVALID_PLAN),
        ScriptEntry(["tool_repair", "Previous plan:\n" + INVALID_PLAN], COUNT_PLAN),
    ])
    outcome = _build(backend, fixture_store, ledger)
    assert not outcome.used_builtin
    assert outcome.spec.plan == parse_plan(COUNT_PLAN)


def test_build_tool_repair_prompt_names_the_unknown_field(fixture_store, ledger):
    backend = make_scripted_backend([
        ("tool_builder", BAD_FIELD_PLAN),
        ScriptEntry(["tool_repair", "  - PlanInvalid: unknown field 'urll'"], COUNT_PLAN),
    ])
    assert not _build(backend, fixture_store, ledger).used_builtin


def test_build_tool_repair_prompt_shows_the_failing_plan_and_its_tests(fixture_store, ledger):
    # A draft that parses but fails its cases is shown rendered, with the
    # mismatches as the errors.
    wrong = "select activity=Logon user={user}\naggregate func=count"
    backend = make_scripted_backend([
        ("tool_builder", wrong),
        ScriptEntry(["tool_repair", "Previous plan:\nselect activity=Logon user='{user}'\n",
                     "n: expected 4, got"], COUNT_PLAN),
    ])
    assert not _build(backend, fixture_store, ledger).used_builtin


def test_build_tool_without_log_examples_falls_back(fixture_store, ledger):
    # Nothing to draft from: no chat call, and the built-in is served
    # because it passes the cases.
    backend = make_scripted_backend([("tool_builder", GOOD_PLAN)])
    outcome = build_tool_for_subtask(LOGON_SUBTASK, [], _count_cases(), fixture_store.users, backend,
                                     ledger=ledger)
    assert len(ledger) == 0
    assert outcome.used_builtin
    assert outcome.error == "no log examples of the check's activity types"
    assert outcome.spec.test_cases == tuple(_count_cases())


# --- unit testing ---

def _drafted(plan_text: str, cases=()) -> forge.ToolSpec:
    return drafted_tool(LOGON_SUBTASK, parse_plan(plan_text), cases)


def test_unit_test_passes_on_brute_force_counts(fixture_store, invocations):
    spec = _drafted(COUNT_PLAN, _count_cases())
    assert spec.test_cases == tuple(_count_cases())
    assert unit_test_tool(spec, fixture_store.users, spec.test_cases) == []
    assert len(invocations) == 3


def test_unit_test_records_mismatch(fixture_store):
    cases = [ToolTestCase(params={"user": "UX", "day": "2024-01-05"}, expected={"n": 5})]
    failures = unit_test_tool(_drafted(COUNT_PLAN), fixture_store.users, cases)
    assert len(failures) == 1
    assert "expected 5" in failures[0]
    assert "got 4" in failures[0]


# --- repair ---

def test_repair_fixes_bad_field_on_first_attempt(fixture_store, ledger):
    backend = make_scripted_backend([
        ("tool_builder", BAD_FIELD_PLAN),
        ("tool_repair", COUNT_PLAN),
    ])
    outcome = _build(backend, fixture_store, ledger)
    assert not outcome.used_builtin
    assert outcome.spec.plan == parse_plan(COUNT_PLAN)
    assert outcome.spec.test_cases == tuple(_count_cases())
    assert [r.note for r in ledger.records()] == ["logon-baseline", "logon-baseline#1"]


def test_repair_exhausts_attempts(fixture_store, ledger):
    backend = make_scripted_backend([
        ScriptEntry("tool_builder", BAD_FIELD_PLAN),
        ScriptEntry("tool_repair", BAD_FIELD_PLAN, repeat=True),
    ])
    outcome = _build(backend, fixture_store, ledger, max_repair_attempts=2)
    # exactly two repair prompts were issued, then the built-in took over
    assert _repairs(ledger) == 2
    assert outcome.used_builtin
    assert outcome.error == (
        "ToolIrreparable: tool 'logon-baseline-tool' still failing after 2 repair attempts"
    )


# --- decoration ---

def test_decorate_produces_labeled_sentence(fixture_store):
    decorated = _drafted(GOOD_PLAN)
    assert decorated.name == "logon-baseline-tool"
    assert decorated.doc.startswith("Compare daily logon counts")
    assert "{assessment}" in decorated.output_template
    assert "{mu}" in decorated.output_template
    from logaudit.runtime import invoke

    result = invoke(decorated, {"user": "UX", "day": "2024-01-05"}, fixture_store.users)
    assert "above average" in result.rendered


def test_decorate_rejects_template_with_foreign_placeholder(fixture_store):
    from logaudit.forge import validate_template

    plan = parse_plan(GOOD_PLAN)
    with pytest.raises(TemplateMismatch):
        validate_template("User {user} on host {host}: {n}", plan)


# --- builtins ---

def test_builtins_are_decorated_and_valid():
    tools = builtin_tools()
    assert set(tools) == {
        "logon_frequency", "after_hours_logon", "device_usage_rate",
        "url_legitimacy", "email_keywords", "executable_download",
    }
    for spec in tools.values():
        assert spec.builtin
        assert spec.doc and spec.output_template


def test_match_builtin_keyword_routing():
    download = SubTask("d", "Detect executable payload downloads from websites.",
                       frozenset({ActivityType.HTTP_VISIT}))
    assert match_builtin(download).name == "d-builtin"
    assert "executable_markers" in match_builtin(download).plan.stages[-1].list_name

    url = SubTask("u", "Verify website legitimacy.", frozenset({ActivityType.HTTP_VISIT}))
    assert match_builtin(url).plan.stages[-1].list_name == "untrusted_domains"

    email = SubTask("e", "Screen email tone.", frozenset({ActivityType.EMAIL_SEND}))
    assert match_builtin(email).plan.stages[-1].list_name == "disgruntled_keywords"

    logon = SubTask("l", "Check logon frequency.", frozenset({ActivityType.LOGON}))
    from logaudit.plans import BaselineCompareStage

    assert isinstance(match_builtin(logon).plan.stages[-1], BaselineCompareStage)

    night = SubTask("n", "Check after-hours logon activity.", frozenset({ActivityType.LOGON}))
    assert match_builtin(night).plan.filters()  # the hour filter marks the night variant

    zeek = SubTask("z", "Inspect kerberos anomalies.", frozenset({ActivityType.ZEEK_AUTH}))
    assert match_builtin(zeek) is None


def test_build_tool_falls_back_to_builtin(fixture_store, ledger):
    backend = make_scripted_backend([
        ScriptEntry("tool_builder", BAD_FIELD_PLAN),
        ScriptEntry("tool_repair", BAD_FIELD_PLAN, repeat=True),
    ])
    outcome = build_tool_for_subtask(
        LOGON_SUBTASK, LOG_EXAMPLES, _count_cases(), fixture_store.users, backend, ledger=ledger
    )
    assert outcome.used_builtin
    assert outcome.spec is not None
    assert outcome.spec.subtask_id == "logon-baseline"
    assert outcome.error is not None
    # The built-in passes the configured cases, so it records them.
    assert outcome.spec.test_cases == tuple(_count_cases())


def test_builtin_fallback_records_no_case_it_fails(fixture_store, ledger):
    # A built-in that fails one of the check's cases is not served: the
    # check is unservable, and the error names the cause and the failing case.
    backend = make_scripted_backend([ScriptEntry("tool_builder", BAD_FIELD_PLAN)])
    cases = _count_cases() + [
        ToolTestCase(params={"user": "UX", "day": "2024-01-05"}, expected={"n": 5}),
    ]
    outcome = _build(backend, fixture_store, ledger, cases)
    assert outcome.spec is None and not outcome.used_builtin
    assert outcome.error.startswith("ScriptExhausted: ")
    assert "builtin 'logon-baseline-builtin' fails a case" in outcome.error
    assert "n: expected 5, got 4" in outcome.error


def test_check_without_cases_takes_its_builtin_untested(fixture_store, ledger):
    backend = make_scripted_backend([("tool_builder", GOOD_PLAN)])
    outcome = _build(backend, fixture_store, ledger, cases=[])
    assert len(ledger) == 0
    assert outcome.used_builtin and outcome.spec.test_cases == ()
    assert outcome.error == "no unit-test cases configured"


def test_check_without_a_builtin_is_unservable(fixture_store, ledger):
    zeek = SubTask("z", "Inspect kerberos anomalies.", frozenset({ActivityType.ZEEK_AUTH}))
    outcome = build_tool_for_subtask(zeek, [], _count_cases(), fixture_store.users,
                                     make_scripted_backend([]), ledger=ledger)
    assert outcome.spec is None and not outcome.used_builtin
    assert outcome.error == "no log examples of the check's activity types"


def test_build_tool_falls_back_when_the_backend_fails(fixture_store, ledger):
    # The draft parses but fails its unit tests, and the script has no
    # tool_repair entry: the repair call raises ScriptExhausted.
    backend = make_scripted_backend([
        ScriptEntry("tool_builder", "select activity=Logon user={user}\naggregate func=count"),
    ])
    outcome = build_tool_for_subtask(
        LOGON_SUBTASK, LOG_EXAMPLES, _count_cases(), fixture_store.users, backend, ledger=ledger
    )
    assert outcome.used_builtin
    assert outcome.spec is not None and outcome.spec.builtin
    assert outcome.spec.subtask_id == "logon-baseline"
    assert outcome.error.startswith("ScriptExhausted: ")


def test_build_tool_aborts_on_a_template_error(fixture_store, ledger):
    backend = make_scripted_backend([ScriptEntry("tool_builder", GOOD_PLAN)])
    with pytest.raises(MissingPlaceholder):
        build_tool_for_subtask(
            LOGON_SUBTASK, LOG_EXAMPLES, _count_cases(), fixture_store.users, backend, ledger=ledger,
            draft_template=PromptTemplate.from_text("tool_builder", "{undefined_variable}"),
        )


# --- the user binding ---

# Counts UX's logons on the audited day whoever it is invoked for, so it
# passes a case of UX alone.
UX_PLAN = "select activity=Logon user=UX day={day}\naggregate func=count"
UX_CASES = [ToolTestCase(params={"user": "UX", "day": "2024-01-05"}, expected={"n": 4})]


def test_unbound_draft_is_repaired(fixture_store, ledger):
    backend = make_scripted_backend([
        ("tool_builder", UX_PLAN),
        ScriptEntry(["tool_repair", "select reads user=UX; a served tool must select user={user}"],
                    COUNT_PLAN),
    ])
    outcome = _build(backend, fixture_store, ledger, UX_CASES)
    assert not outcome.used_builtin and outcome.spec.plan == parse_plan(COUNT_PLAN)
    assert _repairs(ledger) == 1


def test_unbound_draft_falls_back_to_the_builtin(fixture_store, ledger):
    backend = make_scripted_backend([
        ("tool_builder", UX_PLAN),
        ScriptEntry("tool_repair", "select activity=Logon day={day}\naggregate func=count",
                    repeat=True),
    ])
    outcome = _build(backend, fixture_store, ledger, UX_CASES, max_repair_attempts=2)
    assert outcome.used_builtin and outcome.spec.plan.select.user == "{user}"
    assert outcome.error.startswith("ToolIrreparable:")
    assert _repairs(ledger) == 2


def test_registry_rejects_an_unbound_tool(tmp_path, fixture_store):
    path = tmp_path / "registry.json"
    save_registry([_drafted(UX_PLAN, UX_CASES)], _subtask_set(), path)
    for store in (None, fixture_store):
        with pytest.raises(RegistryCorrupt, match=r"does not select user=\{user\}"):
            load_registry(path, store=store)


# --- registry ---

def _decorated_specs(fixture_store):
    cases = [ToolTestCase(params={"user": "UX", "day": "2024-01-05"}, expected={"n": 4})]
    return [_drafted(GOOD_PLAN, cases)]


def _subtask_set():
    return SubTaskSet(subtasks=[LOGON_SUBTASK], rounds=1)


def test_registry_round_trip(tmp_path, fixture_store):
    specs = _decorated_specs(fixture_store)
    path = tmp_path / "registry.json"
    save_registry(specs, _subtask_set(), path)
    loaded = load_registry(path)
    assert loaded.warnings == []
    assert len(loaded.tools) == 1
    tool = loaded.tools[0]
    original = specs[0]
    assert tool.name == original.name
    assert tool.plan == original.plan
    assert tool.output_template == original.output_template
    assert tool.params == original.params
    assert tool.test_cases[0].params == original.test_cases[0].params
    assert loaded.subtasks.subtasks[0] == LOGON_SUBTASK
    assert loaded.subtasks.rounds == 1
    # Save the loaded registry again: byte-identical file.
    second = tmp_path / "registry2.json"
    save_registry(loaded.tools, loaded.subtasks, second)
    assert path.read_bytes() == second.read_bytes()


def test_registry_draft_status_is_corrupt(tmp_path, fixture_store):
    path = tmp_path / "registry.json"
    save_registry(_decorated_specs(fixture_store), _subtask_set(), path)
    doc = json.loads(path.read_text())
    doc["tools"][0]["status"] = "draft"
    path.write_text(json.dumps(doc))
    with pytest.raises(RegistryCorrupt):
        load_registry(path)


def test_registry_bad_format_tag(tmp_path):
    path = tmp_path / "registry.json"
    path.write_text(json.dumps({"format": "something/9", "tools": []}))
    with pytest.raises(RegistryCorrupt):
        load_registry(path)


def test_registry_load_warns_on_missing_activity_type(tmp_path, fixture_store):
    path = tmp_path / "registry.json"
    save_registry(_decorated_specs(fixture_store), _subtask_set(), path)
    pruned = seal([entry("H1", "u", ActivityType.HTTP_VISIT, url="http://a.example/")])
    loaded = load_registry(path, store=pruned)
    assert len(loaded.warnings) == 1
    assert "logon-baseline-tool" in loaded.warnings[0]


def test_registry_load_detects_case_drift(tmp_path, fixture_store):
    path = tmp_path / "registry.json"
    save_registry(_decorated_specs(fixture_store), _subtask_set(), path)
    drifted = seal([entry("L1", "UX", ActivityType.LOGON)])
    with pytest.raises(RegistryCorrupt):
        load_registry(path, store=drifted)


def test_registry_verifies_cases_against_store(tmp_path, fixture_store):
    path = tmp_path / "registry.json"
    save_registry(_decorated_specs(fixture_store), _subtask_set(), path)
    loaded = load_registry(path, store=fixture_store)
    assert loaded.warnings == []


# --- the serving rule, against a naive oracle ---

# UX logs on [1, 2, 1, 2, 4] times a day and logs off twice on day 2; UY
# logs on twice a day. The passing plan counts logons and logoffs on the
# audited day, so it passes every pool case; the failing plan counts every
# day's logons and fails each. The built-in counts only logons, so it fails
# the case that counts UX's logoffs.
_RULE_STORE = seal(
    logon_series("UX", [1, 2, 1, 2, 4], prefix="X") + logon_series("UY", [2] * 5, prefix="Y")
    + [entry(f"O{i}", "UX", ActivityType.LOGOFF, day_offset=1, hour=18, minute=i)
       for i in range(2)]
)
_RULE_SUBTASK = SubTask("logons", "Compare daily logon counts against the user's baseline.",
                        frozenset({ActivityType.LOGON, ActivityType.LOGOFF}))
_RULE_REPLIES = {
    "pass": "select activity=Logon,Logoff user={user} day={day}\naggregate func=count",
    "fail": "select activity=Logon user={user}\naggregate func=count",
    "garbled": "I would count the logons.",
    # Passes every case of UX, but reads UX's rows whoever it is invoked for.
    "unbound": "select activity=Logon,Logoff user=UX day={day}\naggregate func=count",
}
_RULE_POOL = [
    ToolTestCase(params={"user": "UX", "day": "2024-01-05"}, expected={"n": 4}),
    ToolTestCase(params={"user": "UY", "day": "2024-01-03"}, expected={"n": 2}),
    ToolTestCase(params={"user": "UX", "day": "2024-01-02"}, expected={"n": 4}),
]


@given(
    replies=st.lists(st.sampled_from(["pass", "fail", "garbled", "unbound", "end"]), max_size=4),
    cases=st.lists(st.sampled_from(_RULE_POOL), max_size=3),
    max_repair_attempts=st.integers(1, 3),
)
@settings(max_examples=150, deadline=None)
def test_forge_serves_only_tools_that_pass(replies, cases, max_repair_attempts):
    script = []
    for kind in replies:
        if kind == "end":
            break
        script.append(ScriptEntry("tool_repair" if script else "tool_builder",
                                  _RULE_REPLIES[kind]))
    ledger = CostLedger()
    outcome = build_tool_for_subtask(
        _RULE_SUBTASK, [entry("L1", "UX", ActivityType.LOGON)], cases, _RULE_STORE.users,
        make_scripted_backend(script), ledger=ledger, max_repair_attempts=max_repair_attempts,
    )

    oracle_replies = [None if kind == "end" else
                      parse_plan(_RULE_REPLIES[kind]) if kind != "garbled" else _RULE_REPLIES[kind]
                      for kind in replies]
    builtin = match_builtin(_RULE_SUBTASK)
    served, asks = naive_forge(oracle_replies, cases, _RULE_STORE, builtin.plan,
                               max_repair_attempts)
    assert (outcome.spec is None) == (served is None)
    assert outcome.used_builtin == (served == "builtin")
    assert sum(1 for r in ledger.records() if r.stage in ("tool-draft", "tool-repair")) == asks
    if outcome.spec is not None:
        assert outcome.spec.builtin == (served == "builtin")
        if not outcome.spec.builtin:
            assert outcome.spec.plan == served
        assert unit_test_tool(outcome.spec, _RULE_STORE.users, cases) == []
        assert outcome.spec.test_cases == tuple(cases)
