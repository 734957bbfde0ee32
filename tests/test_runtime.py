from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import entry, seal
from logaudit.errors import (
    InsufficientHistory,
    MalformedUrl,
    ParamMissing,
    PlanInvalid,
    UnknownList,
)
from logaudit.forge import ToolSpec, builtin_tools
from logaudit.logstore import ActivityType
from logaudit.plans import SelectStage, free_params, parse_plan
from logaudit.runtime import (
    ListDef,
    daily_counts,
    extract_domain,
    invoke,
    select_entries,
)
from oracles import naive_plan_eval, naive_select

DENY = ListDef("untrusted_domains", "domain_deny", frozenset({"wikileaks.org"}))
KEYWORDS = ListDef("disgruntled_keywords", "keyword", frozenset({"resign", "unfair"}))
LISTS = {"untrusted_domains": DENY, "disgruntled_keywords": KEYWORDS}


def _logon_tool():
    return builtin_tools()["logon_frequency"]


# --- invoke: baseline comparison ---

def test_logon_burst_is_suspicious(burst_store):
    # History [1,2,1,2] excluding the audited day: mean 1.5, std 0.5.
    # |4 - 1.5| = 2.5 > 2 * 0.5 -> suspicious, "above average".
    result = invoke(_logon_tool(), {"user": "UX", "day": "2024-01-05"}, burst_store.users)
    assert result.verdict_hint == "suspicious"
    assert result.values["n"] == 4
    assert abs(float(result.values["mu"]) - 1.5) <= 1e-9
    assert abs(float(result.values["sigma"]) - 0.5) <= 1e-9
    assert result.values["assessment"] == "above average"
    assert "above average" in result.rendered
    assert len(result.evidence) == 4


def test_exactly_mean_activity_is_normal(burst_store):
    result = invoke(_logon_tool(), {"user": "UY", "day": "2024-01-03"}, burst_store.users)
    assert result.verdict_hint == "normal"
    assert result.values["assessment"] == "within normal range"
    assert result.evidence == ()


def test_boundary_deviation_is_not_suspicious():
    # History [1,3] -> mean 2, std 1; current 4 gives |4-2| = 2 == 2*1,
    # which is not strictly greater, so it stays normal.
    entries = []
    for day, count in enumerate([1, 3, 4]):
        for j in range(count):
            entries.append(entry(f"B{day}{j}", "u", ActivityType.LOGON,
                                 day_offset=day, hour=8 + j))
    store = seal(entries)
    result = invoke(_logon_tool(), {"user": "u", "day": "2024-01-03"}, store.users)
    assert result.verdict_hint == "normal"


def test_baseline_over_zero_history_raises(burst_store):
    single = seal([entry("S1", "solo", ActivityType.LOGON)])
    with pytest.raises(InsufficientHistory):
        invoke(_logon_tool(), {"user": "solo", "day": "2024-01-01"}, single.users)


def test_param_missing(burst_store):
    with pytest.raises(ParamMissing):
        invoke(_logon_tool(), {"user": "UX"}, burst_store.users)


# --- invoke: lookups ---

def test_denylist_lookup_flags_visit(burst_store):
    tool = builtin_tools()["url_legitimacy"]
    result = invoke(tool, {"user": "UX"}, burst_store.users, LISTS)
    assert result.verdict_hint == "suspicious"
    assert result.values["n_matched"] == 1
    assert result.values["matched"] == "wikileaks.org"
    assert result.evidence == ("WEB-1",)


def test_denylist_lookup_clean_user(burst_store):
    tool = builtin_tools()["url_legitimacy"]
    result = invoke(tool, {"user": "UY"}, burst_store.users, LISTS)
    assert result.verdict_hint == "normal"
    assert result.values["n_matched"] == 0
    assert result.values["matched"] == "(none)"


def test_keyword_lookup_on_email_body():
    store = seal([
        entry("M1", "u", ActivityType.EMAIL_SEND, body="I may resign over this unfair review"),
        entry("M2", "u", ActivityType.EMAIL_SEND, day_offset=1, body="weekly status"),
    ])
    tool = builtin_tools()["email_keywords"]
    result = invoke(tool, {"user": "u"}, store.users, LISTS)
    assert result.verdict_hint == "suspicious"
    assert result.values["n_matched"] == 1
    assert "resign" in str(result.values["matched"])


def test_lookup_unknown_list(burst_store):
    tool = builtin_tools()["url_legitimacy"]
    with pytest.raises(UnknownList):
        invoke(tool, {"user": "UX"}, burst_store.users, {})


def test_empty_selection_yields_n_zero(burst_store):
    tool = builtin_tools()["email_keywords"]
    result = invoke(tool, {"user": "UX"}, burst_store.users, LISTS)
    assert result.values["n"] == 0
    assert result.verdict_hint == "normal"


def test_invoke_deterministic(burst_store):
    tool = builtin_tools()["logon_frequency"]
    first = invoke(tool, {"user": "UX", "day": "2024-01-05"}, burst_store.users)
    second = invoke(tool, {"user": "UX", "day": "2024-01-05"}, burst_store.users)
    assert first.values == second.values
    assert first.rendered == second.rendered
    assert first.evidence == second.evidence


# --- invoke: baseline statistics ---

def test_baseline_flat_history_has_zero_sigma():
    store = seal(sum(([entry(f"F{d}{j}", "u", ActivityType.LOGON, day_offset=d, hour=8 + j)
                       for j in range(2)] for d in range(3)), []))
    result = invoke(_logon_tool(), {"user": "u", "day": "2024-01-03"}, store.users)
    assert result.values["mu"] == 2.0
    assert result.values["sigma"] == 0.0
    assert result.verdict_hint == "normal"


def test_baseline_sigma_is_population_std():
    # History [0, 4] (day 1 has only an email): population mean 2, std 2;
    # the sample std would be 2.83.
    store = seal([entry("P-E", "u", ActivityType.EMAIL_SEND)]
                 + [entry(f"P{j}", "u", ActivityType.LOGON, day_offset=1, hour=8 + j)
                    for j in range(4)]
                 + [entry("P-A", "u", ActivityType.LOGON, day_offset=2)])
    result = invoke(_logon_tool(), {"user": "u", "day": "2024-01-03"}, store.users)
    assert result.values["mu"] == 2.0
    assert result.values["sigma"] == 2.0


def test_baseline_zero_fills_inactive_days():
    # Logons on the first and the audited (seventh) day only: the five
    # empty days between count as zeros, so the history mean is 1/6.
    store = seal([entry("Z1", "u", ActivityType.LOGON),
                  entry("Z7", "u", ActivityType.LOGON, day_offset=6)])
    result = invoke(_logon_tool(), {"user": "u", "day": "2024-01-07"}, store.users)
    assert abs(float(result.values["mu"]) - 1 / 6) <= 1e-4


def test_daily_counts_zero_fill():
    counts = daily_counts([entry("D1", "u", ActivityType.LOGON, day_offset=1)],
                          ("2024-01-01", "2024-01-03"))
    assert counts == {"2024-01-01": 0, "2024-01-02": 1, "2024-01-03": 0}
    # A window across a month's end steps through the calendar.
    assert list(daily_counts([], ("2024-02-28", "2024-03-01"))) == \
        ["2024-02-28", "2024-02-29", "2024-03-01"]


# --- URL domains in lookups ---

def _visit_lookup(url: str, lists=LISTS):
    store = seal([entry("V1", "u", ActivityType.HTTP_VISIT, url=url)])
    return invoke(builtin_tools()["url_legitimacy"], {"user": "u"}, store.users, lists)


def test_lookup_denied_domain():
    result = _visit_lookup("http://wikileaks.org/xxx.php")
    assert result.verdict_hint == "suspicious"
    assert result.evidence == ("V1",)


def test_lookup_subdomain_and_port():
    result = _visit_lookup("https://files.wikileaks.org:8443/a")
    assert result.verdict_hint == "suspicious"
    assert result.values["matched"] == "files.wikileaks.org"
    assert _visit_lookup("http://notwikileaks.org/a").values["n_matched"] == 0


def test_lookup_allow_list_match_is_normal():
    allow = {"untrusted_domains": ListDef("untrusted_domains", "domain_allow",
                                          frozenset({"corp.example"}))}
    result = _visit_lookup("http://docs.corp.example/x", allow)
    assert result.values["n_matched"] == 1
    assert result.verdict_hint == "normal"


def test_lookup_unlisted_domain_is_normal():
    result = _visit_lookup("http://neutral.example.net/")
    assert result.values["n_matched"] == 0
    assert result.verdict_hint == "normal"


def test_extract_domain_malformed():
    with pytest.raises(MalformedUrl):
        extract_domain("not a url")
    with pytest.raises(MalformedUrl):
        extract_domain("")
    # A lookup skips a URL with no host instead of failing.
    assert _visit_lookup("not a url").values["n_matched"] == 0


def test_extract_domain_schemeless():
    assert extract_domain("www.example.com/path") == "www.example.com"


# --- oracle spot checks (the big equivalence suite lives in acceptance) ---

def test_invoke_matches_naive_oracle_on_counts(burst_store):
    plan = parse_plan("select activity=Logon user={user} day={day}\naggregate func=count")
    spec = ToolSpec(name="t", subtask_id="s", plan=plan, params=free_params(plan),
                    doc="count logons")
    params = {"user": "UX", "day": "2024-01-05"}
    mine = invoke(spec, params, burst_store.users)
    theirs = naive_plan_eval(burst_store, plan, params)
    assert mine.values["n"] == theirs["n"] == 4


# --- select: one user's sequence versus a full scan ---

_USERS = ("u1", "u2", "u3", "")
_TYPES = (ActivityType.LOGON, ActivityType.HTTP_VISIT, ActivityType.FILE_OP)
_DAYS = ("2024-01-01", "2024-01-02", "2024-01-03", "2024-01-04", "{day}")


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.tuples(st.sampled_from(_USERS), st.sampled_from(_TYPES),
                            st.integers(0, 3), st.integers(0, 3)), max_size=40),
    types=st.lists(st.sampled_from(_TYPES), min_size=1, max_size=4),
    user=st.sampled_from(("{user}", "u1", "nobody")),
    user_param=st.sampled_from(("u1", "u2", "u3", "nobody")),
    day=st.one_of(st.none(), st.sampled_from(_DAYS)),
    day_from=st.one_of(st.none(), st.sampled_from(_DAYS)),
    day_to=st.one_of(st.none(), st.sampled_from(_DAYS)),
    day_param=st.sampled_from(_DAYS[:-1]),
)
def test_select_matches_naive_scan(rows, types, user, user_param,
                                   day, day_from, day_to, day_param):
    # Few hours, so that equal timestamps are common.
    store = seal([entry(f"E{i:02d}", u, t, day_offset=d, hour=h)
                  for i, (u, t, d, h) in enumerate(rows)])
    select = SelectStage(tuple(types), user=user, day=day, day_from=day_from, day_to=day_to)
    params = {"user": user_param, "day": day_param}
    expected = [e.entry_id for e in naive_select(store, select, params)]
    sequence = store.users.get(user_param if user == "{user}" else user)
    if sequence is None:
        assert expected == []
        return
    got = select_entries(sequence, select, params)
    assert [e.entry_id for e in got] == expected


def test_select_naming_no_user_is_invalid(burst_store):
    plan = parse_plan("select activity=Logon\naggregate func=count")
    spec = ToolSpec(name="t", subtask_id="s", plan=plan, params=free_params(plan), doc="count")
    with pytest.raises(PlanInvalid, match="names no user"):
        invoke(spec, {}, burst_store.users)


_URLS = st.sampled_from(["http://Example.com:8080/x", "www.example.com/a b", "no-dot", "",
                         "   ", "https://user@host.example.org/", "//a.b", "http://:80/"])


@given(st.lists(_URLS | st.text(max_size=24), min_size=1, max_size=8))
@example([".[", "http://[::1/x", "www.a]b.example"])
@settings(max_examples=150, deadline=None)
def test_memoized_domain_extraction_matches_the_uncached_one(urls):
    # Each URL twice, so the second call may come from the cache.
    for url in urls + urls:
        outcomes = []
        for extract in (extract_domain, extract_domain.__wrapped__):
            try:
                outcomes.append(("domain", extract(url)))
            except MalformedUrl as exc:
                outcomes.append(("raises", str(exc)))
        assert outcomes[0] == outcomes[1]
