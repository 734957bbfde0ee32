"""Seeded input generator for the benchmark workloads.

    python3 perfbench/generate.py --workload fleet-history --seed 7 --out DIR

Writes a complete run tree into DIR: the CERT-style CSVs and labels under
``data/``, the allow/deny/keyword lists under ``lists/``, the scripted
backend's ``script.json`` (or, for live-latency, the HTTP stub's
``replies.json``), ``config.json`` and ``expected.json``.

Only the documented file formats are produced; nothing here imports the
program. ``expected.json`` is the generator's own record of what it wrote
(row count, insiders and their malicious entry ids, the debate each
contested user is scripted to have, the forge repairs) and is what the
benchmark's correctness checks compare against. The same seed always gives
the same tree. The seed moves identities, days, minutes, hosts and wording,
never the amount of work: row counts, the number of users of each profile,
the number of contested users per debate outcome and the token counts of
every text are fixed per workload.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import re
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from pathlib import Path

CHECKS = [
    # (description, types, context, draft-prompt marker, plan)
    ("Compare each user's daily logon count against their personal baseline.",
     "Logon, Logoff", "per-day logon counts, baseline mean and deviation",
     "daily logon count",
     "select activity=Logon user={user}\ngroup_by key=user_day\n"
     "aggregate func=count\nbaseline_compare statistic=mean k_sigma=2.0"),
    ("Verify the legitimacy of visited website domains.",
     "HttpVisit", "visited domains, domain deny list",
     "legitimacy of visited",
     "select activity=HttpVisit user={user}\nlookup list=untrusted_domains field=url"),
    ("Review visited website content for threatening material.",
     "HttpVisit", "page content keywords",
     "website content for threatening",
     "select activity=HttpVisit user={user}\nlookup list=threat_keywords field=content"),
    ("Detect downloads of executable payloads from websites.",
     "HttpVisit", "download markers in URLs",
     "downloads of executable payloads",
     "select activity=HttpVisit user={user}\nlookup list=executable_markers field=url"),
    ("Compare each user's daily removable device usage against their baseline.",
     "DeviceConnect, DeviceDisconnect", "per-day device connections",
     "daily removable device",
     "select activity=DeviceConnect user={user}\ngroup_by key=user_day\n"
     "aggregate func=count\nbaseline_compare statistic=mean k_sigma=2.0"),
    ("Screen outgoing email content for disgruntlement or data theft.",
     "EmailSend", "email bodies, keyword list",
     "outgoing email content",
     "select activity=EmailSend user={user}\nlookup list=disgruntled_keywords field=body"),
    ("Review file operations for executable or sensitive files.",
     "FileOp", "filenames and extensions",
     "file operations for executable",
     "select activity=FileOp user={user}\nfilter field=filename predicate=matches_glob "
     "value=*.exe\naggregate func=count"),
]
LOGON_CHECK, URL_CHECK, CONTENT_CHECK, EXE_CHECK, DEVICE_CHECK, EMAIL_CHECK, FILE_CHECK = range(7)

# fleet-history's forge: the logon draft counts the wrong activity and is
# repaired on the first attempt; every device draft and repair drops all
# rows, so that check ends on the built-in device tool.
BROKEN_LOGON_PLAN = CHECKS[LOGON_CHECK][4].replace("activity=Logon", "activity=Logoff")
BROKEN_DEVICE_PLAN = ("select activity=DeviceConnect user={user}\n"
                      "filter field=hour predicate=in_list value=23\ngroup_by key=user_day\n"
                      "aggregate func=count\nbaseline_compare statistic=mean k_sigma=2.0")

LISTS = {
    "untrusted_domains": ("domain_deny", ["wikileaks.org", "pastebin.example.net"]),
    "trusted_domains": ("domain_allow", ["docs.corp.example", "intranet.corp.example",
                                         "news.example.com"]),
    "threat_keywords": ("keyword", ["keylog", "exploit", "crack"]),
    "disgruntled_keywords": ("keyword", ["resign", "unfair", "irreplaceable", "dissatisf"]),
    "executable_markers": ("keyword", [".exe", ".msi", ".scr"]),
}
TRUSTED = LISTS["trusted_domains"][1]
LEAK_URLS = ["http://wikileaks.org/drop/xxx.php", "http://pastebin.example.net/raw/a1b2"]
KEYLOGGER_URL = "http://free-keytools.example.net/tools/keylogger.exe"
KEYLOGGER_CONTENT = "keylogger download page free keylogging tools"
DISGRUNTLED_BODY = "I am irreplaceable here and this treatment is unfair; I may resign soon."
# Equal word counts, so prompt sizes do not depend on the seed.
PAGE_CONTENTS = ["quarterly planning notes and schedules", "team roster and meeting minutes",
                 "project status board and reviews", "benefits handbook and policy pages"]
EMAIL_BODIES = ["weekly status update attached; all milestones on track",
                "meeting notes attached; next review is on schedule",
                "draft budget attached; comments welcome by friday noon"]
FILE_CONTENT = "routine weekly report text"

HEADERS = {
    "logon": ["id", "date", "user", "pc", "activity"],
    "device": ["id", "date", "user", "pc", "activity"],
    "http": ["id", "date", "user", "pc", "url", "content"],
    "email": ["id", "date", "user", "pc", "to", "cc", "bcc", "from", "size",
              "attachments", "content"],
    "file": ["id", "date", "user", "pc", "filename", "content"],
}

N_DEBATE = 3
MAX_REPAIR_ATTEMPTS = 3

# fleet-history's contested users, in outcome classes:
# (count, insider, {round: (A, B)}).
# Executor A opens malicious and B benign. A benign user's A audit flags one
# routine file operation; an insider's B audit misses the deny-listed visit.
# Listed rounds give both executors' new decisions; unlisted rounds repeat
# the previous ones.
# A benign user cannot end at the round cap: without agreement the merged
# anomaly set is the union of both sides, which is non-empty, so a user who
# hits the cap is judged malicious. The cap-hitting users are insiders.
CONTESTED = {
    "benign-r1": (3, False, {1: ("benign", "benign")}),
    "benign-r2": (4, False, {2: ("benign", "benign")}),
    "benign-r3": (3, False, {3: ("benign", "benign")}),
    "insider-r2": (4, True, {2: ("malicious", "malicious")}),
    "insider-cap": (3, True, {}),
}

WORKLOADS = {
    # users, days, debate classes, backend
    "fleet-history": dict(users=200, days=30, contested=True, backend="scripted"),
    "live-latency": dict(users=50, days=14, contested=False, backend="http"),
}


def slugify(text: str, max_words: int = 6) -> str:
    """Check id rule of the decomposer: the first six lower-cased words."""
    words = re.sub(r"[^a-z0-9]+", " ", text.lower()).split()[:max_words]
    return "-".join(words) or "subtask"


CHECK_IDS = [slugify(c[0]) for c in CHECKS]


@dataclass
class Profile:
    user: str
    pc: str
    rate: int               # logons per day
    device: bool            # one connect/disconnect pair per day
    minutes: list[int]
    kind: str = "benign"    # benign | leak | keylog
    contested: str | None = None


@dataclass
class Corpus:
    rows: dict[str, list[list[str]]] = field(
        default_factory=lambda: {k: [] for k in HEADERS})
    seq: int = 0
    malicious: dict[str, list[str]] = field(default_factory=dict)
    id_ranges: dict[str, list[int]] = field(default_factory=dict)

    def add(self, source: str, user: str, day: date, hour: int, minute: int,
            *fields: str) -> str:
        self.seq += 1
        entry_id = f"{{S{self.seq:07d}}}"
        ts = datetime(day.year, day.month, day.day, hour, minute).strftime("%m/%d/%Y %H:%M:%S")
        self.rows[source].append([entry_id, ts, user, *fields])
        return entry_id


def _write_user(corpus: Corpus, p: Profile, days: list[date], special: date,
                rng: random.Random) -> dict[str, str]:
    """All rows of one user, consecutive ids; returns ids of note by role."""
    first = corpus.seq + 1
    notes: dict[str, str] = {}
    bad = corpus.malicious.setdefault(p.user, []) if p.kind != "benign" else []
    m = p.minutes
    for day in days:
        on_special = day == special
        if p.kind == "keylog" and on_special:
            for hour, minute in ((6, 12), (8, m[0]), (12, 40), (13, m[1]), (20, 55)):
                bad.append(corpus.add("logon", p.user, day, hour, minute, p.pc, "Logon"))
        else:
            corpus.add("logon", p.user, day, 8, m[0], p.pc, "Logon")
            if p.rate == 2:
                corpus.add("logon", p.user, day, 13, m[1], p.pc, "Logon")
        corpus.add("logon", p.user, day, 17, 30 + m[2] % 20, p.pc, "Logoff")
        page = rng.randrange(10, 100)
        corpus.add("http", p.user, day, 10, m[3], p.pc,
                   f"http://{rng.choice(TRUSTED)}/pages/item-{page}.html",
                   rng.choice(PAGE_CONTENTS))
        if p.device:
            for hour, minute, kind in ((9, 15, "Connect"), (16, 45, "Disconnect")):
                corpus.add("device", p.user, day, hour, minute, p.pc, kind)
            if p.kind == "keylog":
                for hour, minute, kind in ((15, 5, "Connect"), (15, 35, "Disconnect")):
                    corpus.add("device", p.user, day, hour, minute, p.pc, kind)
        if p.kind == "keylog" and on_special:
            bad.append(corpus.add("http", p.user, day, 12, 58, p.pc, KEYLOGGER_URL,
                                  KEYLOGGER_CONTENT))
            to, body = "friend@external.example", DISGRUNTLED_BODY
        else:
            to, body = f"team-{rng.randrange(10)}@corp.example", rng.choice(EMAIL_BODIES)
        email_id = corpus.add("email", p.user, day, 11, m[4], p.pc, to, "", "",
                              f"{p.user.lower()}@corp.example", str(len(body)), "0", body)
        if p.kind == "keylog" and on_special:
            bad.append(email_id)
        file_id = corpus.add("file", p.user, day, 14, m[5], p.pc,
                             f"report_w{day.isocalendar()[1]:02d}_{p.user}.docx", FILE_CONTENT)
        if on_special:
            notes["file_op"] = file_id
        if p.kind == "leak" and on_special:
            bad.append(corpus.add("http", p.user, day, 15, 42, p.pc, rng.choice(LEAK_URLS),
                                  "leaked documents archive"))
    corpus.id_ranges[p.user] = [first, corpus.seq]
    return notes


# ---------------------------------------------------------------------------
# Tool unit-test expectations, counted from the rows written
# ---------------------------------------------------------------------------

def _day_of(ts: str) -> str:
    return datetime.strptime(ts, "%m/%d/%Y %H:%M:%S").date().isoformat()


def _count(corpus: Corpus, source: str, user: str, keep) -> int:
    return sum(1 for row in corpus.rows[source] if row[2] == user and keep(row))


def _domain(url: str) -> str:
    return url.split("://", 1)[-1].split("/", 1)[0].split(":", 1)[0].lower()


def _listed(url: str, domains: list[str]) -> bool:
    host = _domain(url)
    return any(host == d or host.endswith("." + d) for d in domains)


def _has_keyword(text: str, list_name: str) -> bool:
    return any(k in text.lower() for k in LISTS[list_name][1])


def build_tool_tests(corpus: Corpus, by_kind: dict[str, list[Profile]], days: list[date],
                     special: dict[str, date], rng: random.Random) -> dict[str, list[dict]]:
    benign = by_kind["benign"]
    rate2 = [p for p in benign if p.rate == 2]
    device_users = [p for p in benign if p.device]
    leak, keylog = by_kind["leak"][0], by_kind["keylog"][0]
    plain_day = lambda: rng.choice([d for d in days if d not in special.values()]).isoformat()
    burst = special[keylog.user].isoformat()

    def logons(user: str, day: str) -> dict:
        n = _count(corpus, "logon", user, lambda r: r[4] == "Logon" and _day_of(r[1]) == day)
        return {"params": {"user": user, "day": day}, "expected": {"n": n}}

    def connects(user: str, day: str) -> dict:
        n = _count(corpus, "device", user, lambda r: r[4] == "Connect" and _day_of(r[1]) == day)
        return {"params": {"user": user, "day": day}, "expected": {"n": n}}

    def matched(user: str, source: str, keep) -> dict:
        return {"params": {"user": user},
                "expected": {"n_matched": _count(corpus, source, user, keep)}}

    deny = LISTS["untrusted_domains"][1]
    url_deny = lambda r: _listed(r[4], deny)
    content_threat = lambda r: _has_keyword(r[5], "threat_keywords")
    url_exe = lambda r: _has_keyword(r[4], "executable_markers")
    body_angry = lambda r: _has_keyword(r[10], "disgruntled_keywords")
    exe_files = lambda r: r[4].lower().endswith(".exe")
    pick = lambda: rng.choice(benign).user
    tests = {
        LOGON_CHECK: [logons(rng.choice(rate2).user, plain_day()), logons(keylog.user, burst),
                      logons(leak.user, plain_day())],
        URL_CHECK: [matched(pick(), "http", url_deny), matched(leak.user, "http", url_deny),
                    matched(pick(), "http", url_deny)],
        CONTENT_CHECK: [matched(pick(), "http", content_threat),
                        matched(keylog.user, "http", content_threat),
                        matched(pick(), "http", content_threat)],
        EXE_CHECK: [matched(keylog.user, "http", url_exe), matched(pick(), "http", url_exe),
                    matched(pick(), "http", url_exe)],
        DEVICE_CHECK: [connects(rng.choice(device_users).user, plain_day()),
                       connects(keylog.user, plain_day()),
                       connects(rng.choice(device_users).user, plain_day())],
        EMAIL_CHECK: [matched(keylog.user, "email", body_angry),
                      matched(pick(), "email", body_angry), matched(pick(), "email", body_angry)],
        FILE_CHECK: [],
    }
    for user in (pick(), keylog.user, pick()):
        tests[FILE_CHECK].append({"params": {"user": user},
                                  "expected": {"n": _count(corpus, "file", user, exe_files)}})
    return {CHECK_IDS[i]: cases for i, cases in tests.items()}


# ---------------------------------------------------------------------------
# Backend script (scripted workloads) and stub reply table (live-latency)
# ---------------------------------------------------------------------------

def _subtask_reply(suspicious: bool, flagged: str = "") -> str:
    if not suspicious:
        return "Finding: Within the user's normal range for this check.\nSuspicious: no"
    return ("Finding: Tool evidence shows anomalous behavior for this check.\nSuspicious: yes"
            + (f"\nFlagged: {flagged}" if flagged else ""))


def _rebuttal_reply(decision: str) -> str:
    if decision == "malicious":
        return ("Suspicious: the flagged entries\nBasis of Judgment: The flagged evidence "
                "stands after review.\nDecision: Malicious")
    return ("Suspicious: none\nBasis of Judgment: The opposing audit explains the "
            "entries away.\nDecision: Benign")


def _contested_entries(p: Profile, notes: dict[str, str]) -> tuple[list[dict], dict]:
    """Script entries for one contested user and the outcome they dictate."""
    _n, insider, turns = CONTESTED[p.contested]
    who = f"check for user {p.user}."
    if insider:
        check = "Check: " + CHECKS[URL_CHECK][0]
        # First matching call is A's (A audits every check before B starts).
        entries = [{"when": ["[stage: subtask]", who, check], "response": _subtask_reply(True)},
                   {"when": ["[stage: subtask]", who, check], "response": _subtask_reply(False)}]
    else:
        check = "Check: " + CHECKS[FILE_CHECK][0]
        entries = [{"when": ["[stage: subtask]", who, check],
                    "response": _subtask_reply(True, notes["file_op"])}]
    decisions = {"A": "malicious", "B": "benign"}
    rounds_used = 0
    for i in range(1, N_DEBATE + 1):
        if decisions["A"] == decisions["B"]:
            break
        decisions["A"], decisions["B"] = turns.get(i, (decisions["A"], decisions["B"]))
        rounds_used = i
        for label in ("A", "B"):
            entries.append({
                "when": ["[stage: rebuttal]", f"You are executor {label},",
                         f"debating user {p.user}'s",
                         f"executor: executor {label} (you)\nround: {i - 1}\n"],
                "response": _rebuttal_reply(decisions[label]), "repeat": True})
    outcome = {"class": p.contested, "rounds_used": rounds_used,
               "consensus": decisions["A"] == decisions["B"]}
    return entries, outcome


def build_script(contested_entries: list[dict], contested: bool) -> list[dict]:
    decomposition = "\n".join(f"{i}. {d} (types: {t}; context: {c})"
                              for i, (d, t, c, _m, _p) in enumerate(CHECKS, start=1))
    script = [{"when": ["[stage: decompose]"], "response": decomposition, "repeat": True},
              {"when": ["[stage: refine]"], "response": "nothing further", "repeat": True}]
    for i, (_d, _t, _c, marker, plan) in enumerate(CHECKS):
        if contested and i == LOGON_CHECK:
            plan = BROKEN_LOGON_PLAN
        elif contested and i == DEVICE_CHECK:
            plan = BROKEN_DEVICE_PLAN
        script.append({"when": ["[stage: tool-draft]", marker], "response": plan, "repeat": True})
    if contested:
        script += [
            {"when": ["[stage: tool-repair]", CHECKS[LOGON_CHECK][3]],
             "response": CHECKS[LOGON_CHECK][4], "repeat": True},
            {"when": ["[stage: tool-repair]", CHECKS[DEVICE_CHECK][3]],
             "response": BROKEN_DEVICE_PLAN, "repeat": True},
        ]
    script += contested_entries
    script += [
        {"when": ["[stage: subtask]", "Tool signal: suspicious"],
         "response": _subtask_reply(True), "repeat": True},
        {"when": ["[stage: subtask]", "Tool signal: normal"],
         "response": _subtask_reply(False), "repeat": True},
        {"when": ["[stage: subtask]"],
         "response": "Finding: Nothing notable in the excerpt.\nSuspicious: no", "repeat": True},
        {"when": ["[stage: merge]", "verdict: malicious"],
         "response": "Basis of Judgment: Combined evidence from both independent audits.\n"
                     "Decision: Malicious", "repeat": True},
        {"when": ["[stage: merge]"],
         "response": "Basis of Judgment: No anomalies reported by either audit.\n"
                     "Decision: Benign", "repeat": True},
    ]
    return script


# ---------------------------------------------------------------------------
# The whole tree
# ---------------------------------------------------------------------------

def _profiles(n_users: int, contested: bool, rng: random.Random) -> list[Profile]:
    """Fixed numbers of users per profile; the seed decides who is who."""
    names = [f"U{i:04d}" for i in range(1, n_users + 1)]
    rng.shuffle(names)
    roles: list[tuple[str, str | None]] = [("leak", None), ("keylog", None)]
    if contested:
        for cls, (count, insider, _turns) in CONTESTED.items():
            roles += [("leak" if insider else "benign", cls)] * count
    roles += [("benign", None)] * (n_users - len(roles))
    n_free = sum(1 for kind, cls in roles if kind == "benign" and cls is None)
    # Free benign users: half log on twice a day, a third use a device daily.
    rates = [2] * (n_free // 2) + [1] * (n_free - n_free // 2)
    devices = [True] * (n_free // 3) + [False] * (n_free - n_free // 3)
    rng.shuffle(rates)
    rng.shuffle(devices)
    profiles = []
    for name, (kind, cls) in zip(names, roles):
        minutes = [rng.randrange(50) for _ in range(6)]
        pc = f"PC-{rng.randrange(10000):04d}"
        if kind == "leak":
            rate, device = 1, False
        elif kind == "keylog":
            rate, device = 2, True
        elif cls is not None:
            # Contested benign users share one profile, so the debate sets
            # their latency rather than their activity mix.
            rate, device = 2, True
        else:
            rate, device = rates.pop(), devices.pop()
        profiles.append(Profile(name, pc, rate, device, minutes, kind, cls))
    return sorted(profiles, key=lambda p: p.user)


def generate(workload: str, seed: int, outdir: str | Path) -> dict:
    """Write the run tree for one workload and seed; returns expected.json."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    outdir = Path(outdir)
    (outdir / "data").mkdir(parents=True, exist_ok=True)
    (outdir / "lists").mkdir(parents=True, exist_ok=True)

    start = date(2024, 1, 1) + timedelta(days=rng.randrange(56))
    days = [start + timedelta(days=i) for i in range(spec["days"])]
    profiles = _profiles(spec["users"], spec["contested"], rng)
    corpus = Corpus()
    special: dict[str, date] = {}
    contested_entries: list[dict] = []
    contested_outcomes: dict[str, dict] = {}
    for p in profiles:
        # Insiders act on a mid-history day; a contested benign user's file
        # operation on such a day is the entry executor A wrongly flags.
        special[p.user] = days[rng.randrange(2, len(days) - 2)]
        notes = _write_user(corpus, p, days, special[p.user], rng)
        if p.contested:
            entries, outcome = _contested_entries(p, notes)
            contested_entries += entries
            contested_outcomes[p.user] = outcome
    by_kind: dict[str, list[Profile]] = {"benign": [], "leak": [], "keylog": []}
    for p in profiles:
        if p.contested is None:
            by_kind[p.kind].append(p)

    for source, rows in corpus.rows.items():
        with (outdir / "data" / f"{source}.csv").open("w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(HEADERS[source])
            writer.writerows(rows)
    with (outdir / "data" / "labels.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["entry_id", "label"])
        for user in sorted(corpus.malicious):
            writer.writerows([i, "malicious"] for i in corpus.malicious[user])
    for name, (_kind, values) in LISTS.items():
        (outdir / "lists" / f"{name}.txt").write_text("\n".join(values) + "\n", encoding="utf-8")

    script = build_script(contested_entries, spec["contested"])
    n_rows = sum(len(rows) for rows in corpus.rows.values())
    if spec["backend"] == "scripted":
        backend = {"type": "scripted", "script": "script.json", "name": f"scripted-{workload}"}
        (outdir / "script.json").write_text(json.dumps(script, indent=1) + "\n", encoding="utf-8")
    else:
        # The stub reads the same entries statelessly: the first entry whose
        # parts all occur in the prompt answers. The port is filled in once
        # the stub is listening.
        backend = {"type": "http", "endpoint": "http://127.0.0.1:0/v1/chat/completions",
                   "model": "stub", "name": "http-stub"}
        (outdir / "replies.json").write_text(json.dumps(script, indent=1) + "\n", encoding="utf-8")
    config = {
        "dataset": {"kind": "cert",
                    "paths": {s: f"data/{s}.csv" for s in HEADERS},
                    "labels": "data/labels.csv"},
        "backend": backend,
        "rates": {"input_per_1k": 0.0005, "output_per_1k": 0.0015},
        "seeds": {"sampler": 42, "executor_a": 1, "executor_b": 2},
        "n_debate": N_DEBATE,
        "k_sigma": 2.0,
        "excerpt_budget": 50,
        # Above the row count: every row is kept.
        "undersample_cap": 10 * n_rows,
        "registry_path": "out/registry.json",
        "store_path": "out/store.json",
        "output_dir": "out",
        "ablation": "original",
        "lists": {n: {"kind": k, "path": f"lists/{n}.txt"} for n, (k, _v) in LISTS.items()},
        "tool_tests": build_tool_tests(corpus, by_kind, days, special, rng),
        "exemplar_k": 3,
        "max_refine_rounds": 5,
        "max_repair_attempts": MAX_REPAIR_ATTEMPTS,
        "parallelism": 1,
    }
    (outdir / "config.json").write_text(json.dumps(config, sort_keys=True, indent=1) + "\n",
                                        encoding="utf-8")
    expected = {
        "workload": workload,
        "seed": seed,
        "rows": n_rows,
        "users": [p.user for p in profiles],
        "insiders": {u: sorted(ids) for u, ids in sorted(corpus.malicious.items())},
        "id_ranges": corpus.id_ranges,
        "contested": contested_outcomes,
        "check_ids": CHECK_IDS,
        "forge": {
            "repaired_check": CHECK_IDS[LOGON_CHECK],
            "fallback_check": CHECK_IDS[DEVICE_CHECK],
            "repair_calls": 1 + MAX_REPAIR_ATTEMPTS,
        } if spec["contested"] else None,
    }
    (outdir / "expected.json").write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    return expected


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    expected = generate(args.workload, args.seed, args.out)
    print(f"wrote {expected['rows']} rows for {len(expected['users'])} users "
          f"({len(expected['insiders'])} insiders, {len(expected['contested'])} contested) "
          f"to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
