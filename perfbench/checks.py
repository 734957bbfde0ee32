"""Correctness checks on a run's output files.

Each check compares what the CLI wrote against ``expected.json`` (the
generator's record of what it put in the inputs) or against a property of
the method, and returns a list of failure messages; an empty list passes.
Nothing here imports the program.
"""

from __future__ import annotations

import json
from pathlib import Path


def _entry_seq(entry_id: str) -> int:
    # Generated ids read {S0000123}.
    return int(entry_id.strip("{}")[1:])


def read_ledger(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


def conclusions(out: Path, expected: dict) -> list[str]:
    """Verdicts against the generator's insiders, and evidence pinning."""
    users = json.loads((out / "conclusions.json").read_text(encoding="utf-8"))["users"]
    errors = []
    if sorted(users) != sorted(expected["users"]):
        errors.append(f"audited {len(users)} users, generated {len(expected['users'])}")
    insiders = expected["insiders"]
    judged = sorted(u for u, c in users.items() if c["verdict"] == "malicious")
    if judged != sorted(insiders):
        errors.append(f"judged malicious {judged}, insiders {sorted(insiders)}")
    for user, item in users.items():
        anomalies = item["anomalies"]
        if (item["verdict"] == "malicious") != bool(anomalies):
            errors.append(f"{user}: verdict {item['verdict']} with {len(anomalies)} anomalies")
        if user in insiders and sorted(anomalies) != insiders[user]:
            errors.append(f"{user}: anomalies {sorted(anomalies)}, malicious ids {insiders[user]}")
        if user not in insiders and anomalies:
            errors.append(f"{user}: benign user with anomalies {sorted(anomalies)}")
        lo, hi = expected["id_ranges"].get(user, (1, 0))
        foreign = [a for a in anomalies if not lo <= _entry_seq(a) <= hi]
        if foreign:
            errors.append(f"{user}: anomalies of other users {foreign}")
    return errors


def snapshot(out: Path, expected: dict) -> list[str]:
    doc = json.loads((out / "store.json").read_text(encoding="utf-8"))
    rows = len(doc["entries"])
    return [] if rows == expected["rows"] else [f"snapshot holds {rows} rows, "
                                                f"generated {expected['rows']}"]


def debate(out: Path, expected: dict, n_debate: int) -> list[str]:
    """Each contested user ends as scripted; everyone else agrees at once.

    The script fixes each executor's decision per round. Under the method's
    rule (rounds stop at the first verdict agreement and cap at n_debate)
    that fixes rounds_used and consensus, and each round is one rebuttal by
    each executor.
    """
    users = json.loads((out / "conclusions.json").read_text(encoding="utf-8"))["users"]
    contested = expected["contested"]
    errors = []
    for user, item in users.items():
        want = contested.get(user, {"rounds_used": 0, "consensus": True})
        got = {"rounds_used": item["rounds_used"], "consensus": item["consensus"]}
        if got != {k: want[k] for k in got}:
            errors.append(f"{user}: debate ended {got}, scripted {want}")
        if item["rounds_used"] > n_debate:
            errors.append(f"{user}: {item['rounds_used']} rounds over the cap {n_debate}")
    rebuttals = sum(1 for r in read_ledger(out / "costs-detect.jsonl") if r["stage"] == "rebuttal")
    scripted = 2 * sum(c["rounds_used"] for c in contested.values())
    if rebuttals != scripted or rebuttals == 0:
        errors.append(f"{rebuttals} rebuttal calls in the ledger, scripted {scripted}")
    return errors


def registry(out: Path, expected: dict) -> list[str]:
    """The repaired draft is kept and the irreparable check runs a built-in."""
    forge = expected["forge"]
    tools = {t["subtask_id"]: t for t in
             json.loads((out / "registry.json").read_text(encoding="utf-8"))["tools"]}
    errors = []
    repaired = tools.get(forge["repaired_check"])
    if repaired is None or repaired["builtin"] or "activity=Logon" not in repaired["plan"][0]:
        errors.append(f"repaired check {forge['repaired_check']}: {repaired}")
    fallback = tools.get(forge["fallback_check"])
    if fallback is None or not fallback["builtin"]:
        errors.append(f"fallback check {forge['fallback_check']}: {fallback}")
    repairs = sum(1 for r in read_ledger(out / "costs-forge.jsonl") if r["stage"] == "tool-repair")
    if repairs != forge["repair_calls"]:
        errors.append(f"{repairs} repair calls in the forge ledger, scripted {forge['repair_calls']}")
    return errors


def served_equals_ledger(served: int, out: Path, phase: str) -> list[str]:
    records = len(read_ledger(out / f"costs-{phase}.jsonl"))
    return [] if served == records else [f"{phase}: stub served {served}, ledger holds {records}"]
