from __future__ import annotations

import json
import random
from datetime import date, datetime, timedelta
from pathlib import Path

import pytest

from logaudit.bench import MetricsReport, evaluate
from logaudit.debate import FinalConclusion
from logaudit.decomposer import SubTask, SubTaskSet
from logaudit.gateway import CostLedger
from logaudit.logstore import ActivityType, LogEntry, LogStore, build_user_sequences
from logaudit.pipeline import DetectContext, detect_all

DATA_DIR = Path(__file__).parent / "data"

BASE_DAY = date(2024, 1, 1)


def entry(
    entry_id: str,
    user: str,
    activity: ActivityType,
    day_offset: int = 0,
    hour: int = 9,
    minute: int = 0,
    host: str = "PC-1",
    **payload: str,
) -> LogEntry:
    day = BASE_DAY + timedelta(days=day_offset)
    return LogEntry(
        entry_id=entry_id,
        timestamp=datetime(day.year, day.month, day.day, hour, minute).isoformat(),
        user=user,
        host=host,
        activity=activity,
        payload=payload,
    )


def seal(entries: list[LogEntry], labels: dict[str, str] | None = None) -> LogStore:
    return build_user_sequences(entries, labels)


def logon_series(user: str, counts: list[int], prefix: str = "L") -> list[LogEntry]:
    """One user's logons: counts[i] logons on day i."""
    entries = []
    seq = 0
    for day_offset, count in enumerate(counts):
        for j in range(count):
            seq += 1
            entries.append(
                entry(f"{prefix}{user}-{seq:03d}", user, ActivityType.LOGON,
                      day_offset=day_offset, hour=8 + j, minute=j)
            )
    return entries


def evaluate_detection(ctx: DetectContext) -> tuple[MetricsReport, dict[str, FinalConclusion]]:
    """Audit every user in the context's snapshot and score the verdicts
    against the label map that ingest wrote beside it."""
    predictions = {user: final for user, (final, _t) in detect_all(ctx).items()}
    labels = json.loads(ctx.store.path.with_suffix(".users.json").read_text(encoding="utf-8"))
    return evaluate(predictions, labels, ctx.variant.tag), predictions


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def ledger() -> CostLedger:
    return CostLedger()


@pytest.fixture
def burst_store() -> LogStore:
    """User UX logs on [1,2,1,2] then 4 on the last day (mean 1.5, std 0.5);
    user UY is flat."""
    entries = logon_series("UX", [1, 2, 1, 2, 4], prefix="X")
    entries += logon_series("UY", [2, 2, 2, 2, 2], prefix="Y")
    entries.append(
        entry("WEB-1", "UX", ActivityType.HTTP_VISIT, day_offset=4, hour=15,
              url="http://wikileaks.org/xxx.php", content="archive")
    )
    entries.append(
        entry("WEB-2", "UY", ActivityType.HTTP_VISIT, day_offset=2, hour=15,
              url="http://news.example.com/a", content="weather")
    )
    return seal(entries)


def simple_subtasks() -> SubTaskSet:
    return SubTaskSet(
        subtasks=[
            SubTask(
                id="logon-baseline",
                description="Compare daily logon counts against the user's baseline.",
                activity_types=frozenset({ActivityType.LOGON}),
            ),
            SubTask(
                id="website-legitimacy",
                description="Verify the legitimacy of visited website domains.",
                activity_types=frozenset({ActivityType.HTTP_VISIT}),
            ),
        ],
        rounds=0,
    )


def random_store(n_entries: int = 10_000, seed: int = 7, n_users: int = 20,
                 n_days: int = 30) -> LogStore:
    """Seeded mixed-activity store for oracle-equivalence suites."""
    rng = random.Random(seed)
    users = [f"U{i:03d}" for i in range(1, n_users + 1)]
    hosts = [f"PC-{i:03d}" for i in range(1, 8)]
    domains = ["news.example.com", "docs.corp.example", "wikileaks.org",
               "intranet.corp.example", "files.example.net"]
    words = ["alpha", "beta", "gamma", "delta", "keylog", "report", "plan"]
    activities = [
        ActivityType.LOGON, ActivityType.LOGOFF, ActivityType.HTTP_VISIT,
        ActivityType.EMAIL_SEND, ActivityType.FILE_OP, ActivityType.DEVICE_CONNECT,
    ]
    entries = []
    for i in range(n_entries):
        activity = rng.choice(activities)
        payload: dict[str, str] = {}
        if activity is ActivityType.HTTP_VISIT:
            payload = {
                "url": f"http://{rng.choice(domains)}/p/{rng.randrange(50)}"
                       + (".exe" if rng.random() < 0.05 else ".html"),
                "content": " ".join(rng.choice(words) for _ in range(4)),
            }
        elif activity is ActivityType.EMAIL_SEND:
            payload = {
                "to": f"u{rng.randrange(40)}@corp.example",
                "from": "self@corp.example",
                "size": str(rng.randrange(100, 90_000)),
                "body": " ".join(rng.choice(words) for _ in range(6)),
            }
        elif activity is ActivityType.FILE_OP:
            payload = {"filename": f"f{rng.randrange(300)}." + rng.choice(["docx", "exe", "xlsx"])}
        entries.append(
            entry(
                f"R{i:06d}",
                rng.choice(users),
                activity,
                day_offset=rng.randrange(n_days),
                hour=rng.randrange(24),
                minute=rng.randrange(60),
                host=rng.choice(hosts),
                **payload,
            )
        )
    return seal(entries)
