"""Audit-task decomposition: turn activity-type exemplars into a set of
audit checks (sub-tasks), then iteratively widen the set by asking what else
is needed until a round adds nothing.

Sub-task items are parsed from a strict list grammar so scripted and live
backends stay interchangeable:

    1. <audit question> (types: Logon, Logoff; context: daily counts)
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, replace

from .errors import UnparseableSubTaskList
from .gateway import Backend, CostLedger, PromptTemplate, chat
from .logstore import ActivityType, LogEntry
from .prompts import DECOMPOSER, DECOMPOSER_REFINE

logger = logging.getLogger(__name__)

DEFAULT_MAX_REFINE_ROUNDS = 5
REFINE_SENTINEL = "nothing further"

_ITEM_RE = re.compile(r"^\s*(?:\d+[.)]|[-*])\s+(?P<body>.+?)\s*$")
_ANNOTATION_RE = re.compile(
    r"\(\s*types:\s*(?P<types>[^;)]+)(?:;\s*context:\s*(?P<context>[^)]*))?\)\s*$",
    re.IGNORECASE,
)


@dataclass(frozen=True)
class SubTask:
    """One audit question bound to the activity types it inspects."""

    id: str
    description: str
    activity_types: frozenset[ActivityType]
    required_context: tuple[str, ...] = ()


@dataclass
class SubTaskSet:
    subtasks: list[SubTask]
    rounds: int = 0

    def ids(self) -> list[str]:
        return [s.id for s in self.subtasks]

    def covered_types(self) -> set[ActivityType]:
        covered: set[ActivityType] = set()
        for subtask in self.subtasks:
            covered |= subtask.activity_types
        return covered


def normalize_description(text: str) -> str:
    return re.sub(r"\s+", " ", text).strip().rstrip(".").lower()


def slugify(text: str, max_words: int = 6) -> str:
    words = re.sub(r"[^a-z0-9]+", " ", text.lower()).split()[:max_words]
    return "-".join(words) or "subtask"


def parse_subtask_items(text: str) -> list[SubTask]:
    """Parse list items into sub-tasks; items without a valid annotation are
    skipped with a warning."""
    items: list[SubTask] = []
    for line in text.splitlines():
        match = _ITEM_RE.match(line)
        if not match:
            continue
        body = match.group("body")
        annotation = _ANNOTATION_RE.search(body)
        if not annotation:
            logger.warning("sub-task item without (types: ...) annotation skipped: %r", line.strip())
            continue
        description = body[: annotation.start()].strip()
        if not description:
            logger.warning("sub-task item with empty description skipped: %r", line.strip())
            continue
        types: set[ActivityType] = set()
        for name in annotation.group("types").split(","):
            name = name.strip()
            if not name:
                continue
            try:
                types.add(ActivityType.from_name(name))
            except ValueError:
                logger.warning("unknown activity type %r in sub-task item; skipped", name)
        if not types:
            continue
        context = tuple(
            c.strip() for c in (annotation.group("context") or "").split(",") if c.strip()
        )
        items.append(
            SubTask(
                id=slugify(description),
                description=description,
                activity_types=frozenset(types),
                required_context=context,
            )
        )
    return items


def _merge(existing: list[SubTask], new_items: list[SubTask]) -> tuple[list[SubTask], int]:
    """Merge new items, deduplicating on normalized description and keeping
    ids unique; returns (merged list, number actually added)."""
    merged = list(existing)
    seen = {normalize_description(s.description) for s in existing}
    used_ids = {s.id for s in existing}
    added = 0
    for item in new_items:
        key = normalize_description(item.description)
        if key in seen:
            continue
        seen.add(key)
        slug = item.id
        suffix = 2
        while slug in used_ids:
            slug = f"{item.id}-{suffix}"
            suffix += 1
        used_ids.add(slug)
        merged.append(replace(item, id=slug))
        added += 1
    return merged, added


def render_exemplars(exemplars: dict[ActivityType, list[LogEntry]]) -> str:
    blocks: list[str] = []
    for activity in sorted(exemplars, key=lambda a: a.value):
        lines = [f"### {activity.value}"]
        for entry in exemplars[activity]:
            payload = ", ".join(f"{k}={v}" for k, v in sorted(entry.payload.items()))
            lines.append(
                f"  {entry.entry_id} | {entry.timestamp} | user={entry.user} "
                f"| host={entry.host}" + (f" | {payload}" if payload else "")
            )
        blocks.append("\n".join(lines))
    return "\n".join(blocks)


def render_subtasks(subtask_set: SubTaskSet) -> str:
    lines = []
    for i, subtask in enumerate(subtask_set.subtasks, start=1):
        types = ", ".join(sorted(t.value for t in subtask.activity_types))
        context = ", ".join(subtask.required_context)
        suffix = f"; context: {context}" if context else ""
        lines.append(f"{i}. {subtask.description} (types: {types}{suffix})")
    return "\n".join(lines)


def decompose(
    exemplars: dict[ActivityType, list[LogEntry]],
    backend: Backend,
    *,
    ledger: CostLedger,
    template: PromptTemplate = DECOMPOSER,
) -> SubTaskSet:
    """Ask the backend for the initial audit-check list."""
    if not exemplars:
        raise ValueError("decompose requires at least one exemplar")
    completion, _ = chat(
        backend,
        template,
        {"exemplars": render_exemplars(exemplars)},
        stage="decompose",
        ledger=ledger,
    )
    items = parse_subtask_items(completion.text)
    if not items:
        raise UnparseableSubTaskList("completion yielded zero audit checks")
    merged, _ = _merge([], items)
    return SubTaskSet(subtasks=merged, rounds=0)


def refine(
    current: SubTaskSet,
    backend: Backend,
    max_rounds: int = DEFAULT_MAX_REFINE_ROUNDS,
    *,
    ledger: CostLedger,
    template: PromptTemplate = DECOMPOSER_REFINE,
) -> SubTaskSet:
    """Iteratively widen the set until a round adds nothing, the backend
    answers the sentinel, or ``max_rounds`` is reached. Never removes items."""
    subtasks = list(current.subtasks)
    rounds = current.rounds
    for _ in range(max_rounds):
        completion, _ = chat(
            backend,
            template,
            {"current_subtasks": render_subtasks(SubTaskSet(subtasks, rounds))},
            stage="refine",
            ledger=ledger,
        )
        rounds += 1
        if REFINE_SENTINEL in completion.text.strip().lower():
            break
        subtasks, added = _merge(subtasks, parse_subtask_items(completion.text))
        if added == 0:
            break
    return SubTaskSet(subtasks=subtasks, rounds=rounds)


@dataclass
class CoverageReport:
    covered: set[ActivityType]
    uncovered: set[ActivityType]

    @property
    def complete(self) -> bool:
        return not self.uncovered


def validate_coverage(subtask_set: SubTaskSet, store_types: set[ActivityType]) -> CoverageReport:
    covered = subtask_set.covered_types()
    return CoverageReport(covered=covered & store_types, uncovered=store_types - covered)
