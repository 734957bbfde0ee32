"""Operator entry point: ingest -> forge -> detect -> evaluate, plus
cost-report. Each phase reads the same config file; failures exit non-zero
with one machine-parseable ``Category: detail`` line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import logging
import shutil
import sys
from collections import defaultdict
from itertools import chain
from pathlib import Path
from typing import Iterator

from . import bench
from .config import (
    RunConfig,
    build_backend,
    config_hash,
    load_config,
    load_lists,
    load_templates,
    open_store_snapshot,
    resolve_path,
)
from .debate import conclusion_doc, transcript_doc
from .decomposer import SubTask, decompose, refine, validate_coverage
from .errors import (
    AuditError,
    ConfigInvalid,
    CoverageIncomplete,
    LabelsMissing,
)
from .forge import REGISTRY_FORMAT, ForgeOutcome, build_tool_for_subtask, case_users, save_registry
from .gateway import CostLedger, CostRecord, cost_report
from .logstore import (
    check_ids,
    label_users,
    load_labels,
    parse_cert_file,
    parse_zeek_file,
    place_rows,
    save_store,
    undersample_benign,
)
from .pipeline import VARIANTS, context_from_config, detect_all, in_order

logger = logging.getLogger(__name__)

CONCLUSIONS_FORMAT = "audit-conclusions/1"

# The malformed rows of one dataset file that manifest-ingest.json lists;
# the snapshot's manifest counts them all.
MALFORMED_ROWS_LISTED = 20


def _write_json(path: Path, doc: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _write_manifest(config: RunConfig, phase: str, extra: dict | None = None) -> None:
    outdir = resolve_path(config, config.output_dir)
    doc = {
        "phase": phase,
        "config_hash": config_hash(config),
        "seeds": {
            "sampler": config.seed_sampler,
            "executor_a": config.seed_executor_a,
            "executor_b": config.seed_executor_b,
        },
        "registry_format": REGISTRY_FORMAT,
        "variant": config.ablation,
    }
    if extra:
        doc.update(extra)
    _write_json(outdir / f"manifest-{phase}.json", doc)


def _write_ledger(config: RunConfig, phase: str, ledger: CostLedger) -> Path:
    outdir = resolve_path(config, config.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"costs-{phase}.jsonl"
    with path.open("w", encoding="utf-8") as handle:
        for record in ledger.records():
            handle.write(json.dumps(vars(record), sort_keys=True) + "\n")
    return path


@contextlib.contextmanager
def _long_lived() -> Iterator[None]:
    """Build a phase's long-lived state (ingest's lines, the detect context) with
    the cyclic collector paused, then freeze it. It lives until the phase
    ends, so no collection could free it, and frozen, none scans it again;
    :func:`main` unfreezes it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
        gc.freeze()
    finally:
        if enabled:
            gc.enable()


def _users_path(store_path: Path) -> Path:
    """The per-user label map that ingest writes beside the snapshot, named
    after it (``store.json`` -> ``store.users.json``) so that snapshots
    sharing a directory keep their own; evaluate reads it, not the snapshot."""
    return store_path.with_suffix(".users.json")


def _read_ledgers(outdir: Path) -> list[CostRecord]:
    records: list[CostRecord] = []
    for path in sorted(outdir.glob("costs-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                records.append(CostRecord(**json.loads(line)))
    return records


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------

def cmd_ingest(config: RunConfig) -> int:
    dataset = config.dataset
    # Each parsed row goes straight into its user's snapshot line; only the
    # ids are kept besides, for the checks once every file has parsed.
    lines: defaultdict[str, list[list]] = defaultdict(list)
    ids: list[str] = []
    manifest = []
    malformed = []
    with _long_lived():
        for source, raw_path in sorted(dataset.paths.items()):
            path = resolve_path(config, raw_path)
            if not path.exists():
                raise ConfigInvalid(f"dataset file not found: {path}")
            if dataset.kind == "cert":
                parsed = parse_cert_file(path, source)
            else:
                parsed = parse_zeek_file(path, kind=source)
            # Record the path as the config writes it, so a snapshot does not
            # depend on where the dataset was checked out.
            parsed.source.path = raw_path
            place_rows(lines, ids, parsed.entries)
            manifest.append(parsed.source)
            if parsed.errors:
                malformed.append({"path": raw_path, "count": len(parsed.errors), "rows": [
                    {"line": error.line_no, "reason": error.reason}
                    for error in parsed.errors[:MALFORMED_ROWS_LISTED]]})
            logger.info("ingested %s: %d entries, %d malformed", path, len(parsed.entries),
                        len(parsed.errors))
            del parsed  # its rows are in the lines now
        labels = load_labels(resolve_path(config, dataset.labels)) if dataset.labels else None
        check_ids(ids, labels or {})
        del ids
    rows = sum(map(len, lines.values()))
    if labels is not None:
        # Class-imbalance control: keep every malicious entry and at most
        # `undersample_cap` benign ones in the snapshot.
        sampled, labels = undersample_benign(lines, labels, cap=config.undersample_cap,
                                             seed=config.seed_sampler)
        if sampled is not lines:
            kept = sum(map(len, sampled.values()))
            logger.info("under-sampled benign entries: %d -> %d", rows, kept)
            lines, rows = sampled, kept
    store_path = resolve_path(config, config.store_path)
    store_path.parent.mkdir(parents=True, exist_ok=True)
    save_store(lines, store_path, labels, manifest)
    users_path = _users_path(store_path)
    if labels:
        _write_json(users_path, label_users(lines, labels))
    else:
        users_path.unlink(missing_ok=True)
    users = len(lines) - ("" in lines)  # host-only rows belong to no user
    extra = {"entries": rows, "users": users, "files": len(manifest)}
    if malformed:
        extra["malformed"] = malformed
    _write_manifest(config, "ingest", extra)
    print(f"ingested {rows} entries from {len(manifest)} files ({users} users) -> {store_path}")
    return 0


def cmd_forge(config: RunConfig) -> int:
    # The exemplars and the case users' sequences are all of the store that
    # forge reads: a tool is served only if its select reads the user it is
    # invoked for, and its cases are run on their users alone.
    snapshot = open_store_snapshot(config)
    with _long_lived():
        exemplars = snapshot.exemplars(k=config.exemplar_k, seed=config.seed_sampler)
        fixtures = {seq.user: seq for seq in snapshot.sequences(
            case_users(chain.from_iterable(config.tool_tests.values())))}
    lists = load_lists(config)
    backend = build_backend(config)
    templates = load_templates(config)
    ledger = CostLedger(config.rates)

    subtasks = decompose(exemplars, backend, ledger=ledger, template=templates["decomposer"])
    subtasks = refine(subtasks, backend, max_rounds=config.max_refine_rounds,
                      ledger=ledger, template=templates["decomposer_refine"])

    coverage = validate_coverage(subtasks, snapshot.activity_types())
    if not coverage.complete and not config.allow_partial_coverage:
        raise CoverageIncomplete(
            "uncovered activity types: "
            + ", ".join(sorted(t.value for t in coverage.uncovered))
            + " (pass --allow-partial-coverage to proceed)"
        )

    def build(subtask: SubTask, own: CostLedger) -> tuple[SubTask, ForgeOutcome]:
        examples = [e for t in sorted(subtask.activity_types, key=lambda a: a.value)
                    for e in exemplars.get(t, [])]
        cases = config.tool_tests.get(subtask.id, [])
        return subtask, build_tool_for_subtask(
            subtask, examples, cases, fixtures, backend,
            lists=lists, ledger=own,
            max_repair_attempts=config.max_repair_attempts, k_sigma=config.k_sigma,
            draft_template=templates["tool_builder"],
            repair_template=templates["tool_repair"],
        )

    # Each check's draft -> test -> repair chain depends on that check alone,
    # so on an order-free backend every check's chain runs at once.
    jobs = [lambda own, subtask=subtask: build(subtask, own) for subtask in subtasks.subtasks]
    specs = []
    unservable = []
    fallbacks = {}
    for subtask, outcome in in_order(backend, ledger, jobs, len(jobs)):
        if outcome.used_builtin:
            fallbacks[subtask.id] = outcome.error
        if outcome.spec is None:
            unservable.append(subtask.id)
            logger.warning("sub-task %s is unservable: %s", subtask.id, outcome.error)
        else:
            specs.append(outcome.spec)

    registry_path = resolve_path(config, config.registry_path)
    registry_path.parent.mkdir(parents=True, exist_ok=True)
    save_registry(specs, subtasks, registry_path)
    _write_ledger(config, "forge", ledger)
    _write_manifest(config, "forge", {
        "subtasks": len(subtasks.subtasks),
        "tools": len(specs),
        "unservable": unservable,
        "fallbacks": fallbacks,
        "refine_rounds": subtasks.rounds,
    })
    print(f"forged {len(specs)} tools for {len(subtasks.subtasks)} checks "
          f"({subtasks.rounds} refinement rounds) -> {registry_path}")
    return 0


def cmd_detect(config: RunConfig) -> int:
    outdir = resolve_path(config, config.output_dir)
    transcripts_dir = outdir / "transcripts"
    ledger = CostLedger(config.rates)
    try:
        with _long_lived():
            ctx = context_from_config(config, ledger, config.ablation)
        outcomes = detect_all(ctx, parallelism=config.parallelism)
    except AuditError:
        # A failed detect leaves no earlier run's outputs, or reports of them.
        for name in ("conclusions.json", "costs-detect.jsonl", "manifest-detect.json",
                     "report.txt", "report.struct", "costs.struct"):
            (outdir / name).unlink(missing_ok=True)
        if transcripts_dir.exists():
            shutil.rmtree(transcripts_dir)
        raise

    # This run's transcripts replace every earlier run's, even where it writes none.
    if transcripts_dir.exists():
        shutil.rmtree(transcripts_dir)
    users_doc = {}
    for user, (final, transcript) in sorted(outcomes.items()):
        users_doc[user] = conclusion_doc(final)
        if transcript is not None:
            _write_json(transcripts_dir / f"{user}.json", transcript_doc(user, transcript))
    _write_json(outdir / "conclusions.json", {
        "format": CONCLUSIONS_FORMAT,
        "variant": config.ablation,
        "users": users_doc,
    })
    _write_ledger(config, "detect", ledger)
    _write_manifest(config, "detect", {"users": len(users_doc)})
    malicious = sum(1 for u in users_doc.values() if u["verdict"] == "malicious")
    print(f"detected {malicious} malicious of {len(users_doc)} users -> {outdir / 'conclusions.json'}")
    return 0


def cmd_evaluate(config: RunConfig) -> int:
    store_path = resolve_path(config, config.store_path)
    if not store_path.exists():
        raise ConfigInvalid(f"store snapshot not found: {store_path}; run ingest first")
    users_path = _users_path(store_path)
    if not users_path.exists():
        raise LabelsMissing(
            "store has no ground-truth labels; set dataset.labels and re-run ingest"
        )
    labels = json.loads(users_path.read_text(encoding="utf-8"))
    outdir = resolve_path(config, config.output_dir)
    conclusions_path = outdir / "conclusions.json"
    if not conclusions_path.exists():
        raise ConfigInvalid(f"conclusions not found: {conclusions_path}; run detect first")
    doc = json.loads(conclusions_path.read_text(encoding="utf-8"))
    predictions = {user: item["verdict"] for user, item in doc.get("users", {}).items()}

    metrics = bench.evaluate(predictions, labels, variant=doc.get("variant", config.ablation))
    records = _read_ledgers(outdir)
    paths = bench.emit_report([metrics], cost_report(records), outdir)
    _write_manifest(config, "evaluate", {"users": len(predictions)})
    print(bench.render_metrics_table([metrics]), end="")
    print(f"reports -> {paths['table']}, {paths['struct']}, {paths['costs']}")
    return 0


def cmd_cost_report(config: RunConfig) -> int:
    outdir = resolve_path(config, config.output_dir)
    records = _read_ledgers(outdir)
    report = cost_report(records)
    print(f"calls: {report.calls}")
    print(f"latency_ms: {report.latency_ms:.1f}")
    print(f"tokens: prompt={report.prompt_tokens} completion={report.completion_tokens} "
          f"total={report.total_tokens}")
    print(f"dollars: {report.dollars:.6f}")
    for stage, stats in sorted(report.per_stage.items()):
        print(f"  {stage:<12} calls={stats.calls:<5} mean_latency_ms={stats.mean_latency_ms:.1f} "
              f"mean_tokens={stats.mean_tokens:.1f} mean_dollars={stats.mean_dollars:.8f}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

_COMMANDS = {
    "ingest": cmd_ingest,
    "forge": cmd_forge,
    "detect": cmd_detect,
    "evaluate": cmd_evaluate,
    "cost-report": cmd_cost_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logaudit",
        description="Multi-agent security log auditing pipeline",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the run config (json/yaml)")
    parser.add_argument("--variant", choices=sorted(VARIANTS),
                        help="override the config's ablation tag")
    parser.add_argument("--allow-partial-coverage", action="store_true",
                        help="proceed even when some activity types lack checks")
    parser.add_argument("--parallelism", type=int, help="detection workers (default from config)")
    parser.add_argument("--seed", type=int, help="override the sampler seed")
    parser.add_argument("-v", "--verbose", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="[%(levelname)s] %(name)s: %(message)s",
    )
    collecting = gc.isenabled()
    try:
        overrides = {"ablation": args.variant, "parallelism": args.parallelism,
                     "seed_sampler": args.seed,
                     "allow_partial_coverage": args.allow_partial_coverage or None}
        config = load_config(args.config,
                             {k: v for k, v in overrides.items() if v is not None})
        if config.ablation not in VARIANTS:
            raise ConfigInvalid(f"unknown ablation tag {config.ablation!r}")
        return _COMMANDS[args.command](config)
    except AuditError as exc:
        print(f"{exc.category}: {exc}", file=sys.stderr)
        return 1
    finally:
        # A phase's frozen state, and the collector, go back as the caller had them.
        gc.unfreeze()
        if collecting:
            gc.enable()
        else:
            gc.disable()


if __name__ == "__main__":
    sys.exit(main())
