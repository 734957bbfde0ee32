"""Evaluation harness: the four detection metrics over labeled runs, and
report emission.

The positive class is malicious. Granularity is per user (a user is
positive iff any of their entries is labeled malicious). Ratios with a zero
denominator are reported as absent (None), never as zero.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .errors import MissingLabel
from .gateway import CostReport
from .logstore import LABEL_MALICIOUS

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class MetricsReport:
    prec: float | None
    dr: float | None
    fpr: float | None
    acc: float | None
    counts: ConfusionCounts
    variant: str = "original"


def compute_metrics(counts: ConfusionCounts, variant: str = "original") -> MetricsReport:
    tp, fp, fn, tn = counts.tp, counts.fp, counts.fn, counts.tn
    return MetricsReport(
        prec=tp / (tp + fp) if (tp + fp) > 0 else None,
        dr=tp / (tp + fn) if (tp + fn) > 0 else None,
        fpr=fp / (fp + tn) if (fp + tn) > 0 else None,
        acc=(tp + tn) / counts.total if counts.total > 0 else None,
        counts=counts,
        variant=variant,
    )


def _verdict_of(prediction: object) -> str:
    if isinstance(prediction, str):
        return prediction
    return getattr(prediction, "verdict")


def evaluate(
    predictions: Mapping[str, object],
    labels: Mapping[str, str],
    variant: str = "original",
) -> MetricsReport:
    """Per-user metrics; every predicted user must carry a label."""
    tp = fp = fn = tn = 0
    for user in sorted(predictions):
        if user not in labels:
            raise MissingLabel(f"user {user!r} has no ground-truth label")
        predicted_malicious = _verdict_of(predictions[user]) == LABEL_MALICIOUS
        actual_malicious = labels[user] == LABEL_MALICIOUS
        if predicted_malicious and actual_malicious:
            tp += 1
        elif predicted_malicious:
            fp += 1
        elif actual_malicious:
            fn += 1
        else:
            tn += 1
    return compute_metrics(ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn), variant)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.3f}"


def render_metrics_table(metrics: Sequence[MetricsReport]) -> str:
    header = f"{'variant':<12} {'Prec':>8} {'DR':>8} {'FPR':>8} {'Acc':>8}"
    lines = [header, "-" * len(header)]
    for m in metrics:
        lines.append(
            f"{m.variant:<12} {_fmt(m.prec):>8} {_fmt(m.dr):>8} {_fmt(m.fpr):>8} {_fmt(m.acc):>8}"
        )
    return "\n".join(lines) + "\n"


def _metrics_doc(m: MetricsReport) -> dict[str, object]:
    return {
        "variant": m.variant,
        "prec": m.prec,
        "dr": m.dr,
        "fpr": m.fpr,
        "acc": m.acc,
        "counts": {"tp": m.counts.tp, "fp": m.counts.fp, "fn": m.counts.fn, "tn": m.counts.tn},
    }


def _cost_doc(costs: CostReport) -> dict[str, object]:
    return {
        "calls": costs.calls,
        "latency_ms": costs.latency_ms,
        "token_usage": {
            "prompt": costs.prompt_tokens,
            "completion": costs.completion_tokens,
            "total": costs.total_tokens,
        },
        "economic_cost_dollars": costs.dollars,
        "per_stage": {
            stage: {
                "calls": s.calls,
                "mean_latency_ms": s.mean_latency_ms,
                "mean_tokens": s.mean_tokens,
                "mean_dollars": s.mean_dollars,
                "latency_ms": s.latency_ms,
                "prompt_tokens": s.prompt_tokens,
                "completion_tokens": s.completion_tokens,
                "dollars": s.dollars,
            }
            for stage, s in sorted(costs.per_stage.items())
        },
    }


def emit_report(
    metrics: Sequence[MetricsReport], costs: CostReport, outdir: str | Path
) -> dict[str, Path]:
    """Write the human table plus machine-readable files; byte-stable for
    identical inputs (no timestamps, sorted keys)."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    table_path = outdir / "report.txt"
    struct_path = outdir / "report.struct"
    costs_path = outdir / "costs.struct"
    table_path.write_text(render_metrics_table(metrics), encoding="utf-8")
    struct_path.write_text(
        json.dumps({"metrics": [_metrics_doc(m) for m in metrics]}, sort_keys=True, indent=1) + "\n",
        encoding="utf-8",
    )
    costs_path.write_text(
        json.dumps(_cost_doc(costs), sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    return {"table": table_path, "struct": struct_path, "costs": costs_path}
