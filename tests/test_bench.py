from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import entry, seal
from logaudit.bench import (
    ConfusionCounts,
    compute_metrics,
    emit_report,
    evaluate,
    render_metrics_table,
)
from logaudit.debate import FinalConclusion
from logaudit.errors import MissingLabel
from logaudit.gateway import CostRecord, cost_report
from logaudit.logstore import ActivityType, label_users
from oracles import naive_metrics, store_lines

TOL = 1e-12


def _conclusion(verdict: str, anomalies=frozenset()) -> FinalConclusion:
    return FinalConclusion(verdict=verdict, anomalies=frozenset(anomalies),
                           basis="b", rounds_used=0, consensus=True)


# --- metric formulas ---

def test_metrics_hand_example():
    report = compute_metrics(ConfusionCounts(tp=9, fp=1, fn=1, tn=89))
    assert abs(report.prec - 0.9) <= TOL
    assert abs(report.dr - 0.9) <= TOL
    assert abs(report.fpr - 1 / 90) <= TOL
    assert abs(report.acc - 0.98) <= TOL


def test_metrics_all_correct():
    report = compute_metrics(ConfusionCounts(tp=2, fp=0, fn=0, tn=48))
    assert report.acc == 1.0
    assert report.fpr == 0.0
    assert report.prec == 1.0
    assert report.dr == 1.0


def test_metrics_degenerate_denominators_absent():
    report = compute_metrics(ConfusionCounts(tp=0, fp=0, fn=0, tn=10))
    assert report.prec is None
    assert report.dr is None
    assert report.acc == 1.0
    empty = compute_metrics(ConfusionCounts(tp=0, fp=0, fn=0, tn=0))
    assert empty.acc is None and empty.fpr is None


def test_confusion_counts_reject_negative():
    with pytest.raises(ValueError):
        ConfusionCounts(tp=-1, fp=0, fn=0, tn=0)


@given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 500), st.integers(0, 500))
@settings(max_examples=100, deadline=None)
def test_metrics_match_oracle_property(tp, fp, fn, tn):
    mine = compute_metrics(ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn))
    prec, dr, fpr, acc = naive_metrics(tp, fp, fn, tn)
    for a, b in ((mine.prec, prec), (mine.dr, dr), (mine.fpr, fpr), (mine.acc, acc)):
        if b is None:
            assert a is None
        else:
            assert abs(a - b) <= TOL


@given(st.integers(0, 300), st.integers(0, 300), st.integers(0, 300), st.integers(1, 300))
@settings(max_examples=60, deadline=None)
def test_label_flip_complementarity(tp, fp, fn, tn):
    # Flipping the positive class turns DR into old tn/(tn+fp).
    flipped = compute_metrics(ConfusionCounts(tp=tn, fp=fn, fn=fp, tn=tp))
    assert abs(flipped.dr - tn / (tn + fp)) <= TOL


# --- evaluate ---

def test_evaluate_per_user():
    predictions = {
        "mal1": _conclusion("malicious", {"E1"}),
        "ben1": _conclusion("benign"),
        "ben2": _conclusion("malicious", {"E2"}),  # false positive
        "mal2": _conclusion("benign"),             # miss
    }
    labels = {"mal1": "malicious", "mal2": "malicious", "ben1": "benign", "ben2": "benign"}
    report = evaluate(predictions, labels)
    assert (report.counts.tp, report.counts.fp, report.counts.fn, report.counts.tn) == (1, 1, 1, 1)


def test_evaluate_accepts_verdict_strings():
    report = evaluate({"u": "malicious"}, {"u": "malicious"})
    assert report.counts.tp == 1


def test_evaluate_missing_label():
    with pytest.raises(MissingLabel):
        evaluate({"ghost": _conclusion("benign")}, {})


def test_user_labels_from_store():
    # A user owning a malicious row is malicious; host-only rows make no user.
    store = seal([
        entry("A1", "alice", ActivityType.LOGON),
        entry("B1", "bob", ActivityType.LOGON),
        entry("H1", "", ActivityType.ZEEK_ANOMALY),
    ], {"B1": "malicious", "H1": "malicious"})
    assert label_users(store_lines(store), store.labels) == {"alice": "benign", "bob": "malicious"}


# --- reports ---

def test_report_table_column_order():
    table = render_metrics_table([compute_metrics(ConfusionCounts(2, 0, 0, 48))])
    header = table.splitlines()[0]
    assert header.index("Prec") < header.index("DR") < header.index("FPR") < header.index("Acc")
    assert "1.000" in table


def test_report_table_absent_values():
    table = render_metrics_table([compute_metrics(ConfusionCounts(0, 0, 0, 5))])
    assert "n/a" in table


def test_emit_report_files(tmp_path):
    metrics = [compute_metrics(ConfusionCounts(2, 0, 0, 48))]
    costs = cost_report([CostRecord("b", 100, 50, 0.002, 12.5, "subtask")])
    paths = emit_report(metrics, costs, tmp_path)
    table = paths["table"].read_text()
    assert "Prec" in table
    struct = paths["struct"].read_text()
    assert '"prec": 1.0' in struct
    costs_text = paths["costs"].read_text()
    assert '"token_usage"' in costs_text
    assert '"economic_cost_dollars"' in costs_text
    assert '"latency_ms"' in costs_text


def test_emit_report_empty_metrics(tmp_path):
    paths = emit_report([], cost_report([]), tmp_path)
    lines = paths["table"].read_text().splitlines()
    assert len(lines) == 2  # header + rule, no data rows
    assert "variant" in lines[0]


def test_emit_report_byte_stable(tmp_path):
    metrics = [compute_metrics(ConfusionCounts(9, 1, 1, 89))]
    costs = cost_report([
        CostRecord("b", 100, 50, 0.002, 12.5, "subtask"),
        CostRecord("b", 10, 5, 0.0002, 2.5, "merge"),
    ])
    first = emit_report(metrics, costs, tmp_path / "one")
    second = emit_report(metrics, costs, tmp_path / "two")
    for key in first:
        assert first[key].read_bytes() == second[key].read_bytes()
