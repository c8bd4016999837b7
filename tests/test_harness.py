"""Metrics, dataset handling, batch execution and report emission."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from droidtriage.agents import Catalogs
from droidtriage.backend import ModelRouter
from droidtriage.config import load_config
from droidtriage.errors import ConfigError, EmptyEvaluationError, ReportIoError
from droidtriage.harness import (
    BatchConfig,
    ConfusionCounts,
    DatasetManifest,
    compute_metrics,
    confusion_of,
    emit_reports,
    partition_by_year,
    run_batch,
    summarize,
)

from oracles import metrics_direct

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CFG = load_config()


def scripted_router() -> ModelRouter:
    return CFG.build_router("scripted")


def batch_config(jobs=None) -> BatchConfig:
    return BatchConfig(
        catalogs=Catalogs(CFG.api_catalog, CFG.entry_catalog),
        router=scripted_router(),
        pricing=CFG.pricing,
        budgets=CFG.budgets,
        jobs=jobs,
    )


# -- metrics -------------------------------------------------------------------


def test_metrics_paper_row_from_derived_counts():
    # Solving the accuracy/precision/recall formulas against the published
    # 94.35/89.29/98.04/93.46 percentages over 124 samples gives
    # tp=50, tn=67, fp=6, fn=1 (see README).
    m = compute_metrics(ConfusionCounts(tp=50, tn=67, fp=6, fn=1))
    assert abs(100 * m.accuracy - 94.35) <= 0.005
    assert abs(100 * m.precision - 89.29) <= 0.005
    assert abs(100 * m.recall - 98.04) <= 0.005
    assert abs(100 * m.f1 - 93.46) <= 0.005


def test_metrics_all_correct():
    m = compute_metrics(ConfusionCounts(5, 5, 0, 0))
    assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)


def test_metrics_undefined_precision_propagates():
    m = compute_metrics(ConfusionCounts(tp=0, tn=7, fp=0, fn=3))
    assert m.precision is None
    assert m.recall == 0.0
    assert m.f1 is None
    assert m.accuracy == 0.7


def test_metrics_zero_sum_precision_recall_undefined_f1():
    m = compute_metrics(ConfusionCounts(tp=0, tn=0, fp=3, fn=3))
    assert m.precision == 0.0 and m.recall == 0.0
    assert m.f1 is None


def test_metrics_empty_evaluation():
    with pytest.raises(EmptyEvaluationError):
        compute_metrics(ConfusionCounts(0, 0, 0, 0))


def test_metrics_match_direct_oracle_1000_random():
    rng = random.Random(43)
    for _ in range(1000):
        tp, tn, fp, fn = (rng.randint(0, 50) for _ in range(4))
        if tp + tn + fp + fn == 0:
            tp = 1
        m = compute_metrics(ConfusionCounts(tp, tn, fp, fn))
        acc, pre, rec, f1 = metrics_direct(tp, tn, fp, fn)
        assert m.accuracy == acc and m.precision == pre
        assert m.recall == rec and m.f1 == f1


def test_f1_identity_when_defined():
    rng = random.Random(47)
    for _ in range(200):
        tp, tn, fp, fn = (rng.randint(0, 30) for _ in range(4))
        if tp == 0:
            tp = 1
        m = compute_metrics(ConfusionCounts(tp, tn, fp, fn))
        assert m.f1 == pytest.approx(
            2 * m.precision * m.recall / (m.precision + m.recall)
        )


# -- dataset -------------------------------------------------------------------


def test_dataset_load_fixture_corpus():
    ds = DatasetManifest.load(FIXTURES / "corpus.idx")
    assert len(ds.entries) == 6
    assert {e.label for e in ds.entries} == {"Benign", "Malicious"}
    assert all(e.manifest_path.is_file() and e.ir_path.is_file() for e in ds.entries)


def test_dataset_rejects_duplicates_and_bad_labels(tmp_path):
    bad = tmp_path / "d.idx"
    bad.write_text("a,m.mmf,i.mir,Malicious,2020\na,m.mmf,i.mir,Benign,2020\n")
    with pytest.raises(ConfigError):
        DatasetManifest.load(bad)
    bad.write_text("a,m.mmf,i.mir,Sketchy,2020\n")
    with pytest.raises(ConfigError):
        DatasetManifest.load(bad)


# -- batch ---------------------------------------------------------------------


def test_batch_fixture_corpus_perfect_f1():
    ds = DatasetManifest.load(FIXTURES / "corpus.idx")
    results = run_batch(ds, batch_config())
    assert all(r.evaluated for r in results)
    metrics = compute_metrics(confusion_of(results))
    assert metrics.f1 == 1.0
    assert metrics.accuracy == 1.0


def test_batch_single_unparseable_entry_skipped(tmp_path):
    (tmp_path / "broken.mmf").write_text("package: b\n")
    (tmp_path / "broken.mir").write_text("class oops {\n")
    idx = tmp_path / "one.idx"
    idx.write_text("broken,broken.mmf,broken.mir,Benign,2020\n")
    results = run_batch(DatasetManifest.load(idx), batch_config())
    summary = summarize(results, CFG.pricing)
    assert summary["evaluated"] == 0
    assert len(summary["skipped"]) == 1
    assert "broken" in summary["skipped"][0]["app_id"]


def test_batch_undecodable_bundle_skipped(tmp_path):
    (tmp_path / "bad.mmf").write_text("package: bad\n")
    (tmp_path / "bad.mir").write_bytes(b"\xff\xfe")
    clean = FIXTURES / "fx_clean"
    idx = tmp_path / "two.idx"
    idx.write_text("bad,bad.mmf,bad.mir,Benign,2020\n"
                   f"fx_clean,{clean}/app.mmf,{clean}/app.mir,Benign,2020\n")
    results = run_batch(DatasetManifest.load(idx), batch_config())
    by_id = {r.entry.app_id: r for r in results}
    assert by_id["bad"].skip_reason.startswith("unreadable bundle:")
    assert by_id["fx_clean"].evaluated
    assert by_id["fx_clean"].report.verdict == "Benign"


def test_batch_order_permutation_invariant(tmp_path):
    ds = DatasetManifest.load(FIXTURES / "corpus.idx")
    shuffled = DatasetManifest(list(reversed(ds.entries)))
    a = run_batch(ds, batch_config())
    b = run_batch(shuffled, batch_config())
    assert [r.entry.app_id for r in a] == [r.entry.app_id for r in b]
    assert [r.report.to_json() for r in a] == [r.report.to_json() for r in b]
    assert summarize(a, CFG.pricing) == summarize(b, CFG.pricing)


def test_batch_parallel_matches_serial():
    ds = DatasetManifest.load(FIXTURES / "corpus.idx")
    serial = run_batch(ds, batch_config(jobs=1))
    parallel = run_batch(ds, batch_config(jobs=6))
    assert [r.report.to_json() for r in serial] == [r.report.to_json() for r in parallel]


# -- per-year ------------------------------------------------------------------


def test_partition_single_year_equals_aggregate():
    ds = DatasetManifest.load(FIXTURES / "corpus.idx")
    results = run_batch(ds, batch_config())
    # collapse every entry onto one year via fresh entries
    from droidtriage.harness import DatasetEntry, EntryResult

    collapsed = [
        EntryResult(
            DatasetEntry(r.entry.app_id, r.entry.manifest_path, r.entry.ir_path,
                         r.entry.label, 2020),
            report=r.report, ledger=r.ledger,
        )
        for r in results
    ]
    per_year = partition_by_year(collapsed)
    assert list(per_year) == [2020]
    assert per_year[2020] == compute_metrics(confusion_of(collapsed))


def test_partition_disjoint_years():
    ds = DatasetManifest.load(FIXTURES / "corpus.idx")
    results = run_batch(ds, batch_config())
    per_year = partition_by_year(results)
    assert set(per_year) == {2017, 2018, 2019, 2020, 2021}
    for ms in per_year.values():
        assert ms.accuracy == 1.0


def test_partition_matches_recompute_oracle():
    rng = random.Random(53)
    from droidtriage.agents import VerdictReport
    from droidtriage.harness import DatasetEntry, EntryResult

    results = []
    for i in range(60):
        year = rng.choice((2017, 2018, 2019))
        label = rng.choice(("Benign", "Malicious"))
        verdict = rng.choice(("Benign", "Malicious"))
        report = VerdictReport(f"a{i}", verdict, "none", 0.5, [], "r")
        results.append(
            EntryResult(
                DatasetEntry(f"a{i}", Path("x"), Path("y"), label, year), report=report
            )
        )
    per_year = partition_by_year(results)
    for year, ms in per_year.items():
        group = [r for r in results if r.entry.year == year]
        assert ms == compute_metrics(confusion_of(group))


# -- emission ------------------------------------------------------------------


def test_emit_reports_files_and_shapes(tmp_path):
    ds = DatasetManifest.load(FIXTURES / "corpus.idx")
    results = run_batch(ds, batch_config())
    out = tmp_path / "out"
    summary = emit_reports(results, CFG.pricing, out)
    assert (out / "summary.json").is_file()
    assert (out / "digest.txt").is_file()
    report_files = sorted(p.name for p in (out / "reports").iterdir())
    assert report_files == [
        "fx_backup.json", "fx_clean.json", "fx_dialerspy.json",
        "fx_idsave.json", "fx_smsleak.json", "fx_spyloc.json",
    ]
    clean = json.loads((out / "reports" / "fx_clean.json").read_text())
    assert clean["verdict"] == "Benign"
    assert clean["evidence_chain"] == []
    assert summary["metrics"]["f1"] == 1.0
    lines = (out / "results.jsonl").read_text().strip().splitlines()
    assert len(lines) == 6
    assert summary["tier_shares"]["trace"] >= 0.80


def test_emit_reports_removes_stale_reports(tmp_path):
    from droidtriage.harness import EntryResult

    ds = DatasetManifest.load(FIXTURES / "corpus.idx")
    kept, dropped = run_batch(DatasetManifest(ds.entries[:2]), batch_config())
    out = tmp_path / "out"
    emit_reports([kept, dropped], CFG.pricing, out)
    assert len(list((out / "reports").iterdir())) == 2
    rerun = [kept, EntryResult(dropped.entry, skip_reason="invalid bundle: x")]
    emit_reports(rerun, CFG.pricing, out)
    assert [p.name for p in (out / "reports").iterdir()] == [f"{kept.entry.app_id}.json"]
    assert (out / "reports" / f"{kept.entry.app_id}.json").read_text() == kept.report.to_json()


def test_emit_reports_bad_output_dir(tmp_path):
    target = tmp_path / "file.txt"
    target.write_text("occupied")
    ds = DatasetManifest.load(FIXTURES / "corpus.idx")
    results = run_batch(ds, batch_config())
    with pytest.raises(ReportIoError):
        emit_reports(results, CFG.pricing, target)
    assert target.read_text() == "occupied"
