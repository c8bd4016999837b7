"""Dataset ingestion, batch execution, metrics and report emission.

A dataset is a CSV-like index of `app_id,manifest,ir,label,year` rows with
paths relative to the index file.  Entries are evaluated concurrently and
independently; failures are recorded as skips, never abort the batch, and
all aggregation happens after the full join so results are invariant under
entry-order permutation.
"""

from __future__ import annotations

import csv
import json
import os
import statistics
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .agents import Catalogs, PipelineBudgets, VerdictReport, run_pipeline
from .backend import CostLedger, ModelRouter, PricingTable, cost_of, format_usd, tier_shares
from .errors import (
    ConfigError,
    EmptyEvaluationError,
    ReportIoError,
    TriageError,
    UnreadableBundleError,
)
from .ir import AppBundle, parse_bundle, validate

LABELS = ("Benign", "Malicious")


@dataclass(frozen=True)
class DatasetEntry:
    app_id: str
    manifest_path: Path
    ir_path: Path
    label: str
    year: int


@dataclass
class DatasetManifest:
    entries: list[DatasetEntry]

    @classmethod
    def load(cls, path: str | Path) -> "DatasetManifest":
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"dataset index not found: {path}")
        base = path.parent
        entries: list[DatasetEntry] = []
        seen: set[str] = set()
        with path.open(newline="", encoding="utf-8") as fh:
            for row_no, row in enumerate(csv.reader(fh), start=1):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                if len(row) != 5:
                    raise ConfigError(f"{path}:{row_no}: expected 5 columns, got {len(row)}")
                app_id, mpath, ipath, label, year = (c.strip() for c in row)
                if label not in LABELS:
                    raise ConfigError(f"{path}:{row_no}: bad label {label!r}")
                if app_id in seen:
                    raise ConfigError(f"{path}:{row_no}: duplicate app_id {app_id!r}")
                seen.add(app_id)
                try:
                    year_n = int(year)
                except ValueError:
                    raise ConfigError(f"{path}:{row_no}: bad year {year!r}") from None
                entries.append(
                    DatasetEntry(app_id, base / mpath, base / ipath, label, year_n)
                )
        return cls(entries)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    def to_dict(self) -> dict:
        return {"tp": self.tp, "tn": self.tn, "fp": self.fp, "fn": self.fn}


@dataclass(frozen=True)
class MetricSet:
    """Accuracy/precision/recall/F1; None marks an undefined metric (zero
    denominator), which must never be conflated with 0."""

    accuracy: float
    precision: float | None
    recall: float | None
    f1: float | None

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }


def compute_metrics(c: ConfusionCounts) -> MetricSet:
    if c.total <= 0:
        raise EmptyEvaluationError("no evaluated entries")
    accuracy = (c.tp + c.tn) / c.total
    precision = c.tp / (c.tp + c.fp) if (c.tp + c.fp) > 0 else None
    recall = c.tp / (c.tp + c.fn) if (c.tp + c.fn) > 0 else None
    f1 = None
    if precision is not None and recall is not None and (precision + recall) > 0:
        f1 = 2 * precision * recall / (precision + recall)
    return MetricSet(accuracy, precision, recall, f1)


# ---------------------------------------------------------------------------
# batch execution
# ---------------------------------------------------------------------------


@dataclass
class EntryResult:
    entry: DatasetEntry
    report: VerdictReport | None = None
    ledger: CostLedger | None = None
    skip_reason: str | None = None

    @property
    def evaluated(self) -> bool:
        return self.report is not None


@dataclass
class BatchConfig:
    catalogs: Catalogs
    router: ModelRouter
    pricing: PricingTable
    budgets: PipelineBudgets
    jobs: int | None = None


def read_bundle(manifest_path: Path, ir_path: Path, app_id: str | None = None) -> AppBundle:
    """Read and parse one bundle; a file that cannot be read or is not UTF-8
    raises UnreadableBundleError."""
    try:
        manifest_text = manifest_path.read_text("utf-8")
        ir_text = ir_path.read_text("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UnreadableBundleError(f"unreadable bundle: {exc}") from exc
    return parse_bundle(manifest_text, ir_text, app_id=app_id)


def _evaluate_entry(entry: DatasetEntry, cfg: BatchConfig) -> EntryResult:
    try:
        bundle = read_bundle(entry.manifest_path, entry.ir_path, app_id=entry.app_id)
        diags = validate(bundle)
        if diags:
            reasons = "; ".join(f"{d.code}@{d.where}" for d in diags[:5])
            return EntryResult(entry, skip_reason=f"invalid bundle: {reasons}")
        report, ledger = run_pipeline(bundle, cfg.catalogs, cfg.router, cfg.budgets)
        return EntryResult(entry, report=report, ledger=ledger)
    except UnreadableBundleError as exc:
        return EntryResult(entry, skip_reason=str(exc))
    except TriageError as exc:
        return EntryResult(entry, skip_reason=f"{type(exc).__name__}: {exc}")


def run_batch(dataset: DatasetManifest, cfg: BatchConfig) -> list[EntryResult]:
    if not dataset.entries:
        raise ConfigError("dataset is empty")
    jobs = cfg.jobs or os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(lambda e: _evaluate_entry(e, cfg), dataset.entries))
    return sorted(results, key=lambda r: r.entry.app_id)


def confusion_counts(pairs: Iterable[tuple[str, str]]) -> ConfusionCounts:
    """Tally (predicted verdict, true label) pairs."""
    n = Counter((verdict == "Malicious", label == "Malicious") for verdict, label in pairs)
    return ConfusionCounts(n[True, True], n[False, False], n[True, False], n[False, True])


def confusion_of(results: list[EntryResult]) -> ConfusionCounts:
    return confusion_counts((r.report.verdict, r.entry.label) for r in results if r.evaluated)


def partition_by_year(results: list[EntryResult]) -> dict[int, MetricSet]:
    groups: dict[int, list[EntryResult]] = {}
    for r in results:
        if r.evaluated:
            groups.setdefault(r.entry.year, []).append(r)
    out: dict[int, MetricSet] = {}
    for year in sorted(groups):
        out[year] = compute_metrics(confusion_of(groups[year]))
    return out


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def _merged_ledger(results: list[EntryResult]) -> CostLedger:
    merged = CostLedger()
    for r in results:
        if r.ledger is not None:
            for ex in r.ledger.exchanges:
                merged.append(ex)
    return merged


def summarize(results: list[EntryResult], pricing: PricingTable) -> dict:
    evaluated = [r for r in results if r.evaluated]
    skipped = [
        {"app_id": r.entry.app_id, "reason": r.skip_reason}
        for r in results
        if not r.evaluated
    ]
    summary: dict = {
        "evaluated": len(evaluated),
        "skipped": sorted(skipped, key=lambda s: s["app_id"]),
    }
    if evaluated:
        confusion = confusion_of(results)
        summary["confusion"] = confusion.to_dict()
        summary["metrics"] = compute_metrics(confusion).to_dict()
        summary["per_year"] = {
            str(year): ms.to_dict() for year, ms in partition_by_year(results).items()
        }
        merged = _merged_ledger(results)
        if merged.total_tokens > 0:
            summary["tier_shares"] = {
                t: round(v, 9) for t, v in tier_shares(merged).items()
            }
            cost = cost_of(merged, pricing)
            summary["cost_usd"] = {
                "input": format_usd(cost["input"]),
                "output": format_usd(cost["output"]),
                "total": format_usd(cost["total"]),
                "per_tier": {t: format_usd(v) for t, v in cost["per_tier"].items()},
            }
        per_app_tokens = sorted(
            r.ledger.total_tokens for r in evaluated if r.ledger is not None
        )
        if per_app_tokens:
            summary["tokens"] = {
                "per_app_mean": statistics.mean(per_app_tokens),
                "per_app_median": statistics.median(per_app_tokens),
                "total": sum(per_app_tokens),
            }
    return summary


def emit_reports(results: list[EntryResult], pricing: PricingTable,
                 out_dir: str | Path) -> dict:
    """Write per-app reports, results.jsonl, summary.json and a digest, and
    delete the reports of apps this run did not evaluate."""
    if not results:
        raise ReportIoError("nothing to emit")
    out = Path(out_dir)
    if out.exists() and not out.is_dir():
        raise ReportIoError(f"output path {out} is not a directory")
    try:
        (out / "reports").mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ReportIoError(str(exc)) from exc

    summary = summarize(results, pricing)
    fresh = {f"{r.entry.app_id}.json": r.report for r in results if r.report is not None}
    try:
        for path in (out / "reports").glob("*.json"):
            if path.name not in fresh:
                path.unlink()
        for name, report in fresh.items():
            (out / "reports" / name).write_text(report.to_json(), encoding="utf-8")
        with (out / "results.jsonl").open("w", encoding="utf-8") as fh:
            for r in sorted(results, key=lambda x: x.entry.app_id):
                row = {
                    "app_id": r.entry.app_id,
                    "label": r.entry.label,
                    "year": r.entry.year,
                }
                if r.evaluated:
                    row["verdict"] = r.report.verdict
                    row["confidence"] = r.report.confidence
                    row["threat_category"] = r.report.threat_category
                    row["tokens"] = r.ledger.total_tokens
                else:
                    row["skipped"] = r.skip_reason
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        (out / "summary.json").write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        (out / "digest.txt").write_text(_digest(summary), encoding="utf-8")
    except OSError as exc:
        raise ReportIoError(str(exc)) from exc
    return summary


def _digest(summary: dict) -> str:
    lines = [
        f"evaluated: {summary['evaluated']}",
        f"skipped:   {len(summary['skipped'])}",
    ]
    metrics = summary.get("metrics")
    if metrics:
        rendered = ", ".join(
            f"{k}={'n/a' if v is None else format(v, '.4f')}" for k, v in metrics.items()
        )
        lines.append(f"metrics:   {rendered}")
    shares = summary.get("tier_shares")
    if shares:
        lines.append(
            "tier token shares: "
            + ", ".join(f"{t}={shares[t]:.3f}" for t in ("recon", "trace", "verdict"))
        )
    cost = summary.get("cost_usd")
    if cost:
        lines.append(f"cost: input=${cost['input']} output=${cost['output']} total=${cost['total']}")
    tokens = summary.get("tokens")
    if tokens:
        lines.append(
            f"tokens/app: mean={tokens['per_app_mean']:.1f} median={tokens['per_app_median']:.1f}"
        )
    return "\n".join(lines) + "\n"
