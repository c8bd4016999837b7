"""Dataset ingestion, batch execution, metrics and report emission.

A dataset is a CSV-like index of `app_id,manifest,ir,label,year` rows with
paths relative to the index file.  Entries are evaluated independently, and
overlap only while a live provider waits on the network (`overlap_map`).
Failures are recorded as skips and never abort the batch; all aggregation
happens after the full join, so results are invariant under entry order.
"""

from __future__ import annotations

import csv
import gc
import json
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .agents import Catalogs, PipelineBudgets, VerdictReport, overlap_map, run_pipeline
from .backend import TIERS, CostLedger, ModelRouter, PricingTable, cost_of, format_usd, tier_shares
from .errors import (ConfigError, InvalidBundleError, ReportIoError, TriageError,
                     UnreadableBundleError)
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
        try:
            with path.open(newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise ConfigError(f"dataset index unreadable: {path}: {exc}") from None
        for row_no, row in enumerate(rows, start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if len(row) != 5:
                raise ConfigError(f"{path}:{row_no}: expected 5 columns, got {len(row)}")
            app_id, mpath, ipath, label, year = (c.strip() for c in row)
            # the app_id names its report file, so it must be one name inside reports/
            if app_id in ("", ".", "..") or any(c in app_id for c in "/\\\0"):
                raise ConfigError(f"{path}:{row_no}: bad app_id {app_id!r}")
            if label not in LABELS:
                raise ConfigError(f"{path}:{row_no}: bad label {label!r}")
            if app_id in seen:
                raise ConfigError(f"{path}:{row_no}: duplicate app_id {app_id!r}")
            seen.add(app_id)
            try:
                year_n = int(year)
            except ValueError:
                raise ConfigError(f"{path}:{row_no}: bad year {year!r}") from None
            entries.append(DatasetEntry(app_id, base / mpath, base / ipath, label, year_n))
        return cls(entries)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def metrics(tp: int, tn: int, fp: int, fn: int) -> dict:
    """Accuracy, precision, recall and F1, in that order; None marks an undefined
    metric (zero denominator), which must never be conflated with 0."""
    total = tp + tn + fp + fn
    if total <= 0:
        raise ValueError("no evaluated entries")
    precision = tp / (tp + fp) if (tp + fp) > 0 else None
    recall = tp / (tp + fn) if (tp + fn) > 0 else None
    f1 = None
    if precision is not None and recall is not None and (precision + recall) > 0:
        f1 = 2 * precision * recall / (precision + recall)
    return {"accuracy": (tp + tn) / total, "precision": precision, "recall": recall, "f1": f1}


def scores(rows: Iterable[dict]) -> dict:
    """The confusion counts and metrics of the `results.jsonl` rows that have a
    verdict; the summary and `droidtriage metrics` both score rows with it."""
    n = Counter((row["verdict"] == "Malicious", row["label"] == "Malicious")
                for row in rows if "verdict" in row)
    confusion = {"tp": n[True, True], "tn": n[False, False], "fp": n[True, False],
                 "fn": n[False, True]}
    return {"confusion": confusion, "metrics": metrics(**confusion)}


# ---------------------------------------------------------------------------
# batch execution
# ---------------------------------------------------------------------------


@dataclass
class EntryResult:
    """What a batch keeps of an app: its report or skip, and its ledger, if any."""
    entry: DatasetEntry
    report: VerdictReport | None = None
    ledger: CostLedger | None = None
    skip_reason: str | None = None
    skip_class: str | None = None  # an error kind, or "internal-error"

    @property
    def evaluated(self) -> bool:
        return self.report is not None


@dataclass
class BatchConfig:
    catalogs: Catalogs
    router: ModelRouter
    pricing: PricingTable
    budgets: PipelineBudgets


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
    """Triage one app; unless the provider waits on the network, alone on this
    thread with the cyclic collector paused, since the program, indexes and
    analyses hold no reference cycle.  A collector disabled before the call
    stays so; one disabled during it is enabled at its end."""
    if paused := not cfg.router.waits_on_network and gc.isenabled():
        gc.collect(0)  # the last app's few cycles: a batch allocates nothing between apps
        gc.disable()
    ledger = CostLedger()  # a skip keeps what the app spent
    try:
        bundle = read_bundle(entry.manifest_path, entry.ir_path, app_id=entry.app_id)
        if diags := validate(bundle):
            raise InvalidBundleError("; ".join(f"{d.code}@{d.where}" for d in diags[:5]))
        report, _ = run_pipeline(bundle, cfg.catalogs, cfg.router, cfg.budgets, ledger=ledger)
        return EntryResult(entry, report=report, ledger=ledger)
    except Exception as exc:  # every failure is a classified skip, never fatal
        if isinstance(exc, TriageError):
            return EntryResult(entry, ledger=ledger, skip_reason=str(exc), skip_class=exc.kind)
        # a fault of the program, not of the app
        sys.stderr.write(f"{entry.app_id}: {traceback.format_exc()}")
        return EntryResult(entry, ledger=ledger, skip_reason=f"{type(exc).__name__}: {exc}",
                           skip_class="internal-error")
    finally:
        if paused:
            gc.enable()


def run_batch(dataset: DatasetManifest, cfg: BatchConfig) -> list[EntryResult]:
    if not dataset.entries:
        raise ConfigError("dataset is empty")
    for model_id in cfg.router.config.tier_models.values():
        cfg.pricing.rate(model_id)  # the summary prices every exchange: refuse before the first
    results = overlap_map(cfg.router, lambda e: _evaluate_entry(e, cfg), dataset.entries)
    return sorted(results, key=lambda r: r.entry.app_id)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def _row(r: EntryResult) -> dict:
    """An app's line in `results.jsonl`: its label and year, its verdict or its
    skip, and the tokens it spent, if it has a ledger."""
    row = {"app_id": r.entry.app_id, "label": r.entry.label, "year": r.entry.year}
    if r.evaluated:
        row["verdict"] = r.report.verdict
        row["confidence"] = r.report.confidence
        row["threat_category"] = r.report.threat_category
    else:
        row["skipped"] = r.skip_reason
        row["skip_class"] = r.skip_class
    if r.ledger is not None:
        row["tokens"] = r.ledger.total_tokens
    return row


def summarize(results: list[EntryResult], pricing: PricingTable) -> dict:
    """The batch's summary: counts, skips, scores and per-app tokens from the
    apps' `results.jsonl` rows; `cost_usd` and `tier_shares` from their ledgers,
    skipped apps' spend included."""
    rows = [_row(r) for r in sorted(results, key=lambda r: r.entry.app_id)]
    scored = [row for row in rows if "verdict" in row]
    summary: dict = {
        "evaluated": len(scored),
        "skipped": [{"app_id": row["app_id"], "class": row["skip_class"],
                     "reason": row["skipped"]} for row in rows if "verdict" not in row],
    }
    merged = CostLedger()
    merged.extend(r.ledger for r in results if r.ledger is not None)
    if merged.total_tokens > 0:
        summary["tier_shares"] = {t: round(v, 9) for t, v in tier_shares(merged).items()}
        cost = cost_of(merged, pricing)
        summary["cost_usd"] = {
            "input": format_usd(cost["input"]),
            "output": format_usd(cost["output"]),
            "total": format_usd(cost["total"]),
            "per_tier": {t: format_usd(v) for t, v in cost["per_tier"].items()},
        }
    if scored:
        summary.update(scores(scored))
        summary["per_year"] = {
            str(year): scores(row for row in scored if row["year"] == year)["metrics"]
            for year in sorted({row["year"] for row in scored})
        }
        if per_app_tokens := sorted(row["tokens"] for row in scored if "tokens" in row):
            summary["tokens"] = {
                "per_app_mean": statistics.mean(per_app_tokens),
                "per_app_median": statistics.median(per_app_tokens),
                "total": sum(per_app_tokens),
            }
    return summary


def output_dir(out_dir: str | Path) -> Path:
    """The output directory; a path that exists and is not one is refused."""
    out = Path(out_dir)
    if out.exists() and not out.is_dir():
        raise ReportIoError(f"output path {out} is not a directory")
    return out


def emit_reports(results: list[EntryResult], pricing: PricingTable,
                 out_dir: str | Path) -> dict:
    """Write per-app reports, results.jsonl, summary.json and a digest, and
    delete the reports of apps this run did not evaluate."""
    if not results:
        raise ReportIoError("nothing to emit")
    out = output_dir(out_dir)
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
                fh.write(json.dumps(_row(r), sort_keys=True) + "\n")
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
    classes = Counter(str(s["class"]) for s in summary["skipped"])
    lines += [f"  {cls}: {n}" for cls, n in sorted(classes.items())]
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
            + ", ".join(f"{t}={shares[t]:.3f}" for t in TIERS)
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
