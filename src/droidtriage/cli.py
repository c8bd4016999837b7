"""Command-line surface: analyze, batch, stats, metrics."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .agents import Catalogs, PipelineBudgets, run_pipeline
from .config import load_config
from .errors import TriageError
from .harness import (
    BatchConfig,
    DatasetManifest,
    compute_metrics,
    confusion_counts,
    emit_reports,
    read_bundle,
    run_batch,
)
from .ir import LocDistribution, parse_program, validate


def _bundle_paths(bundle_dir: Path) -> tuple[Path, Path]:
    mmf = sorted(bundle_dir.glob("*.mmf"))
    mir = sorted(bundle_dir.glob("*.mir"))
    if len(mmf) != 1 or len(mir) != 1:
        raise TriageError(
            f"{bundle_dir} must contain exactly one .mmf and one .mir file"
        )
    return mmf[0], mir[0]


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _budgets(cfg_budgets: PipelineBudgets, args) -> PipelineBudgets:
    given = {"max_iterations": args.budget, "candidate_cap": args.cap}
    return replace(cfg_budgets, **{k: v for k, v in given.items() if v is not None})


def _backend_mode(name: str) -> str:
    return {"scripted": "scripted", "live": "http"}[name]


def cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    router = cfg.build_router(_backend_mode(args.backend))
    bundle = read_bundle(*_bundle_paths(Path(args.bundle_dir)))
    diags = validate(bundle)
    if diags:
        for d in diags:
            print(f"diagnostic: {d.code} at {d.where}: {d.message}", file=sys.stderr)
        return 2
    report, ledger = run_pipeline(
        bundle, Catalogs(cfg.api_catalog, cfg.entry_catalog), router,
        _budgets(cfg.budgets, args),
    )
    text = report.to_json()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")
    print(f"// tokens: {ledger.total_tokens}", file=sys.stderr)
    return 0


def cmd_batch(args) -> int:
    cfg = load_config(args.config)
    dataset = DatasetManifest.load(args.dataset)
    router = cfg.build_router(_backend_mode(args.backend))
    batch_cfg = BatchConfig(
        catalogs=Catalogs(cfg.api_catalog, cfg.entry_catalog),
        router=router,
        pricing=cfg.pricing,
        budgets=_budgets(cfg.budgets, args),
        jobs=args.jobs,
    )
    results = run_batch(dataset, batch_cfg)
    summary = emit_reports(results, cfg.pricing, args.out)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_stats(args) -> int:
    dataset = DatasetManifest.load(args.dataset)
    locs: list[int] = []
    failures: list[str] = []
    for entry in dataset.entries:
        try:
            program = parse_program(entry.ir_path.read_text("utf-8"))
        except (OSError, UnicodeDecodeError, TriageError) as exc:
            failures.append(f"{entry.app_id}: {exc}")
            continue
        locs.extend(m.loc for m in program.methods())
    if not locs:
        print(json.dumps({"methods": 0, "failures": failures}))
        return 1
    dist = LocDistribution(locs)
    out = {
        "methods": len(locs),
        "mean": round(dist.mean, 2),
        "percentiles": {
            str(p): dist.percentile(p) for p in (50, 80, 90, 95, 99, 100)
        },
        "histogram": [{"bucket": label, "count": n} for label, n in dist.histogram()],
        "failures": failures,
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_metrics(args) -> int:
    with open(args.results, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    pairs = [(row["verdict"], row["label"]) for row in rows if "verdict" in row]
    if not pairs:
        print(json.dumps({"evaluated": 0}))
        return 1
    confusion = confusion_counts(pairs)
    print(json.dumps(
        {"evaluated": len(pairs), "confusion": confusion.to_dict(),
         "metrics": compute_metrics(confusion).to_dict()},
        indent=2, sort_keys=True,
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="droidtriage",
        description="Tiered static-analysis + agent triage over textual app bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="triage a single bundle directory")
    p.add_argument("bundle_dir")
    p.add_argument("--config", default=None, help="config file (INI sections)")
    p.add_argument("--backend", choices=("scripted", "live"), default="scripted")
    p.add_argument("--out", default=None, help="also write the report here")
    p.add_argument("--budget", type=_at_least_one, default=None)
    p.add_argument("--cap", type=_at_least_one, default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("batch", help="evaluate a dataset index")
    p.add_argument("dataset")
    p.add_argument("--config", default=None, help="config file (INI sections)")
    p.add_argument("--backend", choices=("scripted", "live"), default="scripted")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--budget", type=_at_least_one, default=None, help="max agent iterations")
    p.add_argument("--cap", type=_at_least_one, default=None, help="candidate cap per app")
    p.add_argument("--jobs", type=_at_least_one, default=None)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("stats", help="function-size distribution of a dataset")
    p.add_argument("dataset")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("metrics", help="recompute metrics from results.jsonl")
    p.add_argument("results")
    p.set_defaults(func=cmd_metrics)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TriageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
