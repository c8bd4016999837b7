#!/usr/bin/env python3
"""Quick self-check of the triage benchmark.

1. Runs every workload for one second, untraced, and two of them traced,
   and requires a correct result with no failed app and exactly the metric
   names BENCHMARK.json lists.
2. Feeds each correctness check a real output and then a corrupted copy
   (a flipped verdict, one changed report byte, an off-by-one count...), and
   requires the check to pass the first and fire on the second.
3. Shows that the tracer reports a missing function as an absent layer.
4. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark, where it must fail without printing a result.

Usage: python3 triagebench/selfcheck.py      (from the root of a checkout)
"""

from __future__ import annotations

import copy
import json
import os
import random
import shutil
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def tiny_runs(spec: dict) -> None:
    runs = [(w, 0) for w in workloads.NAMES] + [("fixtures_scripted", 1), ("live_fixtures", 1)]
    for name, trace in runs:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "7",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            expect(False, f"{name} trace={trace}: no result line (exit {proc.returncode})\n"
                          + proc.stderr[-2000:])
            continue
        want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
        expect(proc.returncode == 0 and result["correct"] and result["failed"] == 0
               and result["attempted"] >= 1 and set(result["metrics"]) == want,
               f"{name} trace={trace}: correct={result['correct']} "
               f"attempted={result['attempted']} failed={result['failed']}")


def corrupted_outputs() -> None:
    from droidtriage import agents, backend, config, ir

    cfg = config.load_config()
    router = cfg.build_router("scripted")
    catalogs = agents.Catalogs(cfg.api_catalog, cfg.entry_catalog)
    prices = checks.ini_prices(ROOT / "src" / "droidtriage" / "data" / "default_config.ini")

    # a small hostile app: lattice of width 3, long method just past the taint span
    app = workloads.hostile_app(random.Random(7), 0, 3, workloads.HOSTILE_TAINT_SPAN + 40)
    rec = tracer_mod.Tracer()
    rec.install()
    try:
        bundle = ir.parse_bundle(app.manifest, app.ir, app_id=app.app_id)
        report, ledger = agents.run_pipeline(bundle, catalogs, router, cfg.budgets)
    finally:
        rec.uninstall()
    reports = {app.app_id: report.to_dict()}

    expect(not checks.verdicts([app], reports), "verdicts: real output passes")
    flipped = copy.deepcopy(reports)
    flipped[app.app_id]["verdict"] = "Benign"
    expect(bool(checks.verdicts([app], flipped)), "verdicts: flipped verdict fires")
    uncited = copy.deepcopy(reports)
    uncited[app.app_id]["evidence_chain"] = uncited[app.app_id]["evidence_chain"][1:]
    expect(bool(checks.verdicts([app], uncited)), "verdicts: planted site missing fires")

    expect(not checks.trigger_counts([app], rec.chain_counts), "trigger counts: real output passes")
    off = [(m, n + 1) for m, n in rec.chain_counts]
    expect(bool(checks.trigger_counts([app], off)), "trigger counts: one extra chain fires")
    expect(bool(checks.trigger_counts([app], [])), "trigger counts: lattice never walked fires")

    expect(not checks.slices([app], rec.slices), "slices: real output passes")
    short = [(t, kept[1:]) for t, kept in rec.slices]
    expect(bool(checks.slices([app], short)), "slices: one dropped line fires")

    cost = backend.cost_of(ledger, cfg.pricing)["total"]
    expect(not checks.ledger(app.app_id, ledger, cost, prices), "ledger: real output passes")
    expect(bool(checks.ledger(app.app_id, ledger, cost + Decimal("1e-12"), prices)),
           "ledger: cost off by 1e-12 USD fires")
    bad = backend.CostLedger()
    for ex in ledger.exchanges:
        bad.append(ex)
    bad.totals["trace"][0] += 1
    expect(bool(checks.ledger(app.app_id, bad, cost, prices)), "ledger: running total off by one fires")

    files = {"reports/a.json": report.to_json().encode(), "summary.json": b"{}\n"}
    expect(not checks.same_bytes("emitted", files, dict(files)), "bytes: identical output passes")
    changed = dict(files)
    body = bytearray(changed["reports/a.json"])
    body[len(body) // 2] ^= 1
    changed["reports/a.json"] = bytes(body)
    expect(bool(checks.same_bytes("emitted", files, changed)), "bytes: one changed report byte fires")
    expect(bool(checks.same_bytes("emitted", files, {"summary.json": b"{}\n"})),
           "bytes: missing report fires")

    n = len(ledger.exchanges)
    expect(not checks.requests_served(n, n), "stub count: one request per exchange passes")
    expect(bool(checks.requests_served(n + 1, n)), "stub count: a hidden retry fires")


def absent_layer() -> None:
    saved = tracer_mod.LAYERS
    tracer_mod.LAYERS = saved + (("droidtriage.analysis", "no_such_tool", "analysis.gone"),)
    try:
        t = tracer_mod.Tracer()
        t.install()
        t.uninstall()
    finally:
        tracer_mod.LAYERS = saved
    expect(any(a.startswith("analysis.gone") for a in t.absent),
           "tracer: a removed function is reported as an absent layer")


def stripped_checkout(scratch: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", scratch / "BENCHMARK.json")
    shutil.copytree(HERE, scratch / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(scratch / HERE.name / "run.py"), "--workload", "fixtures_scripted",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"benchmark alone: exits {proc.returncode} without a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tiny_runs(spec)
    corrupted_outputs()
    absent_layer()
    scratch = ROOT / ".triagebench_out" / f"selfcheck-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        stripped_checkout(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
