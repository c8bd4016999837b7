#!/usr/bin/env python3
"""Triage benchmark: end-to-end and per-layer figures for droidtriage.

    python3 triagebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. One operation is one app of a dataset index
(`DatasetManifest.load`) triaged by `harness._evaluate_entry`: read the bundle
files, `ir.parse_bundle`, `ir.validate`, `agents.run_pipeline`. Passes over the
workload's apps run in a closed loop, and `harness.emit_reports` writes each
pass's outputs. Outputs are checked outside the timed region. The last line
of standard output is one JSON object: with --trace 0 it carries the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from decimal import Decimal
from pathlib import Path

import checks
import stub
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ".triagebench_out"
SETUP_PROBES = 7
CONFIG_LOADS = 5


def setup_seconds(live: bool) -> float:
    """Median over fresh processes of the time from process start to ready."""
    times = []
    cmd = [sys.executable, str(HERE / "probe.py"), "--root", str(ROOT)] + (["--live"] if live else [])
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
        times.append(t1 - t0)
    return statistics.median(times)


class Bench:
    """Drives passes over one workload with one router."""

    def __init__(self, wl, cfg, router, emit_dir: Path):
        from droidtriage import agents, harness

        # calls go through the module, so the tracer's wrappers are seen
        self.harness = harness
        self.wl = wl
        self.cfg = cfg
        self.router = router
        self.catalogs = agents.Catalogs(cfg.api_catalog, cfg.entry_catalog)
        self.entries = harness.DatasetManifest.load(wl.index).entries
        self.emit_dir = emit_dir
        self.tracer: Tracer | None = None
        self.windows: list[tuple[str, float, float]] = []  # per-op (app, start, end)

    def triage(self, entry, batch):
        """One operation: the harness's own per-entry path. Returns the result
        and its latency, or None for an app that was skipped or raised."""
        if self.tracer is not None:
            self.tracer.set_app(entry.app_id)
        t0 = time.perf_counter()
        try:
            result = self.harness._evaluate_entry(entry, batch)
        except Exception as exc:  # escaping the harness is a fault; counted, not fatal
            result = self.harness.EntryResult(entry, skip_reason=f"{type(exc).__name__}: {exc}")
        t1 = time.perf_counter()
        if not result.evaluated:
            print(f"failed {entry.app_id}: {result.skip_reason}", file=sys.stderr)
            return result, None
        if self.tracer is not None:
            self.windows.append((entry.app_id, t0, t1))
        return result, t1 - t0

    def run_pass(self, router=None):
        """One pass over every app, then emission. Returns results, per-app
        latencies (None for a failed app) and the pass's wall seconds."""
        batch = self.harness.BatchConfig(self.catalogs, router or self.router,
                                         self.cfg.pricing, self.cfg.budgets)
        n = len(self.entries)
        out: list = [None] * n
        t0 = time.perf_counter()
        if self.wl.callers == 1:
            for i, entry in enumerate(self.entries):
                out[i] = self.triage(entry, batch)
        else:
            lock = threading.Lock()
            pending = iter(range(n))

            def caller():
                while True:
                    with lock:
                        i = next(pending, None)
                    if i is None:
                        return
                    out[i] = self.triage(self.entries[i], batch)

            threads = [threading.Thread(target=caller) for _ in range(self.wl.callers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        results = [r for r, _lat in out]
        self.harness.emit_reports(results, self.cfg.pricing, self.emit_dir)
        return results, [lat for _r, lat in out], time.perf_counter() - t0

    def emitted(self) -> dict[str, bytes]:
        files = {}
        for dirpath, _dirs, names in os.walk(self.emit_dir):
            for name in names:
                p = Path(dirpath) / name
                files[str(p.relative_to(self.emit_dir))] = p.read_bytes()
        return files


def reports_of(results) -> dict[str, dict]:
    return {r.entry.app_id: r.report.to_dict() for r in results if r.report is not None}


def timed_phase(bench, seconds: float, prices, reference, live_url, problems) -> dict:
    """Closed-loop passes until `seconds` have gone by. Only the passes are
    timed; each pass's outputs are recorded and checked after its clock stops."""
    from droidtriage import backend

    st = dict(lat_by_app={}, tokens=[], usd=[], pass_rate=[], n_ops=0, failed=0, served=0)
    deadline = time.perf_counter() + seconds
    while True:
        served0 = stub.served(live_url) if live_url else 0
        results, lats, secs = bench.run_pass()
        st["pass_rate"].append(sum(lat is not None for lat in lats) / secs)
        exchanges = 0
        for r, lat in zip(results, lats):
            st["n_ops"] += 1
            if lat is None:
                st["failed"] += 1
                continue
            st["lat_by_app"].setdefault(r.entry.app_id, []).append(lat)
            st["tokens"].append(r.ledger.total_tokens)
            cost = backend.cost_of(r.ledger, bench.cfg.pricing)["total"]
            st["usd"].append(cost)
            exchanges += len(r.ledger.exchanges)
            problems += checks.ledger(r.entry.app_id, r.ledger, cost, prices)
        problems += checks.same_bytes("emitted output", reference, bench.emitted())
        if live_url:
            served = stub.served(live_url) - served0
            st["served"] += served
            problems += checks.requests_served(served, exchanges)
        if time.perf_counter() >= deadline:
            return st


def reference_pass(bench, cfg, live_url, problems) -> dict[str, bytes]:
    """Untimed first pass: warms caches and is checked against the workload's
    construction; every timed pass must then emit the same bytes."""
    wl = bench.wl
    recorder = Tracer()
    recorder.install()
    served0 = stub.served(live_url) if live_url else 0
    try:
        results, _lat, _s = bench.run_pass()
    finally:
        recorder.uninstall()
    reports = reports_of(results)
    problems += checks.verdicts(wl.apps, reports)
    problems += checks.trigger_counts(wl.apps, recorder.chain_counts)
    problems += checks.slices(wl.apps, recorder.slices)
    reference = bench.emitted()
    if live_url:
        problems += checks.requests_served(
            stub.served(live_url) - served0,
            sum(len(r.ledger.exchanges) for r in results if r.ledger is not None))
        scripted, _lat, _s = bench.run_pass(cfg.build_router("scripted"))
        as_bytes = lambda reps: {k: json.dumps(v, sort_keys=True).encode() for k, v in reps.items()}
        problems += checks.same_bytes("live vs scripted report",
                                      as_bytes(reports_of(scripted)), as_bytes(reports))
        problems += [f"{r.entry.app_id}: live tokens differ from scripted"
                     for r, s in zip(results, scripted)
                     if r.ledger is None or s.ledger is None or r.ledger.totals != s.ledger.totals]
    return reference


def run(args, out: Path) -> int:
    wl = workloads.build(args.workload, args.seed, ROOT, out / "inputs")
    setup_s = setup_seconds(wl.live)

    from droidtriage import config

    prices = checks.ini_prices(ROOT / "src" / "droidtriage" / "data" / "default_config.ini")
    problems: list[str] = []
    stats = {}
    tracer = Tracer()
    stub_proc = live_url = None
    try:
        cfg = config.load_config()
        if wl.live:
            stub_proc, live_url = stub.start(ROOT)
            for mc in cfg.router.models.values():
                mc.base_url = live_url
            router = cfg.build_router("http")
        else:
            router = cfg.build_router("scripted")
        bench = Bench(wl, cfg, router, out / "emit")
        reference = reference_pass(bench, cfg, live_url, problems)
        if args.trace:
            stats["untraced"] = timed_phase(bench, args.seconds / 2, prices, reference,
                                            live_url, problems)
            tracer.install()
            bench.tracer = tracer
            try:
                stats["traced"] = timed_phase(bench, args.seconds / 2, prices, reference,
                                              live_url, problems)
            finally:
                tracer.uninstall()
            loads = Tracer()
            loads.install()
            for _ in range(CONFIG_LOADS):
                config.load_config()
            loads.uninstall()
            load_ms = 1000.0 * loads.busy["config.load"] / max(1, loads.calls["config.load"])
        else:
            stats["untraced"] = timed_phase(bench, args.seconds, prices, reference,
                                            live_url, problems)
    finally:
        if stub_proc is not None:
            stub.stop(stub_proc)

    base = stats["untraced"]
    # the median pass's rate: a burst of load from outside moves a few passes, not the figure
    apps_per_s = statistics.median(base["pass_rate"])
    all_lat = sorted(x for xs in base["lat_by_app"].values() for x in xs)
    print(f"workload {wl.name}: {len(wl.apps)} app(s), {wl.callers} caller(s), seed {args.seed}, "
          f"{len(base['pass_rate'])} timed pass(es), {base['n_ops']} app(s) triaged")
    for q, need in ((99, 1000), (90, 100)):
        if len(all_lat) >= need:
            tail = statistics.quantiles(all_lat, n=100)[q - 1]
            print(f"latency p{q}: {tail * 1000:.3f} ms over {len(all_lat)} samples (reference only)")
            break
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)

    if args.trace:
        traced = stats["traced"]
        traced_rate = statistics.median(traced["pass_rate"])
        metrics = {"config.load_ms": load_ms}
        metrics.update(tracer.metrics(traced["n_ops"], len(traced["pass_rate"])))
        exchanges = tracer.calls["backend.complete"]
        metrics["backend.http_requests_per_exchange"] = traced["served"] / exchanges if exchanges else 0.0
        metrics["backend.exchange_concurrency"] = tracer.exchange_concurrency(bench.windows)
        metrics["trace.overhead_apps_per_s"] = apps_per_s - traced_rate
        print(f"tracing overhead: untraced {apps_per_s:.2f} apps/s, traced {traced_rate:.2f} apps/s "
              f"({100.0 * (apps_per_s - traced_rate) / apps_per_s:.1f}%)")
        for layer in tracer.absent:
            print(f"absent layer: {layer}")
        units = {m["name"]: m["unit"]
                 for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        shown = {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()}
    else:
        per_app_p50 = [statistics.median(xs) for xs in base["lat_by_app"].values()]
        n = max(1, len(base["tokens"]))
        shown = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "apps_per_s": {"value": apps_per_s, "unit": "1/s"},
            # each app's median, averaged over the apps: all apps' samples count,
            # and the figure never sits on the gap between two apps' sizes
            "app_latency_p50_ms": {"value": 1000.0 * statistics.fmean(per_app_p50 or [0.0]),
                                   "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "tokens_per_app": {"value": sum(base["tokens"]) / n, "unit": "tokens/app"},
            "usd_per_app": {"value": float(sum(base["usd"], Decimal(0)) / n), "unit": "USD/app"},
        }
    for name, m in shown.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    attempted = sum(st["n_ops"] for st in stats.values())
    failed = sum(st["failed"] for st in stats.values())
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": shown}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "droidtriage" / "__init__.py").is_file() or \
            not (ROOT / "fixtures" / "corpus.idx").is_file():
        print("triagebench: no program here; run from a checkout holding "
              "src/droidtriage and fixtures/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out = ROOT / OUT_DIR / f"{args.workload}-{os.getpid()}"
    try:
        return run(args, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
