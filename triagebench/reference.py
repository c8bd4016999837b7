#!/usr/bin/env python3
"""Reference figures for the baseline rows of ROADMAP.md, taken through the
benchmark's tracer: trigger_paths on call lattices of width 4 and 8 at depth
5, backward_slice on straight-line methods of 1,000 and 2,000 lines and
parse / call graph / API index on a program of 551 methods, both from the
test suite's generator (tests/genprog.py, read only) as in the baseline,
backward_slice on the hostile_apps folded method of the same lengths, and
the live fixture batch at 50 ms per request with 1, 2 and 6 callers.

Usage: python3 triagebench/reference.py      (from the root of a checkout)
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "tests"))

import genprog  # noqa: E402
import oracles  # noqa: E402
import stub  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

REPEATS = 3
INDEX_METHODS = 551
INDEX_MAX_LINES = 40  # genprog draws each method's length from 1..max_lines
GENPROG_MANIFEST = "package: g\ncategory: generated\ndescription: synthetic\n"


def traced_ms(layer: str, call) -> tuple[float, object]:
    """Mean ms per call of `layer` over REPEATS calls, and the last result."""
    t = Tracer()
    t.install()
    try:
        for _ in range(REPEATS):
            result = call()
    finally:
        t.uninstall()
    return 1000.0 * t.busy[layer] / t.calls[layer], result


def genprog_text(max_methods: int, max_lines: int, n_methods: int, n_lines: int | None) -> str:
    """Straight-line genprog text of exactly n_methods methods (and, when
    given, a first method of n_lines lines). gen_program draws the method
    count, the parameter counts and then the first method's length, so the
    first seed whose leading draws match is taken."""
    for seed in range(1_000_000):
        rng = random.Random(seed)
        if rng.randint(1, max_methods) != n_methods:
            continue
        for _ in range(n_methods):
            rng.randint(0, 3)
        if n_lines is None or rng.randint(1, max_lines) == n_lines:
            return genprog.gen_program(random.Random(seed), max_methods, max_lines,
                                       straight_line=True)
    raise RuntimeError("no genprog seed gives that shape")


def main() -> int:
    from droidtriage import agents, analysis, config, harness, index, ir
    from droidtriage.index import CallSite

    cfg = config.load_config()
    rng = random.Random(1)
    short = workloads.HOSTILE_TAINT_SPAN + 40

    print("| trigger_paths lattice width | nodes | chains | ms/call |")
    print("|---|---|---|---|")
    for width in (4, 8):
        app = workloads.hostile_app(rng, 0, width, short)
        bundle = ir.parse_bundle(app.manifest, app.ir)
        graph = index.build_call_graph(bundle.program)
        entry = cfg.entry_catalog.bound(bundle.manifest)
        collect = next(m for m in app.chains if ".net.Core.collect" in m)
        callee = ir.parse_sig("android.location.LocationManager.getLastKnownLocation(string)->location")
        site = CallSite(ir.parse_sig(collect), 1, callee, "loc")
        ms, chains = traced_ms("analysis.trigger_paths", lambda: analysis.trigger_paths(
            graph, site, entry, workloads.TRIGGER_DEPTH))
        nodes = workloads.LATTICE_LAYERS * width + 1
        print(f"| {width} | {nodes} | {len(chains):,} | {ms:.1f} |")

    print("\n| backward_slice, straight-line genprog method lines | kept lines | = oracles.slice_scan | ms/call |")
    print("|---|---|---|---|")
    for lines in (1000, 2000):
        program = ir.parse_program(genprog_text(1, lines, 1, lines))
        method = program.methods()[0]
        # slice from the last line that uses a variable
        target = next(st for st in reversed(method.body) if ir.used_vars(st))
        var = sorted(ir.used_vars(target))[0]
        ms, sl = traced_ms("analysis.slice", lambda: analysis.backward_slice(
            program, method.signature, target.line, var))
        same = set(sl.kept_lines) == oracles.slice_scan(method, target.line)
        print(f"| {len(method.body):,} | {len(sl.kept_lines):,} | {same} | {ms:.1f} |")

    print("\n| backward_slice, hostile_apps folded method lines | kept lines | ms/call |")
    print("|---|---|---|")
    for lines in (1000, 2000):
        app = workloads.hostile_app(rng, 0, 2, lines)
        bundle = ir.parse_bundle(app.manifest, app.ir)
        target = next(t for t in app.slices if ".ui.MainActivity.onCreate" in t)
        sig_text, line = target.rsplit(":", 1)
        ms, sl = traced_ms("analysis.slice", lambda: analysis.backward_slice(
            bundle.program, ir.parse_sig(sig_text), int(line), "id"))
        print(f"| {lines:,} | {len(sl.kept_lines):,} | {ms:.1f} |")

    # method counts are drawn from 1..max_methods; 551 sits in the middle of that range
    text = genprog_text(INDEX_METHODS * 2 - 1, INDEX_MAX_LINES, INDEX_METHODS, None)
    ms_parse, bundle = traced_ms("ir.parse", lambda: ir.parse_bundle(GENPROG_MANIFEST, text))
    program = bundle.program
    ms_graph, _g = traced_ms("index.call_graph", lambda: index.build_call_graph(program))
    ms_index, _i = traced_ms("index.api_index",
                             lambda: index.build_api_index(program, cfg.api_catalog))
    methods = program.methods()
    print("\n| straight-line genprog program | methods | statements | parse ms | call graph ms | API index ms |")
    print("|---|---|---|---|---|---|")
    print(f"| gen_program | {len(methods)} | {sum(len(m.body) for m in methods):,} | "
          f"{ms_parse:.0f} | {ms_graph:.0f} | {ms_index:.0f} |")

    proc, url = stub.start(ROOT)
    try:
        for mc in cfg.router.models.values():
            mc.base_url = url
        batch = harness.BatchConfig(agents.Catalogs(cfg.api_catalog, cfg.entry_catalog),
                                    cfg.build_router("http"), cfg.pricing, cfg.budgets)
        dataset = harness.DatasetManifest.load(ROOT / "fixtures" / "corpus.idx")
        print("\n| live fixture batch, 50 ms/request, jobs | exchanges | wall s |")
        print("|---|---|---|")
        for jobs in (1, 2, 6):
            batch.jobs = jobs
            t0 = time.perf_counter()
            results = harness.run_batch(dataset, batch)
            wall = time.perf_counter() - t0
            exchanges = sum(len(r.ledger.exchanges) for r in results if r.ledger is not None)
            print(f"| {jobs} | {exchanges} | {wall:.2f} |")
    finally:
        stub.stop(proc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
