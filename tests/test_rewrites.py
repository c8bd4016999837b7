"""A rewrite that keeps a program's meaning keeps its report and its cost."""

from __future__ import annotations

import random
from pathlib import Path

from droidtriage.agents import Catalogs, run_pipeline
from droidtriage.catalog import ApiCatalog
from droidtriage.config import load_config
from droidtriage.ir import parse_bundle, parse_program

from genprog import SYNTH_CATALOG_TEXT, dag_manifest_text, gen_cyclic_program
from oracles import render_program
from rewrites import reorder

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CFG = load_config()
SEEDS = range(8)


def _triage(manifest: str, ir_text: str, catalogs: Catalogs) -> tuple[str, dict]:
    bundle = parse_bundle(manifest, ir_text, app_id="app")
    report, ledger = run_pipeline(bundle, catalogs, CFG.build_router("scripted"), CFG.budgets)
    return report.to_json(), ledger.totals


def _assert_reorders_keep_triage(manifest: str, ir_text: str, catalogs: Catalogs) -> int:
    """Triage the program and its reorders; the number of reorders that moved
    a class or a method."""
    want = _triage(manifest, ir_text, catalogs)
    canonical = render_program(parse_program(ir_text))
    moved = 0
    for seed in SEEDS:
        text = reorder(ir_text, random.Random(seed))
        moved += text != canonical
        assert _triage(manifest, text, catalogs) == want, seed
    return moved


def test_reorder_keeps_each_fixture_report():
    catalogs = Catalogs(CFG.api_catalog, CFG.entry_catalog)
    moved = 0
    for d in sorted(p for p in FIXTURES.iterdir() if p.is_dir()):
        manifest = (d / "app.mmf").read_text()
        moved += _assert_reorders_keep_triage(manifest, (d / "app.mir").read_text(), catalogs)
    assert moved > 0


def test_reorder_keeps_a_generated_report():
    # 28 methods calling each other in cycles, so file order and rendering
    # order part (N2 before N10), and one candidate per method that reads
    # the source
    text, _edges, _site = gen_cyclic_program(random.Random(0), 30, values=True)
    n = text.count("class ")
    catalog = ApiCatalog.parse(SYNTH_CATALOG_TEXT + "perm:READ_SMS->ext.api.Src.read()->string\n")
    catalogs = Catalogs(catalog, CFG.entry_catalog)
    manifest = dag_manifest_text(n) + "permission:READ_SMS\n"
    report, _totals = _triage(manifest, text, catalogs)
    assert n > 10 and report.count('"candidate"') > 1
    assert _assert_reorders_keep_triage(manifest, text, catalogs) == len(SEEDS)
