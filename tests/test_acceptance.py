"""Acceptance gate: ten criteria, each with its stated tolerance and runtime
budget.  Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion."""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from decimal import Decimal
from pathlib import Path

from droidtriage.agents import Catalogs, RiskSignal, ToolBox, recon_screen, trace_candidate
from droidtriage.analysis import extract_context, replay_witness, taint_reachability, trigger_paths
from droidtriage.backend import CostLedger, Exchange, PricingTable, cost_of, format_usd, tier_shares
from droidtriage.catalog import EntryCatalog
from droidtriage.cli import main
from droidtriage.config import load_config
from droidtriage.harness import (
    BatchConfig,
    DatasetManifest,
    emit_reports,
    metrics,
    run_batch,
)
from droidtriage.index import CallSite, build_api_index, build_call_graph
from droidtriage.ir import AppBundle, Invoke, Manifest, parse_bundle, parse_program, parse_sig

from genprog import dag_manifest_text, gen_dag_program, gen_program, synth_catalog
from oracles import defined_var, index_scan, slice_scan, taint_scan, trigger_scan, used_vars

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CFG = load_config()


@contextmanager
def criterion(n: int, name: str, limit_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {n:02d}] {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < limit_s, f"criterion {n} took {elapsed:.1f}s (limit {limit_s}s)"
    print(f"[criterion {n:02d}] {name}: PASS ({elapsed:.2f}s < {limit_s:.0f}s)")


def _batch_config() -> BatchConfig:
    return BatchConfig(
        catalogs=Catalogs(CFG.api_catalog, CFG.entry_catalog),
        router=CFG.build_router("scripted"),
        pricing=CFG.pricing,
        budgets=CFG.budgets,
    )


# 1 ---------------------------------------------------------------------------


def test_criterion_1_metric_arithmetic():
    """Published row 94.35/89.29/98.04/93.46 over 124 samples.

    Derivation of the counts (documented in the README as well): recall
    98.04% with an integer split forces tp/(tp+fn) = 50/51; precision
    89.29% then forces fp = 6 (50/56 = 0.892857); accuracy 94.35% over
    (50 + fn + 6 + tn) forces tn = 67 and total 124 (117/124 = 0.943548).
    """
    with criterion(1, "metric arithmetic reproduces published row", 1.0):
        m = metrics(tp=50, tn=67, fp=6, fn=1)
        for got, want in (
            (m["accuracy"], 94.35),
            (m["precision"], 89.29),
            (m["recall"], 98.04),
            (m["f1"], 93.46),
        ):
            assert abs(100 * got - want) <= 0.005, (got, want)


# 2 ---------------------------------------------------------------------------


def test_criterion_2_index_oracle_equivalence():
    with criterion(2, "index rows equal exhaustive scans (200 programs)", 30.0):
        rng = random.Random(1002)
        catalog = synth_catalog()
        for _ in range(200):
            program = parse_program(gen_program(rng, max_methods=50, max_lines=40))
            index = build_api_index(program, catalog)
            got = {str(callee): [(str(caller), line) for caller, line, _stmt in rows]
                   for callee, rows in index.sites.items()}
            assert list(got.items()) == list(index_scan(program, catalog).items())
            assert parse_sig("ext.api.Never.called()->void") not in index.sites


# 3 ---------------------------------------------------------------------------


def test_criterion_3_taint_oracle_equivalence():
    with criterion(3, "taint sinks equal brute-force oracle + witnesses replay", 120.0):
        rng = random.Random(1003)
        catalog = synth_catalog()
        programs = 0
        while programs < 200:
            program = parse_program(gen_program(rng, max_methods=10, max_lines=20))
            sources = [
                CallSite(m.signature, line, s.callee, s.dst)
                for m in program.methods()
                for line, s in enumerate(m.body, 1)
                if isinstance(s, Invoke) and s.dst is not None
            ]
            if not sources:
                continue
            programs += 1
            for site in sources[:2]:
                result = taint_reachability(program, site, catalog)
                got = {(str(h.site.method), h.site.line) for h in result}
                want = taint_scan(program, catalog, site.method, site.line)
                assert got == want
                for hit in result:
                    assert replay_witness(program, catalog, site, hit.witness), hit


# 4 ---------------------------------------------------------------------------


def test_criterion_4_slice_and_trigger_oracles():
    with criterion(4, "slice closure + trigger enumeration oracles", 60.0):
        rng = random.Random(1004)
        from droidtriage.analysis import backward_slice
        from droidtriage.ir import parse_manifest

        slices_checked = 0
        for _ in range(200):
            program = parse_program(
                gen_program(rng, max_methods=3, max_lines=30, straight_line=True)
            )
            for m in program.methods():
                stmt = m.body[-1]
                var = defined_var(stmt) or next(iter(used_vars(stmt)), None)
                if var is None:
                    continue
                got = backward_slice(program, m.signature, len(m.body), var)
                assert set(got.kept_lines) == slice_scan(m, len(m.body))
                slices_checked += 1
        assert slices_checked >= 200

        entry_rules = EntryCatalog.parse(
            "user:onClick\nsystem:onReceive@Receiver\n"
            "system:onStartCommand@Service\nlifecycle:onCreate\n"
        )
        for _ in range(100):
            text, edges, site_idx = gen_dag_program(rng, max_nodes=30)
            program = parse_program(text)
            graph = build_call_graph(program)
            catalog = entry_rules.bound(
                parse_manifest(dag_manifest_text(len(program.methods())))
            )
            sig_of = {i: str(m.signature) for i, m in enumerate(program.methods())}
            m = program.methods()[site_idx]
            site = CallSite(m.signature, len(m.body), m.body[-1].callee, None)
            depth = rng.choice((2, 4, 6))
            chains = trigger_paths(graph, site, catalog, max_depth=depth)
            got = [(tuple(str(x) for x in c.path), c.entry_kind) for c in chains]
            want = trigger_scan(
                [(sig_of[a], sig_of[b]) for a, b in edges],
                str(m.signature),
                lambda name: catalog.classify(parse_sig(name)),
                depth,
            )
            assert got == want


# 5 ---------------------------------------------------------------------------


def _window_method(n_lines: int, call_line: int):
    lines = []
    for i in range(1, n_lines + 1):
        if i == call_line:
            lines.append("    r = call ext.api.Src.read()->string()")
        else:
            lines.append(f"    v{i % 7} = const {i}")
    text = "class w.M {\n  method w.M.f()->string () {\n" + "\n".join(lines) + "\n  }\n}\n"
    program = parse_program(text)
    site = CallSite(parse_sig("w.M.f()->string"), call_line,
                    parse_sig("ext.api.Src.read()->string"), "r")
    return program, site


def _check_window(n: int, s: int) -> None:
    program, site = _window_method(n, s)
    w = extract_context(program, site, radius=20)
    assert w.end_line - w.start_line + 1 <= 41
    assert w.start_line == max(1, s - 20) and w.end_line == min(n, s + 20)
    assert w.start_line <= s <= w.end_line
    bundle = AppBundle("w", Manifest("w", "", "", [], []), program)
    signal = RiskSignal("READ_SMS", "reads the source", "High")
    box = ToolBox(bundle, build_call_graph(program), CFG.api_catalog, CFG.entry_catalog, site,
                  signal)
    obs, _text = box.dispatch("extract_context", {"radius": 20})
    assert (obs["start_line"], obs["end_line"]) == (w.start_line, w.end_line)
    assert len(obs["lines"]) == w.end_line - w.start_line + 1
    partial = w.start_line > 1 or w.end_line < n
    assert w.truncated_head == ((s - 20 < 1) and partial)
    assert w.truncated_tail == ((s + 20 > n) and partial)


def test_criterion_5_window_contract():
    with criterion(5, "context windows: width/containment/truncation flags", 10.0):
        for n in range(1, 61):  # exhaustive to length 60
            for s in range(1, n + 1):
                _check_window(n, s)
        rng = random.Random(1005)
        for _ in range(80):  # sampled above
            n = rng.randint(61, 200)
            _check_window(n, rng.randint(1, n))


# 6 ---------------------------------------------------------------------------


def test_criterion_6_end_to_end_determinism(tmp_path):
    with criterion(6, "fixture batch: F1=1.0 and byte-identical reruns", 10.0):
        ds = DatasetManifest.load(FIXTURES / "corpus.idx")
        outputs = []
        for run_dir in ("run_a", "run_b"):
            results = run_batch(ds, _batch_config())
            summary = emit_reports(results, CFG.pricing, tmp_path / run_dir)
            assert summary["metrics"]["f1"] == 1.0
            assert summary["metrics"]["accuracy"] == 1.0
            blob = {}
            for p in sorted((tmp_path / run_dir).rglob("*")):
                if p.is_file():
                    blob[str(p.relative_to(tmp_path / run_dir))] = p.read_bytes()
            outputs.append(blob)
        assert outputs[0] == outputs[1]


# 7 ---------------------------------------------------------------------------


def test_criterion_7_tier_share_shape():
    with criterion(7, "tier-2 share >= 0.80 and tier-3 share <= 0.05", 10.0):
        ds = DatasetManifest.load(FIXTURES / "corpus.idx")
        results = run_batch(ds, _batch_config())
        merged = CostLedger()
        merged.extend(r.ledger for r in results)
        shares = tier_shares(merged)
        assert shares["trace"] >= 0.80, shares
        assert shares["verdict"] <= 0.05, shares
        assert abs(sum(shares.values()) - 1.0) < 1e-9


# 8 ---------------------------------------------------------------------------


def test_criterion_8_cost_arithmetic():
    with criterion(8, "cost arithmetic hits $0.075/$0.007 inside the envelope", 1.0):
        pricing = PricingTable()
        pricing.set("scout-mini", "0.10", "0.20")
        pricing.set("coder-small", "0.10", "0.10")
        pricing.set("judge-pro", "2.00", "2.00")
        ledger = CostLedger()
        for tier, in_tok, out_tok, model in (("recon", 50_000, 5_000, "scout-mini"),
                                             ("trace", 650_000, 40_000, "coder-small"),
                                             ("verdict", 2_500, 1_000, "judge-pro")):
            ledger.append(Exchange(tier=tier, response="", input_tokens=in_tok,
                                   output_tokens=out_tok, model_id=model, latency_s=0.0))
        cost = cost_of(ledger, pricing)
        assert format_usd(cost["input"]) == "0.075000"
        assert format_usd(cost["output"]) == "0.007000"
        assert Decimal("0.0675") <= cost["input"] <= Decimal("0.0825")
        assert Decimal("0.004") <= cost["output"] <= Decimal("0.011")
        assert cost["total"] < Decimal("0.10")


# 9 ---------------------------------------------------------------------------


def test_criterion_9_loc_statistics(tmp_path, capsys):
    with criterion(9, "stats reports 80th=31 and 90th=51 on the built corpus", 5.0):
        locs = [5, 8, 12, 17, 22, 26, 29, 31, 51, 60]
        chunks = ["class syn.C {"]
        for i, n in enumerate(locs):
            chunks.append(f"  method syn.C.f{i}()->void () {{")
            chunks.extend(["    nop"] * n)
            chunks.append("  }")
        chunks.append("}")
        (tmp_path / "syn.mir").write_text("\n".join(chunks) + "\n")
        (tmp_path / "syn.mmf").write_text("package: syn\ncategory: x\ndescription: y\n")
        idx = tmp_path / "syn.idx"
        idx.write_text("syn,syn.mmf,syn.mir,Benign,2020\n")
        rc = main(["stats", str(idx)])
        assert rc == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["percentiles"]["80"] == 31
        assert stats["percentiles"]["90"] == 51


# 10 --------------------------------------------------------------------------


def test_criterion_10_batch_robustness(tmp_path):
    with criterion(10, "batch survives unparseable bundle + in-session ToolError", 10.0):
        (tmp_path / "broken.mmf").write_text("package: broken\ncategory: x\ndescription: y\n")
        (tmp_path / "broken.mir").write_text("class Broken {\n  method nope\n")
        rows = ["broken,broken.mmf,broken.mir,Benign,2020"]
        for app in ("fx_clean", "fx_dialerspy", "fx_smsleak"):
            rows.append(
                f"{app},{FIXTURES}/{app}/app.mmf,{FIXTURES}/{app}/app.mir,"
                + ("Benign" if app == "fx_clean" else "Malicious")
                + ",2020"
            )
        idx = tmp_path / "mixed.idx"
        idx.write_text("\n".join(rows) + "\n")
        results = run_batch(DatasetManifest.load(idx), _batch_config())
        by_id = {r.entry.app_id: r for r in results}
        assert not by_id["broken"].evaluated
        assert "broken" in by_id["broken"].skip_reason or "line" in by_id["broken"].skip_reason
        assert by_id["broken"].skip_class == "bundle-invalid"
        for app in ("fx_clean", "fx_dialerspy", "fx_smsleak"):
            assert by_id[app].evaluated, app

        # fx_dialerspy's second candidate is a sink call without a result
        # variable: the taint tool errors inside the session and the error is
        # recorded as an observation while the session still concludes.
        bundle = parse_bundle(
            (FIXTURES / "fx_dialerspy" / "app.mmf").read_text(),
            (FIXTURES / "fx_dialerspy" / "app.mir").read_text(),
            app_id="fx_dialerspy",
        )
        graph = build_call_graph(bundle.program)
        index = build_api_index(bundle.program, CFG.api_catalog)
        router = CFG.build_router("scripted")
        recon = recon_screen(bundle.manifest, index, CFG.api_catalog, router, 15, CostLedger())
        site = list(recon.candidates)[1]
        assert site.result_var is None
        box = ToolBox(
            bundle, graph, CFG.api_catalog, CFG.entry_catalog.bound(bundle.manifest), site,
            recon.candidates[site],
        )
        trace_candidate(box, router, 8)
        observations = [json.loads(text) for role, text in box.transcript[2:] if role == "user"]
        assert any("error" in obs for obs in observations if obs["tool"] == "taint_reachability")
        role, last = box.transcript[-1]
        assert role == "assistant" and json.loads(last)["action"] == "conclude"
        assert by_id["fx_dialerspy"].report.verdict == "Malicious"
