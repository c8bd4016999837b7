"""Metrics, dataset handling, batch execution and report emission."""

from __future__ import annotations

import gc
import json
import random
import threading
import time
import tracemalloc
import types
import weakref
from collections import Counter
from pathlib import Path

import pytest

from droidtriage import agents, harness
from droidtriage.agents import MAX_THREADS, Catalogs
from droidtriage.backend import CostLedger, Exchange, ModelRouter, cost_of, format_usd, tier_shares
from droidtriage.config import load_config
from droidtriage.errors import ConfigError, ProviderUnavailableError, ReportIoError
from droidtriage.harness import (
    BatchConfig,
    DatasetEntry,
    DatasetManifest,
    emit_reports,
    metrics,
    run_batch,
    scores,
    summarize,
)

from oracles import metrics_direct

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CFG = load_config()


def scripted_router() -> ModelRouter:
    return CFG.build_router("scripted")


def batch_config() -> BatchConfig:
    return BatchConfig(
        catalogs=Catalogs(CFG.api_catalog, CFG.entry_catalog),
        router=scripted_router(),
        pricing=CFG.pricing,
        budgets=CFG.budgets,
    )


# -- metrics -------------------------------------------------------------------


def test_metrics_paper_row_from_derived_counts():
    # Solving the accuracy/precision/recall formulas against the published
    # 94.35/89.29/98.04/93.46 percentages over 124 samples gives
    # tp=50, tn=67, fp=6, fn=1 (see README).
    m = metrics(tp=50, tn=67, fp=6, fn=1)
    assert abs(100 * m["accuracy"] - 94.35) <= 0.005
    assert abs(100 * m["precision"] - 89.29) <= 0.005
    assert abs(100 * m["recall"] - 98.04) <= 0.005
    assert abs(100 * m["f1"] - 93.46) <= 0.005


def test_metrics_all_correct():
    m = metrics(5, 5, 0, 0)
    assert (m["accuracy"], m["precision"], m["recall"], m["f1"]) == (1.0, 1.0, 1.0, 1.0)


def test_metrics_undefined_precision_propagates():
    m = metrics(tp=0, tn=7, fp=0, fn=3)
    assert m["precision"] is None
    assert m["recall"] == 0.0
    assert m["f1"] is None
    assert m["accuracy"] == 0.7


def test_metrics_zero_sum_precision_recall_undefined_f1():
    m = metrics(tp=0, tn=0, fp=3, fn=3)
    assert m["precision"] == 0.0 and m["recall"] == 0.0
    assert m["f1"] is None


def test_metrics_empty_evaluation():
    with pytest.raises(ValueError, match="^no evaluated entries$"):
        metrics(0, 0, 0, 0)


def test_metrics_match_direct_oracle_1000_random():
    rng = random.Random(43)
    for _ in range(1000):
        tp, tn, fp, fn = (rng.randint(0, 50) for _ in range(4))
        if tp + tn + fp + fn == 0:
            tp = 1
        m = metrics(tp, tn, fp, fn)
        acc, pre, rec, f1 = metrics_direct(tp, tn, fp, fn)
        assert m["accuracy"] == acc and m["precision"] == pre
        assert m["recall"] == rec and m["f1"] == f1


def test_f1_identity_when_defined():
    rng = random.Random(47)
    for _ in range(200):
        tp, tn, fp, fn = (rng.randint(0, 30) for _ in range(4))
        if tp == 0:
            tp = 1
        m = metrics(tp, tn, fp, fn)
        assert m["f1"] == pytest.approx(
            2 * m["precision"] * m["recall"] / (m["precision"] + m["recall"])
        )


def test_scores_count_only_rows_with_a_verdict():
    rows = [{"label": label, "verdict": verdict}
            for label in ("Benign", "Malicious") for verdict in ("Benign", "Malicious")]
    rows.append({"label": "Malicious", "skipped": "x", "skip_class": "bundle-invalid"})
    assert scores(rows) == {"confusion": {"tp": 1, "tn": 1, "fp": 1, "fn": 1},
                            "metrics": metrics(1, 1, 1, 1)}
    assert list(metrics(1, 1, 1, 1)) == ["accuracy", "precision", "recall", "f1"]


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


@pytest.mark.parametrize("content", [
    b"a,m.mmf,i.mir,Benign,2020\n\xff\n",  # not UTF-8
    b"a," + b"m" * 200_000 + b",i.mir,Benign,2020\n",  # past the csv module's field limit
])
def test_dataset_unreadable_index_is_config_error(tmp_path, content):
    bad = tmp_path / "d.idx"
    bad.write_bytes(content)
    with pytest.raises(ConfigError, match="d.idx"):
        DatasetManifest.load(bad)


@pytest.mark.parametrize("app_id", ["", ".", "..", "../escaped", "a/b", "a\\b", "a\0b"])
def test_dataset_rejects_app_ids_outside_reports(tmp_path, app_id):
    idx = tmp_path / "d.idx"
    idx.write_text(f"ok,m.mmf,i.mir,Benign,2020\n{app_id},m.mmf,i.mir,Benign,2020\n")
    with pytest.raises(ConfigError, match="d.idx:2: bad app_id"):
        DatasetManifest.load(idx)


# -- batch ---------------------------------------------------------------------


def test_batch_fixture_corpus_perfect_f1():
    ds = DatasetManifest.load(FIXTURES / "corpus.idx")
    results = run_batch(ds, batch_config())
    assert all(r.evaluated for r in results)
    scored = summarize(results, CFG.pricing)["metrics"]
    assert scored["f1"] == 1.0
    assert scored["accuracy"] == 1.0


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
    assert summary["skipped"][0]["class"] == "bundle-invalid"


def test_batch_undecodable_bundle_skipped(tmp_path):
    (tmp_path / "bad.mmf").write_text("package: bad\n")
    (tmp_path / "bad.mir").write_bytes(b"\xff\xfe")
    clean = FIXTURES / "fx_clean"
    idx = tmp_path / "two.idx"
    idx.write_text("bad,bad.mmf,bad.mir,Benign,2020\n"
                   f"fx_clean,{clean}/app.mmf,{clean}/app.mir,Benign,2020\n")
    results = run_batch(DatasetManifest.load(idx), batch_config())
    by_id = {r.entry.app_id: r for r in results}
    assert by_id["bad"].skip_class == "bundle-unreadable"
    assert by_id["bad"].skip_reason.startswith("unreadable bundle:")
    assert by_id["fx_clean"].evaluated
    assert by_id["fx_clean"].report.verdict == "Benign"


def test_batch_survives_infinite_tool_argument():
    # `1e400` decodes to inf; `int(inf)` raised OverflowError, which no
    # handler caught, and the whole batch died with it
    from droidtriage.scripted import ScriptedProvider

    last_sent = []  # the last message of each trace call

    class InfiniteDepth(ScriptedProvider):
        def chat(self, model_id, tier, messages):
            if tier == "trace":
                last_sent.append(messages[-1][1])
                reply = '{"thought": "", "action": "trigger_paths", "args": {"max_depth": 1e400}}'
                return reply, 1, 1
            return super().chat(model_id, tier, messages)

    cfg = batch_config()
    cfg.router = ModelRouter(cfg.router.config, {m: InfiniteDepth() for m in cfg.router.providers})
    results = run_batch(DatasetManifest.load(FIXTURES / "corpus.idx"), cfg)
    assert results and all(r.evaluated for r in results)
    observations = [json.loads(text) for text in last_sent if text.startswith("{")]
    assert observations
    assert all(o["error"] == "ToolError" and "max_depth" in o["message"] for o in observations)


def test_batch_internal_error_in_threaded_session_is_classified_skip(capsys):
    # a fault that is not a TriageError, raised on a session worker thread,
    # re-raises in the app's caller; the harness records it and goes on
    from droidtriage.scripted import ScriptedProvider

    class FaultyNetworkModel(ScriptedProvider):
        waits_on_network = True

        def chat(self, model_id, tier, messages):
            # fx_spyloc's second of three candidates
            if tier == "trace" and "getLongitude()->double @ com.wallpapers" in messages[1][1]:
                raise RuntimeError("provider bug")
            return super().chat(model_id, tier, messages)

    cfg = batch_config()
    cfg.router = ModelRouter(cfg.router.config,
                             {m: FaultyNetworkModel() for m in cfg.router.providers})
    assert cfg.router.waits_on_network
    results = run_batch(DatasetManifest.load(FIXTURES / "corpus.idx"), cfg)
    by_id = {r.entry.app_id: r for r in results}
    assert by_id["fx_spyloc"].skip_class == "internal-error"
    assert by_id["fx_spyloc"].skip_reason == "RuntimeError: provider bug"
    assert all(r.evaluated for app, r in by_id.items() if app != "fx_spyloc")
    # the traceback goes to standard error, named by the app
    err = capsys.readouterr().err
    assert err.startswith("fx_spyloc: Traceback") and "RuntimeError: provider bug" in err
    summary = summarize(results, CFG.pricing)
    assert summary["evaluated"] == len(results) - 1
    assert summary["skipped"] == [
        {"app_id": "fx_spyloc", "class": "internal-error", "reason": "RuntimeError: provider bug"}
    ]


def test_batch_fault_inside_a_tool_is_internal_error_skip(monkeypatch, capsys):
    # a tool's own fault is not the model's noise: it used to become an
    # `"error": "KeyError"` observation, and fx_spyloc then read Benign

    def broken_taint(*args):
        raise KeyError("planted")

    monkeypatch.setattr(agents, "taint_reachability", broken_taint)
    results = run_batch(DatasetManifest.load(FIXTURES / "corpus.idx"), batch_config())
    assert "KeyError: 'planted'" in capsys.readouterr().err
    by_id = {r.entry.app_id: r for r in results}
    assert not by_id["fx_spyloc"].evaluated
    for app, r in by_id.items():
        if r.evaluated:  # only an app whose sessions never asked for taint
            assert not any(json.loads(ex.response).get("action") == "taint_reachability"
                           for ex in r.ledger.exchanges if ex.tier == "trace"), app
        else:
            assert (r.skip_class, r.skip_reason) == ("internal-error", "KeyError: 'planted'")


def test_batch_records_the_class_of_each_skip(tmp_path, capsys):
    # one app for each skip class a batch can reach, beside one that passes
    from droidtriage.scripted import ScriptedProvider

    clean = FIXTURES / "fx_clean"
    manifest = (clean / "app.mmf").read_text()
    ir_text = (clean / "app.mir").read_text()
    bundles = {
        "ok": (manifest, ir_text),
        "undecodable": (manifest, b"\xff\xfe"),
        "unparseable": (manifest, "class Broken {\n  method nope\n"),
        "duplicated": (manifest + "permission:INTERNET\n", ir_text),
        "garbled": (manifest, ir_text),
        "offline": (manifest.replace("com.light.torch\n", "com.offline\n"), ir_text),
        "buggy": (manifest.replace("com.light.torch\n", "com.buggy\n"), ir_text),
    }
    rows = []
    for app, (mmf, mir) in bundles.items():
        (tmp_path / f"{app}.mmf").write_text(mmf)
        (tmp_path / f"{app}.mir").write_bytes(mir if isinstance(mir, bytes) else mir.encode())
        rows.append(f"{app},{app}.mmf,{app}.mir,Benign,2020\n")
    (tmp_path / "all.idx").write_text("".join(rows))

    class FaultyModel(ScriptedProvider):
        def chat(self, model_id, tier, messages):
            prompt = messages[-1][1]
            if tier == "verdict" and '"app_id":"garbled"' in prompt:
                return "garbage", 1, 1
            if tier == "recon" and '"com.offline"' in prompt:
                raise ProviderUnavailableError("provider is down")
            if tier == "recon" and '"com.buggy"' in prompt:
                raise RuntimeError("provider bug")
            return super().chat(model_id, tier, messages)

    cfg = batch_config()
    cfg.router = ModelRouter(cfg.router.config, {m: FaultyModel() for m in cfg.router.providers})
    results = run_batch(DatasetManifest.load(tmp_path / "all.idx"), cfg)
    capsys.readouterr()  # the internal error's traceback
    expected = {
        "undecodable": "bundle-unreadable",
        "unparseable": "bundle-invalid",
        "duplicated": "bundle-invalid",
        "garbled": "model-schema",
        "offline": "provider-unavailable",
        "buggy": "internal-error",
    }
    by_id = {r.entry.app_id: r for r in results}
    assert by_id["ok"].evaluated and by_id["ok"].skip_class is None
    assert {app: by_id[app].skip_class for app in expected} == expected
    assert by_id["duplicated"].skip_reason == "DuplicatePermission@INTERNET"
    assert by_id["garbled"].skip_reason == ("[verdict] verdict failed schema validation twice: "
                                            "not JSON: Expecting value: line 1 column 1 (char 0)")
    assert by_id["offline"].skip_reason == "[recon] provider is down"
    assert by_id["buggy"].skip_reason == "RuntimeError: provider bug"

    out = tmp_path / "out"
    summary = emit_reports(results, CFG.pricing, out)
    rows = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    assert {row["app_id"]: row["skip_class"] for row in rows if "skipped" in row} == expected
    assert "skip_class" not in next(row for row in rows if row["app_id"] == "ok")
    saved = json.loads((out / "summary.json").read_text())
    assert saved == summary
    assert {s["app_id"]: s["class"] for s in saved["skipped"]} == expected
    digest = (out / "digest.txt").read_text()
    assert digest.splitlines()[:7] == [
        "evaluated: 1",
        "skipped:   6",
        "  bundle-invalid: 2",
        "  bundle-unreadable: 1",
        "  internal-error: 1",
        "  model-schema: 1",
        "  provider-unavailable: 1",
    ]
    assert digest.splitlines()[7].startswith("metrics:")


def test_skipped_apps_keep_their_spend(tmp_path):
    # a verdict reply that is never JSON skips every app after all its other
    # exchanges; those skips used to carry no ledger, so none of it was priced
    from droidtriage.scripted import ScriptedProvider

    counted = CostLedger()  # every exchange, as the provider answered it

    class NoVerdict(ScriptedProvider):
        def chat(self, model_id, tier, messages):
            response, in_tok, out_tok = super().chat(model_id, tier, messages)
            if tier == "verdict":
                response, out_tok = "no verdict today", 3
            counted.append(Exchange(tier=tier, response=response, input_tokens=in_tok,
                                    output_tokens=out_tok, model_id=model_id, latency_s=0.0))
            return response, in_tok, out_tok

    results = run_batch(DatasetManifest.load(FIXTURES / "corpus.idx"), _with_provider(NoVerdict()))
    assert {r.skip_class for r in results} == {"model-schema"}
    assert sum(len(r.ledger.exchanges) for r in results) == len(counted.exchanges) == 58
    summary = emit_reports(results, CFG.pricing, tmp_path)
    assert summary["evaluated"] == 0
    cost = cost_of(counted, CFG.pricing)
    assert summary["cost_usd"]["total"] == format_usd(cost["total"])
    assert summary["cost_usd"]["per_tier"] == {t: format_usd(v) for t, v in cost["per_tier"].items()}
    assert summary["tier_shares"] == {t: round(v, 9) for t, v in tier_shares(counted).items()}
    assert "tokens" not in summary  # the per-app token statistics cover evaluated apps
    rows = [json.loads(line) for line in (tmp_path / "results.jsonl").read_text().splitlines()]
    assert [row["tokens"] for row in rows] == [r.ledger.total_tokens for r in results]
    assert sum(row["tokens"] for row in rows) == counted.total_tokens


def test_batch_order_permutation_invariant(tmp_path):
    ds = DatasetManifest.load(FIXTURES / "corpus.idx")
    shuffled = DatasetManifest(list(reversed(ds.entries)))
    a = run_batch(ds, batch_config())
    b = run_batch(shuffled, batch_config())
    assert [r.entry.app_id for r in a] == [r.entry.app_id for r in b]
    assert [r.report.to_json() for r in a] == [r.report.to_json() for r in b]
    assert summarize(a, CFG.pricing) == summarize(b, CFG.pricing)


def _with_provider(provider) -> BatchConfig:
    cfg = batch_config()
    cfg.router = ModelRouter(cfg.router.config, {m: provider for m in cfg.router.providers})
    return cfg


def test_scripted_batch_runs_on_the_calling_thread():
    # a CPU-bound provider gains nothing from threads, so no app gets one
    from droidtriage.scripted import ScriptedProvider

    threads = set()

    class Recording(ScriptedProvider):
        def chat(self, model_id, tier, messages):
            threads.add(threading.get_ident())
            return super().chat(model_id, tier, messages)

    results = run_batch(DatasetManifest.load(FIXTURES / "corpus.idx"),
                        _with_provider(Recording()))
    assert results and all(r.evaluated for r in results)
    assert threads == {threading.get_ident()}


def test_scripted_app_runs_with_the_collector_paused(monkeypatch, tmp_path, capsys):
    # what a scripted app builds holds no reference cycle, so the collector is
    # paused while it runs; a live app overlaps others across round trips, so
    # pausing there could keep the collector off for the whole batch
    from droidtriage.scripted import ScriptedProvider

    class Node:
        pass

    seen, left, earlier = [], [], []

    class Recording(ScriptedProvider):
        def chat(self, model_id, tier, messages):
            seen.append(gc.isenabled())
            if tier == "recon":  # each app leaves one cycle behind
                left.append(sum(ref() is not None for ref in earlier))
                node = Node()
                node.self = node
                earlier.append(weakref.ref(node))
            return super().chat(model_id, tier, messages)

    class Waiting(Recording):
        waits_on_network = True

    dataset = DatasetManifest.load(FIXTURES / "corpus.idx")
    twice = DatasetManifest([DatasetEntry(f"{e.app_id}_{k}", e.manifest_path, e.ir_path,
                                          e.label, e.year) for k in range(2) for e in dataset.entries])
    assert gc.isenabled()
    assert all(r.evaluated for r in run_batch(twice, _with_provider(Recording())))
    assert seen and not any(seen)
    assert gc.isenabled()
    # the cycles an app leaves are collected before the next app is paused,
    # so a batch never holds more than one app's
    assert left == [0] * len(twice.entries)
    seen.clear()
    assert all(r.evaluated for r in run_batch(dataset, _with_provider(Waiting())))
    assert seen and all(seen)

    # the collector is back on after a skipped app, whatever its class
    cfg = batch_config()
    spyloc = next(e for e in dataset.entries if e.app_id == "fx_spyloc")
    (tmp_path / "broken.mir").write_text("class Broken {\n  method nope\n")
    broken = DatasetEntry("broken", spyloc.manifest_path, tmp_path / "broken.mir", "Benign", 2020)
    assert harness._evaluate_entry(broken, cfg).skip_class == "bundle-invalid"
    assert gc.isenabled()

    def broken_taint(*args):
        raise KeyError("planted")

    monkeypatch.setattr(agents, "taint_reachability", broken_taint)
    assert harness._evaluate_entry(spyloc, cfg).skip_class == "internal-error"
    assert "KeyError: 'planted'" in capsys.readouterr().err
    assert gc.isenabled()

    # a collector disabled by the caller is left disabled
    monkeypatch.undo()
    gc.disable()
    try:
        assert harness._evaluate_entry(spyloc, cfg).evaluated
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_network_batch_overlaps_apps_and_matches_sequential(monkeypatch):
    from droidtriage.scripted import ScriptedProvider

    class Waiting(ScriptedProvider):
        waits_on_network = True

        def __init__(self):
            super().__init__()
            self.sent = []  # the (tier, messages) of every call, in any app order

        def chat(self, model_id, tier, messages):
            time.sleep(0.002)
            self.sent.append((tier, tuple(messages)))
            return super().chat(model_id, tier, messages)

    class Sequential(Waiting):
        waits_on_network = False

    # twice the fixtures, so there are more apps than threads
    fixtures = DatasetManifest.load(FIXTURES / "corpus.idx").entries
    ds = DatasetManifest([DatasetEntry(f"{e.app_id}_{k}", e.manifest_path, e.ir_path,
                                       e.label, e.year) for k in range(2) for e in fixtures])
    assert len(ds.entries) > MAX_THREADS
    in_flight = peak = 0
    lock = threading.Lock()
    evaluate = harness._evaluate_entry

    def counting(entry, cfg):
        nonlocal in_flight, peak
        with lock:
            in_flight += 1
            peak = max(peak, in_flight)
        try:
            return evaluate(entry, cfg)
        finally:
            with lock:
                in_flight -= 1

    transcripts = []  # per run: app id -> its sessions' transcripts, in candidate order
    adjudicate = agents.adjudicate

    def recording(recon, evidence, router, ledger, app_id):
        transcripts[-1][app_id] = [v.transcript for v in evidence]
        return adjudicate(recon, evidence, router, ledger, app_id)

    monkeypatch.setattr(harness, "_evaluate_entry", counting)
    monkeypatch.setattr(agents, "adjudicate", recording)
    baseline = threading.active_count()
    waiting, sequential_provider = Waiting(), Sequential()
    transcripts.append({})
    overlapped = run_batch(ds, _with_provider(waiting))
    assert 1 < peak <= MAX_THREADS
    assert threading.active_count() == baseline
    peak = 0
    transcripts.append({})
    sequential = run_batch(ds, _with_provider(sequential_provider))
    assert peak == 1

    def exchanges(r):
        return [(ex.tier, ex.response, ex.input_tokens, ex.output_tokens)
                for ex in r.ledger.exchanges]

    assert all(r.evaluated for r in overlapped)
    assert [r.report.to_json() for r in overlapped] == [r.report.to_json() for r in sequential]
    assert [exchanges(r) for r in overlapped] == [exchanges(r) for r in sequential]
    # the same messages: each app's sessions in order, and every call's as sent
    assert transcripts[0] == transcripts[1] and len(transcripts[1]) == len(ds.entries)
    assert sorted(waiting.sent) == sorted(sequential_provider.sent)


def _longest_reachable_str(root) -> int:
    """The length of the longest str that `gc.get_referents` reaches from
    `root` without entering a type, module or function."""
    seen, stack, longest = set(), [root], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, str):
            longest = max(longest, len(obj))
        else:
            stack.extend(gc.get_referents(obj))
    return longest


def test_batch_keeps_no_prompt_of_a_finished_app(tmp_path):
    # every exchange used to keep its session's messages so far, so a batch
    # held each app's prompts until it ended: with one 200,000-character
    # literal, about 0.6 MB per app
    spyloc = FIXTURES / "fx_spyloc"
    read = "    loc = call android.location.LocationManager.getLastKnownLocation"
    mir = (spyloc / "app.mir").read_text()
    assert mir.count(read) == 1
    (tmp_path / "app.mir").write_text(mir.replace(read, f'    pad = const "{"A" * 200_000}"\n{read}'))
    inflated = [DatasetEntry("padded", spyloc / "app.mmf", tmp_path / "app.mir", "Malicious", 2019)]
    corpus = DatasetManifest.load(FIXTURES / "corpus.idx").entries
    for entries in (inflated, corpus):
        cfg = batch_config()
        run_batch(DatasetManifest(entries), cfg)  # loads the prompt templates
        ds = DatasetManifest([DatasetEntry(f"{e.app_id}_{k}", e.manifest_path, e.ir_path,
                                           e.label, e.year) for k in range(10) for e in entries])
        gc.collect()
        tracemalloc.start()
        try:
            results = run_batch(ds, cfg)
            gc.collect()
            held, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(r.evaluated and r.report.verdict == r.entry.label for r in results)
        assert held < 10_000 * len(results), f"{held / len(results):.0f} bytes held per app"
        assert _longest_reachable_str(results) <= 10_000


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
    summary = summarize(collapsed, CFG.pricing)
    assert list(summary["per_year"]) == ["2020"]
    assert summary["per_year"]["2020"] == summary["metrics"]


def test_partition_disjoint_years():
    ds = DatasetManifest.load(FIXTURES / "corpus.idx")
    results = run_batch(ds, batch_config())
    per_year = summarize(results, CFG.pricing)["per_year"]
    assert set(per_year) == {"2017", "2018", "2019", "2020", "2021"}
    for ms in per_year.values():
        assert ms["accuracy"] == 1.0


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
    per_year = summarize(results, CFG.pricing)["per_year"]
    assert set(per_year) == {"2017", "2018", "2019"}
    for year, ms in per_year.items():
        n = Counter((r.report.verdict == "Malicious", r.entry.label == "Malicious")
                    for r in results if r.entry.year == int(year))
        direct = metrics_direct(n[True, True], n[False, False], n[True, False], n[False, True])
        assert tuple(ms.values()) == direct


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
    rerun = [kept, EntryResult(dropped.entry, skip_reason="x", skip_class="bundle-invalid")]
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
