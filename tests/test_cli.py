"""CLI subcommands exercised through main()."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from droidtriage.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_analyze_single_bundle(capsys):
    rc = main(["analyze", str(FIXTURES / "fx_smsleak"), "--backend", "scripted"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["app_id"] == "com.fxsms"
    assert report["verdict"] == "Malicious"
    assert report["threat_category"] == "SMS-exfiltration"


def test_analyze_writes_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(["analyze", str(FIXTURES / "fx_clean"), "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["verdict"] == "Benign"


def test_analyze_missing_bundle_dir_fails_cleanly(tmp_path, capsys):
    rc = main(["analyze", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_two_ir_files_fails_cleanly(tmp_path, capsys):
    (tmp_path / "app.mmf").write_text("package: a\n")
    for name in ("one.mir", "two.mir"):
        (tmp_path / name).write_text("")
    assert main(["analyze", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {tmp_path} must contain exactly one .mmf and one .mir file\n")


def test_batch_over_fixture_corpus(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main([
        "batch", str(FIXTURES / "corpus.idx"), "--backend", "scripted",
        "--out", str(out), "--budget", "8", "--cap", "15",
    ])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["evaluated"] == 6
    assert summary["metrics"]["f1"] == 1.0
    assert (out / "summary.json").is_file()
    assert (out / "reports" / "fx_spyloc.json").is_file()


def test_batch_refuses_file_out_before_first_app(tmp_path, capsys, monkeypatch):
    # the check used to come after every app was triaged (and, live, paid for)
    from droidtriage import harness

    triaged = []
    evaluate = harness._evaluate_entry
    monkeypatch.setattr(harness, "_evaluate_entry",
                        lambda entry, cfg: triaged.append(entry) or evaluate(entry, cfg))
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert main(["batch", str(FIXTURES / "corpus.idx"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: output path {out} is not a directory\n"
    assert triaged == []
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("options", [[], ["--cap", "1"], ["--budget", "1"]])
def test_run_options_reach_analyze_and_batch_alike(tmp_path, capsys, options):
    # fx_spyloc is Malicious by default, Benign under either bound
    assert main(["analyze", str(FIXTURES / "fx_spyloc"), *options]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    tokens = int(captured.err.removeprefix("// tokens: "))
    idx = tmp_path / "one.idx"
    idx.write_text(f"fx_spyloc,{FIXTURES}/fx_spyloc/app.mmf,{FIXTURES}/fx_spyloc/app.mir,"
                   "Malicious,2019\n")
    out = tmp_path / "run"
    assert main(["batch", str(idx), "--out", str(out), *options]) == 0
    capsys.readouterr()
    batch_report = json.loads((out / "reports" / "fx_spyloc.json").read_text())
    row = json.loads((out / "results.jsonl").read_text())
    assert batch_report["verdict"] == report["verdict"] == row["verdict"]
    assert batch_report["rationale"] == report["rationale"]
    assert row["tokens"] == tokens
    assert (report["verdict"], tokens) == {
        (): ("Malicious", 3474), ("--cap", "1"): ("Benign", 1149),
        ("--budget", "1"): ("Benign", 721)}[tuple(options)]


def test_batch_exit_zero_even_with_wrong_verdicts(tmp_path, capsys):
    # mislabeled dataset: completion is still exit code 0
    idx = tmp_path / "flip.idx"
    idx.write_text(
        f"only,{FIXTURES}/fx_smsleak/app.mmf,{FIXTURES}/fx_smsleak/app.mir,Benign,2018\n"
    )
    rc = main(["batch", str(idx), "--out", str(tmp_path / "o")])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["metrics"]["accuracy"] == 0.0


def test_stats_reports_percentiles(tmp_path, capsys):
    rc = main(["stats", str(FIXTURES / "corpus.idx")])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)
    # hand count per fixture: backup 5, clean 3, dialerspy 4, idsave 3,
    # smsleak 7, spyloc 5
    assert stats["methods"] == 27
    assert "80" in stats["percentiles"] and "90" in stats["percentiles"]
    assert sum(b["count"] for b in stats["histogram"]) == stats["methods"]


def test_stats_lists_undecodable_entry_as_failure(tmp_path, capsys):
    (tmp_path / "bad.mir").write_bytes(b"\xff\xfe")
    clean = FIXTURES / "fx_clean"
    idx = tmp_path / "two.idx"
    idx.write_text("bad,bad.mmf,bad.mir,Benign,2020\n"
                   f"fx_clean,{clean}/app.mmf,{clean}/app.mir,Benign,2020\n")
    assert main(["stats", str(idx)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["methods"] == 3
    assert [f.split(":")[0] for f in stats["failures"]] == ["bad"]


def test_stats_undecodable_index_fails_cleanly(tmp_path, capsys):
    idx = tmp_path / "bad.idx"
    idx.write_bytes(b"\xff\n")
    assert main(["stats", str(idx)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bad.idx" in err


def test_batch_app_id_cannot_escape_reports(tmp_path, capsys):
    clean = FIXTURES / "fx_clean"
    idx = tmp_path / "d.idx"
    idx.write_text(f"../escaped,{clean}/app.mmf,{clean}/app.mir,Benign,2020\n")
    out = tmp_path / "out"
    assert main(["batch", str(idx), "--out", str(out)]) == 1
    assert "bad app_id" in capsys.readouterr().err
    assert not (out / "escaped.json").exists()


def test_metrics_from_results_jsonl(tmp_path, capsys):
    # the six fixtures and one broken bundle, so that a skipped row is in the file
    (tmp_path / "broken.mmf").write_text("package: b\n")
    (tmp_path / "broken.mir").write_text("class oops {\n")
    idx = tmp_path / "d.idx"
    rows = [line.split(",") for line in (FIXTURES / "corpus.idx").read_text().splitlines()
            if line and not line.startswith("#")]
    idx.write_text("".join(f"{a},{FIXTURES / m},{FIXTURES / i},{label},{year}\n"
                           for a, m, i, label, year in rows)
                   + "broken,broken.mmf,broken.mir,Benign,2020\n")
    out = tmp_path / "run"
    assert main(["batch", str(idx), "--out", str(out)]) == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert [s["app_id"] for s in summary["skipped"]] == ["broken"]
    rc = main(["metrics", str(out / "results.jsonl")])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["evaluated"] == 6
    assert data["metrics"]["f1"] == 1.0
    assert data["confusion"] == {"tp": 3, "tn": 3, "fp": 0, "fn": 0}
    assert data == {k: summary[k] for k in ("evaluated", "confusion", "metrics")}


@pytest.mark.parametrize("flag", ["--budget", "--cap"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_budget_and_cap_below_one_rejected(tmp_path, capsys, flag, value):
    # 0 used to fall back to the config value; a negative budget raised
    # ValueError out of the batch
    for argv in (["analyze", str(FIXTURES / "fx_clean")],
                 ["batch", str(FIXTURES / "corpus.idx"), "--out", str(tmp_path / "o")]):
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 2
        assert "at least 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_analyze_undecodable_bundle_fails_cleanly(tmp_path, capsys):
    # used to end in a UnicodeDecodeError traceback
    (tmp_path / "app.mmf").write_text("package: bad\n")
    (tmp_path / "app.mir").write_bytes(b"\xff\xfe")
    rc = main(["analyze", str(tmp_path)])
    assert rc == 1
    assert "error: unreadable bundle:" in capsys.readouterr().err


@pytest.mark.parametrize("stmt", ["goto " + "1" * 5000, "if b goto " + "9" * 5000],
                         ids=["goto", "if"])
def test_branch_target_past_int_digit_limit_fails_cleanly(tmp_path, capsys, stmt):
    # `int` refuses more than 4,300 digits; that escaped as a ValueError traceback
    (tmp_path / "app.mmf").write_text("package: a\n")
    (tmp_path / "app.mir").write_text(
        f"class a.B {{\n  method a.B.m()->void () {{\n    {stmt}\n  }}\n}}\n")
    idx = tmp_path / "one.idx"
    idx.write_text(f"a,{tmp_path}/app.mmf,{tmp_path}/app.mir,Benign,2020\n")
    assert main(["stats", str(idx)]) == 1
    assert json.loads(capsys.readouterr().out)["failures"] == [
        "a: line 3: branch target of 5000 digits"]
    assert main(["analyze", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: line 3: branch target of 5000 digits")


@pytest.mark.parametrize("value", ["0", "-1"])
def test_jobs_below_one_rejected(tmp_path, capsys, value):
    # apps overlap only when the provider waits on the network, so there is no
    # thread count to set: --jobs is an unknown argument whatever its value
    with pytest.raises(SystemExit) as exc:
        main(["batch", str(FIXTURES / "corpus.idx"), "--out", str(tmp_path / "o"),
              "--jobs", value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --jobs {value}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


GOLDEN = Path(__file__).resolve().parent / "golden" / "fixture_batch"


def test_fixture_batch_matches_golden_bytes(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["batch", str(FIXTURES / "corpus.idx"), "--out", str(out)]) == 0
    capsys.readouterr()
    files = sorted(p.relative_to(GOLDEN) for p in GOLDEN.rglob("*") if p.is_file())
    assert sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file()) == files
    for rel in files:
        assert (out / rel).read_bytes() == (GOLDEN / rel).read_bytes(), rel


UNKNOWN_KEYS = ("taint_depth", "trigger_depth", "context_radius", "max_iteration", "counts")


@pytest.mark.parametrize("section,key,value", [
    ("budgets", "max_iterations", "0"),
    ("budgets", "max_iterations", "abc"),
    ("budgets", "candidate_cap", "0"),
    ("budgets", "taint_depth", "1.5"),
    ("budgets", "trigger_depth", "-1"),
    ("budgets", "context_radius", "-1"),
    ("retry", "count", "-1"),
    ("retry", "backoff_s", "nan"),
    ("retry", "timeout_s", "0"),
    ("retry", "timeout_s", "soon"),
    ("model.m2", "price_in", "abc"),
    ("model.m2", "price_in", "-1"),
    ("model.m2", "price_out", "NaN"),
    ("budgets", "max_iteration", "1"),
    ("retry", "counts", "1"),
])
def test_batch_bad_config_value_fails_cleanly(tmp_path, capsys, section, key, value):
    # out-of-range values used to load (max_iterations = 0 then aborted the
    # batch with a ValueError traceback, candidate_cap = 0 triaged nothing);
    # unparseable ones ended in ValueError or InvalidOperation tracebacks;
    # a misspelled key was dropped, so the run went on with the default, and
    # the removed tool ceilings now fail the same way
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[router]\nrecon = m\ntrace = m\nverdict = m\n[model.m]\nprice_in = 1\n"
                   f"price_out = 1\n[{section}]\n{key} = {value}\n")
    rc = main(["batch", str(FIXTURES / "corpus.idx"), "--config", str(cfg),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    if key in UNKNOWN_KEYS:
        assert err == f"error: [{section}] unknown key {key}\n"
    else:
        assert err.startswith(f"error: [{section}] {key} must be ")
    assert not (tmp_path / "o").exists()


def test_batch_with_unpriced_routed_model_fails_before_any_exchange(tmp_path, capsys,
                                                                    monkeypatch):
    # the summary prices every exchange, so a routed model without prices used
    # to fail only after every app was triaged, leaving an empty reports/
    from droidtriage.scripted import ScriptedProvider

    exchanges = []
    chat = ScriptedProvider.chat
    monkeypatch.setattr(ScriptedProvider, "chat",
                        lambda self, *args: exchanges.append(args) or chat(self, *args))
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[router]\nrecon = m\ntrace = m\nverdict = judge\n"
                   "[model.m]\nprice_in = 1\nprice_out = 1\n[model.judge]\n")
    rc = main(["batch", str(FIXTURES / "corpus.idx"), "--config", str(cfg),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err == "error: no pricing configured for model 'judge'\n"
    assert exchanges == []
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("unreadable", ["cfg.ini", "api.cat"])
def test_batch_unreadable_config_or_catalog_fails_cleanly(tmp_path, capsys, monkeypatch,
                                                         unreadable):
    # a PermissionError from reading --config or a catalog used to escape as a
    # traceback; the read is made to fail because chmod does not stop root
    (tmp_path / "api.cat").write_text("api:my.Api.hit()->void\n")
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[router]\nrecon = m\ntrace = m\nverdict = m\n"
                   "[model.m]\nprice_in = 1\nprice_out = 1\n[catalogs]\napi = api.cat\n")
    read_text = Path.read_text

    def refuse(self, *args, **kwargs):
        if self.name == unreadable:
            raise PermissionError(13, "Permission denied", str(self))
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", refuse)
    rc = main(["batch", str(FIXTURES / "corpus.idx"), "--config", str(cfg),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"Permission denied: '{tmp_path / unreadable}'" in err
    assert not (tmp_path / "o").exists()


def _metrics_error(path, capsys) -> str:
    assert main(["metrics", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    return err


def test_metrics_missing_file_fails_cleanly(tmp_path, capsys):
    # used to end in a FileNotFoundError traceback
    assert "FileNotFoundError" in _metrics_error(tmp_path / "none.jsonl", capsys)


def test_metrics_line_not_json_fails_cleanly(tmp_path, capsys):
    # used to end in a JSONDecodeError traceback
    path = tmp_path / "results.jsonl"
    path.write_text('{"verdict": "Benign", "label": "Benign"}\nnot json\n')
    assert "JSONDecodeError" in _metrics_error(path, capsys)


def test_metrics_row_without_label_fails_cleanly(tmp_path, capsys):
    # used to end in a KeyError traceback
    path = tmp_path / "results.jsonl"
    path.write_text('{"app_id": "a", "verdict": "Benign"}\n')
    assert "KeyError: 'label'" in _metrics_error(path, capsys)


def test_metrics_line_nested_past_recursion_limit_fails_cleanly(tmp_path, capsys):
    # used to end in a RecursionError traceback
    path = tmp_path / "results.jsonl"
    path.write_text("[" * 100000 + "]" * 100000 + "\n")
    assert "RecursionError" in _metrics_error(path, capsys)


def test_analyze_out_in_missing_directory_fails_cleanly(tmp_path, capsys):
    # used to end in a FileNotFoundError traceback after the pipeline ran
    rc = main(["analyze", str(FIXTURES / "fx_clean"),
               "--out", str(tmp_path / "missing" / "r.json")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: cannot write report:")


def test_analyze_invalid_bundle_prints_only_its_diagnostics(tmp_path, capsys):
    bundle = tmp_path / "bundle"
    bundle.mkdir()
    spyloc = FIXTURES / "fx_spyloc"
    mir = (spyloc / "app.mir").read_text()
    assert mir.count("    u = loc\n") == 1
    (bundle / "app.mir").write_text(mir.replace("    u = loc\n", "    u = nowhere\n"))
    (bundle / "app.mmf").write_text((spyloc / "app.mmf").read_text())
    out = tmp_path / "report.json"
    assert main(["analyze", str(bundle), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("diagnostic: UseBeforeDef at ")
    assert not out.exists()
