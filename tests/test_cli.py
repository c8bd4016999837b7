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


def test_metrics_from_results_jsonl(tmp_path, capsys):
    out = tmp_path / "run"
    main(["batch", str(FIXTURES / "corpus.idx"), "--out", str(out)])
    capsys.readouterr()
    rc = main(["metrics", str(out / "results.jsonl")])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["evaluated"] == 6
    assert data["metrics"]["f1"] == 1.0
    assert data["confusion"] == {"tp": 3, "tn": 3, "fp": 0, "fn": 0}


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


@pytest.mark.parametrize("value", ["0", "-1"])
def test_jobs_below_one_rejected(tmp_path, capsys, value):
    # 0 used to fall back to the CPU count; -1 raised ValueError from the pool
    with pytest.raises(SystemExit) as exc:
        main(["batch", str(FIXTURES / "corpus.idx"), "--out", str(tmp_path / "o"),
              "--jobs", value])
    assert exc.value.code == 2
    assert "at least 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
