#!/usr/bin/env python3
"""Run the scripted-backend batch over the committed fixture corpus.

Usage: python scripts/run_fixture_batch.py [out_dir]
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from droidtriage.cli import main


if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else str(ROOT / "out" / "fixture_run")
    rc = main([
        "batch", str(ROOT / "fixtures" / "corpus.idx"),
        "--backend", "scripted", "--out", out,
    ])
    if rc == 0:
        print(f"\nwrote {out}/summary.json, results.jsonl and per-app reports")
    sys.exit(rc)
