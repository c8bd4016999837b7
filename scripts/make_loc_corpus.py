#!/usr/bin/env python3
"""Build a synthetic corpus whose function-size distribution has its 80th
percentile at 31 statements and its 90th at 51, then print its stats.

Usage: python scripts/make_loc_corpus.py [dir]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from droidtriage.cli import main

LOCS = [5, 8, 12, 17, 22, 26, 29, 31, 51, 60]


def write_corpus(target: Path) -> Path:
    target.mkdir(parents=True, exist_ok=True)
    chunks = ["class syn.C {"]
    for i, n in enumerate(LOCS):
        chunks.append(f"  method syn.C.f{i}()->void () {{")
        chunks.extend(["    nop"] * n)
        chunks.append("  }")
    chunks.append("}")
    (target / "syn.mir").write_text("\n".join(chunks) + "\n")
    (target / "syn.mmf").write_text("package: syn\ncategory: synthetic\ndescription: loc demo\n")
    idx = target / "syn.idx"
    idx.write_text("syn,syn.mmf,syn.mir,Benign,2020\n")
    return idx


if __name__ == "__main__":
    where = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("out/loc_corpus")
    idx = write_corpus(where)
    sys.exit(main(["stats", str(idx)]))
