"""The line ceiling on the package source."""

from __future__ import annotations

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "droidtriage"
# `src/droidtriage/*.py` was 3,446 lines at the start of this round, and the
# round ends at or below that (ROADMAP aim 2).
MAX_SOURCE_LINES = 3446


def test_source_stays_under_line_ceiling():
    lines = sum(len(path.read_text("utf-8").splitlines()) for path in SRC.glob("*.py"))
    assert lines <= MAX_SOURCE_LINES, f"src/droidtriage/*.py holds {lines} lines"
