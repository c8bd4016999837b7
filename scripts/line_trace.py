#!/usr/bin/env python3
"""Which function-body lines of `src/droidtriage/*.py` no run reaches.

Every line of the package that runs is recorded with `sys.settrace` and
`threading.settrace` (standard library only) over these runs:

- `batch` on the fixtures with one broken bundle, so that a skipped app is
  reported, and on the benchmark's large_apps and hostile_apps workloads at
  seed 101;
- `analyze` on each fixture;
- `stats` on the fixtures, and `metrics` on the fixture batch's results;
- a live `batch` of the fixtures against `triagebench/stub.py`;
- `backward_slice` on the `tests/genprog.py` slice shapes, and
  `taint_reachability` on its copy chains, with and without `if ... goto`
  joins, and on its relay chains.

It then prints, per module, each function-body line that none of them ran.
Module and class bodies run at import, before tracing starts, so they are
not counted. Last, a static pass (`ast`) prints, per module, each dataclass
field that no line of the package reads as `.<field>`: a field that is only
written, or read by `asdict`/`vars` or by code outside the package. It matches
by name, so a read of another class's field of the same name hides a field.
Takes a few seconds; it is not part of the test suite.

Usage: python scripts/line_trace.py
"""

from __future__ import annotations

import ast
import contextlib
import inspect
import io
import sys
import tempfile
import threading
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "droidtriage"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "triagebench")]

import genprog  # noqa: E402
import stub  # noqa: E402
import workloads  # noqa: E402
from droidtriage.analysis import backward_slice, taint_reachability  # noqa: E402
from droidtriage.cli import main  # noqa: E402
from droidtriage.config import load_config  # noqa: E402
from droidtriage.index import CallSite  # noqa: E402
from droidtriage.ir import parse_program, parse_sig  # noqa: E402

SEED = 101
SHAPE_LINES = 200
RELAYS = 40
COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def body_lines(path: Path) -> set[int]:
    """The lines of `path` that carry code of a function body, lambdas and
    comprehensions included."""
    lines: set[int] = set()
    todo = [(compile(path.read_text("utf-8"), str(path), "exec"), False)]
    while todo:
        code, in_function = todo.pop()
        # a function, not a module or class body, nor a comprehension in one:
        # a comprehension runs where it stands, so outside a function at import
        function = bool(code.co_flags & inspect.CO_NEWLOCALS) and (
            in_function or code.co_name not in COMPREHENSIONS)
        todo += [(c, function) for c in code.co_consts if isinstance(c, types.CodeType)]
        if function:
            own = {line for _s, _e, line in code.co_lines() if line is not None}
            # a `def`'s first line is its `def` or decorator line, which runs in
            # the enclosing scope; a lambda's or a comprehension's is code of the
            # function around it, so it stays
            if not code.co_name.startswith("<"):
                own.discard(code.co_firstlineno)
            lines |= own
    return lines


class LineTrace:
    def __init__(self, files: set[str]):
        self.files = files
        self.hits: dict[str, set[int]] = defaultdict(set)

    def _local(self, frame, event, arg):
        self.hits[frame.f_code.co_filename].add(frame.f_lineno)
        return self._local

    def _global(self, frame, event, arg):
        # frames outside the package get no local tracer, so they run untraced
        return self._local if frame.f_code.co_filename in self.files else None

    @contextlib.contextmanager
    def active(self):
        threading.settrace(self._global)
        sys.settrace(self._global)
        try:
            yield
        finally:
            sys.settrace(None)
            threading.settrace(None)


def cli(*argv: str) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    if rc != 0:
        sys.exit(f"droidtriage {' '.join(argv)} exited {rc}: {err.getvalue()}")


def analyses() -> None:
    for shape in (genprog.gen_if_ladder, genprog.gen_if_ladder_back, genprog.gen_wide_use,
                  genprog.gen_goto_chain, genprog.gen_join_ladder):
        text, line, var = shape(SHAPE_LINES)
        program = parse_program(text)
        backward_slice(program, program.methods()[0].signature, line, var)
    catalog, device = load_config().api_catalog, parse_sig(genprog.DEVICE_SOURCE)
    chains = [(genprog.gen_copy_chain(SHAPE_LINES), "s.S.m()->void", "v1"),
              (genprog.gen_copy_chain_joins(SHAPE_LINES), "s.S.m()->void", "v1")]
    chains += [(genprog.gen_relay_chain(RELAYS, recursive, leaky), "r.R.m()->void", "v")
               for recursive in (False, True) for leaky in (False, True)]
    for text, method, var in chains:
        taint_reachability(parse_program(text), CallSite(parse_sig(method), 1, device, var), catalog)


def runs(tmp: Path) -> None:
    fixtures = ROOT / "fixtures"
    (tmp / "broken.mmf").write_text("package: broken\n", "utf-8")
    (tmp / "broken.mir").write_text("class oops {\n", "utf-8")
    rows = [row.split(",") for row in (fixtures / "corpus.idx").read_text("utf-8").splitlines()
            if row and not row.startswith("#")]
    index = tmp / "fixtures.idx"
    index.write_text("".join(f"{app},{fixtures / mmf},{fixtures / mir},{label},{year}\n"
                             for app, mmf, mir, label, year in rows)
                     + "broken,broken.mmf,broken.mir,Benign,2020\n", "utf-8")
    cli("batch", str(index), "--out", str(tmp / "fixtures"))
    cli("metrics", str(tmp / "fixtures" / "results.jsonl"))
    cli("stats", str(fixtures / "corpus.idx"))
    for app in sorted(p for p in fixtures.iterdir() if p.is_dir()):
        cli("analyze", str(app))
    for name in ("large_apps", "hostile_apps"):
        wl = workloads.build(name, SEED, ROOT, tmp / name / "inputs")
        cli("batch", str(wl.index), "--out", str(tmp / name / "out"))
    proc, url = stub.start(ROOT)
    try:
        default = (PACKAGE / "data" / "default_config.ini").read_text("utf-8")
        config = tmp / "live.ini"
        config.write_text(default.replace("https://api.example.com/v1", url), "utf-8")
        cli("batch", str(fixtures / "corpus.idx"), "--backend", "live",
            "--config", str(config), "--out", str(tmp / "live"))
    finally:
        stub.stop(proc)
    analyses()


def report(trace: LineTrace) -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text("utf-8").splitlines()
        body = body_lines(path)
        missed = sorted(body - trace.hits[str(path)])
        total += len(missed)
        print(f"{path.name}: {len(missed)} of {len(body)} body lines unreached")
        for line in missed:
            print(f"  {line:4}  {source[line - 1].strip()}")
    print(f"total: {total} unreached body lines")


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in cls.decorator_list)


def report_unread_fields() -> None:
    trees = {p.name: ast.parse(p.read_text("utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    total = 0
    for name, tree in trees.items():
        unread = [f"{cls.name}.{stmt.target.id}" for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
                  for stmt in cls.body
                  if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                  and stmt.target.id not in read]
        total += len(unread)
        if unread:
            print(f"{name}: {len(unread)} dataclass field(s) no line reads")
            for field in unread:
                print(f"  {field}")
    print(f"total: {total} unread dataclass fields")


if __name__ == "__main__":
    trace = LineTrace({str(p) for p in PACKAGE.glob("*.py")})
    with tempfile.TemporaryDirectory() as tmp, trace.active():
        runs(Path(tmp))
    report(trace)
    report_unread_fields()
