"""Taint witnesses, step for step.

`golden/taint_witnesses.txt` holds every hit of every source of a fixed-seed
set of generated programs (branches, loops and recursion): the sink site, its
category, the tainted argument and the full witness, which must replay.  The
hand-written cases pin the splices a callee contributes.

Run this file to rewrite the golden: python tests/test_taint_witnesses.py
"""

from __future__ import annotations

import random
from pathlib import Path

from droidtriage.analysis import replay_witness, taint_reachability
from droidtriage.index import CallSite
from droidtriage.ir import Goto, If, Invoke, parse_program, parse_sig

from genprog import gen_program, synth_catalog

GOLDEN = Path(__file__).resolve().parent / "golden" / "taint_witnesses.txt"
SEED = 4242
N_PROGRAMS = 100


def _sources(program) -> list[CallSite]:
    return [CallSite(m.signature, line, s.callee, s.dst)
            for m in program.methods() for line, s in enumerate(m.body, 1)
            if isinstance(s, Invoke) and s.dst is not None]


def _steps(witness) -> str:
    return " ".join(f"{m}:{line}" for m, line in witness)


def _programs():
    rng = random.Random(SEED)
    return [parse_program(gen_program(rng, max_methods=8, max_lines=16))
            for _ in range(N_PROGRAMS)]


def witness_lines() -> list[str]:
    catalog = synth_catalog()
    lines = []
    for i, program in enumerate(_programs()):
        for site in _sources(program):
            for hit in taint_reachability(program, site, catalog):
                assert replay_witness(program, catalog, site, hit.witness), hit
                lines.append(
                    f"p{i} {site.method}:{site.line} -> "
                    f"{hit.site.method}:{hit.site.line} {hit.category} "
                    f"{hit.tainted_arg} | {_steps(hit.witness)}"
                )
    return lines


def test_witnesses_match_golden_line_for_line():
    want = GOLDEN.read_text().splitlines()
    got = witness_lines()
    for n, (g, w) in enumerate(zip(got, want), 1):
        assert g == w, f"line {n}"
    assert len(got) == len(want)


def test_golden_programs_have_branches_loops_and_recursion():
    shapes = set()
    for program in _programs():
        methods = program.method_map
        for m in program.methods():
            for line, s in enumerate(m.body, 1):
                if isinstance(s, (If, Goto)):
                    shapes.add("loop" if s.target <= line else "branch")
                if isinstance(s, Invoke) and s.callee == m.signature:
                    shapes.add("recursion")
                elif isinstance(s, Invoke) and s.callee in methods:
                    shapes.add("call")
    assert shapes == {"branch", "loop", "recursion", "call"}
    # some witnesses end in another method than their source
    golden = GOLDEN.read_text()
    assert any(line.split()[1].rsplit(":", 1)[0] != line.split()[3].rsplit(":", 1)[0]
               for line in golden.splitlines())


def _hit_steps(text: str, method: str, line: int):
    program = parse_program(text)
    sig = parse_sig(method)
    stmt = program.method_map[sig].body[line - 1]
    site = CallSite(sig, line, stmt.callee, stmt.dst)
    catalog = synth_catalog()
    result = taint_reachability(program, site, catalog)
    for hit in result:
        assert replay_witness(program, catalog, site, hit.witness)
    return [(f"{h.site.method}:{h.site.line}", h.tainted_arg,
             [f"{m.method_name}:{n}" for m, n in h.witness]) for h in result]


def test_callee_hit_two_calls_deep_after_a_copy():
    text = """
class a.B {
  method a.B.a()->void () {
    x = call ext.api.Src.read()->string()
    y = x
    call a.B.b(string)->void(y)
  }
  method a.B.b(string)->void (p) {
    q = p
    call a.B.c(string)->void(q)
    return
  }
  method a.B.c(string)->void (s) {
    t = s
    call ext.api.Net.send(string)->void(t)
    return
  }
}
"""
    assert _hit_steps(text, "a.B.a()->void", 1) == [(
        "a.B.c(string)->void:2", "t",
        ["a:1", "a:2", "a:3", "b:1", "b:2", "c:1", "c:2"],
    )]


def test_tainted_return_through_a_copying_callee():
    text = """
class a.B {
  method a.B.a()->void () {
    x = call ext.api.Src.read()->string()
    y = call a.B.ident(string)->string(x)
    z = y
    call ext.api.Net.send(string)->void(z)
  }
  method a.B.ident(string)->string (p) {
    q = p
    return q
  }
}
"""
    assert _hit_steps(text, "a.B.a()->void", 1) == [(
        "a.B.a()->void:4", "z",
        ["a:1", "a:2", "ident:1", "ident:2", "a:3", "a:4"],
    )]


def test_recursive_call_returns_its_own_taint_to_a_sink():
    # r only learns that it returns taint after its recursive call, so the
    # summary must run again, as a reader of itself, before v is tainted
    text = """
class a.B {
  method a.B.a()->void () {
    x = call ext.api.Src.read()->string()
    call a.B.r(string)->string(x)
  }
  method a.B.r(string)->string (p) {
    v = call a.B.r(string)->string(p)
    call ext.api.Net.send(string)->void(v)
    return p
  }
}
"""
    assert _hit_steps(text, "a.B.a()->void", 1) == [(
        "a.B.r(string)->string:2", "v", ["a:1", "a:2", "r:1", "r:3", "r:2"],
    )]


def test_first_witness_to_reach_a_line_is_kept():
    # y reaches line 7 from line 4 first; line 6 later brings w, and y again
    # with a different witness, which must not replace the first
    text = """
class a.B {
  method a.B.m(string)->void (c) {
    x = call ext.api.Src.read()->string()
    if c goto 5
    y = x
    goto 7
    y = x
    w = y
    call ext.api.Net.send(string)->void(y)
  }
}
"""
    assert _hit_steps(text, "a.B.m(string)->void", 1) == [(
        "a.B.m(string)->void:7", "y", ["m:1", "m:3", "m:7"],
    )]


if __name__ == "__main__":
    GOLDEN.write_text("".join(f"{line}\n" for line in witness_lines()))
    print(f"wrote {GOLDEN}")
