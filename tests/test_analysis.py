"""Context windows, trigger chains, taint reachability and slicing."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droidtriage.analysis import (
    backward_slice,
    extract_context,
    replay_witness,
    taint_reachability,
    trigger_paths,
)
from droidtriage.catalog import EntryCatalog
from droidtriage.errors import (
    InvalidSiteError,
    InvalidTargetError,
    NoResultVariableError,
    NotAnInvokeError,
)
from droidtriage.index import CallSite, build_call_graph
from droidtriage.ir import Invoke, If, parse_program, parse_sig, used_vars, defined_var

from genprog import dag_manifest_text, gen_dag_program, gen_program, synth_catalog
from oracles import slice_fixpoint_scan, slice_scan, taint_scan, trigger_scan

ENTRY_RULES = EntryCatalog.parse(
    "user:onClick\nsystem:onReceive@Receiver\nsystem:onStartCommand@Service\n"
    "lifecycle:onCreate\n"
)


def _method_program(n_lines: int, call_line: int) -> tuple:
    lines = []
    for i in range(1, n_lines + 1):
        if i == call_line:
            lines.append("    r = call ext.api.Src.read()->string()")
        else:
            lines.append(f"    v{i % 9} = const {i}")
    text = (
        "class w.M {\n  method w.M.big()->string () {\n"
        + "\n".join(lines)
        + "\n  }\n}\n"
    )
    program = parse_program(text)
    site = CallSite(parse_sig("w.M.big()->string"), call_line,
                    parse_sig("ext.api.Src.read()->string"), "r")
    return program, site


# -- context windows ---------------------------------------------------------


def test_window_small_method_covers_everything():
    program, site = _method_program(5, 3)
    window = extract_context(program, site, radius=20)
    assert (window.start_line, window.end_line) == (1, 5)
    assert not window.truncated_head and not window.truncated_tail


def test_window_centered_in_long_method():
    program, site = _method_program(100, 50)
    window = extract_context(program, site, radius=20)
    assert (window.start_line, window.end_line) == (30, 70)
    assert window.width == 41
    assert not window.truncated_head and not window.truncated_tail


def test_window_near_method_start_flags_head():
    program, site = _method_program(100, 5)
    window = extract_context(program, site, radius=20)
    assert (window.start_line, window.end_line) == (1, 25)
    assert window.truncated_head and not window.truncated_tail


def test_window_lines_carry_numbers():
    program, site = _method_program(10, 4)
    window = extract_context(program, site, radius=2)
    assert window.lines[0].startswith("2:")
    assert "call ext.api.Src.read" in window.lines[2]


def test_window_invalid_site():
    program, site = _method_program(5, 3)
    bad = CallSite(site.method, 2, site.callee, None)  # line 2 is a const
    with pytest.raises(InvalidSiteError):
        extract_context(program, bad)


@given(st.integers(1, 200), st.integers(1, 200))
@settings(max_examples=120, deadline=None)
def test_window_contract_property(n_lines, site_line):
    if site_line > n_lines:
        site_line = ((site_line - 1) % n_lines) + 1
    program, site = _method_program(n_lines, site_line)
    window = extract_context(program, site, radius=20)
    assert window.width <= 41
    assert window.start_line <= site.line <= window.end_line
    assert 1 <= window.start_line and window.end_line <= n_lines
    partial = window.start_line > 1 or window.end_line < n_lines
    assert window.truncated_head == ((site_line - 20 < 1) and partial)
    assert window.truncated_tail == ((site_line + 20 > n_lines) and partial)


# -- trigger paths -----------------------------------------------------------

_TRIGGER_TEXT = """
class t.Main {
  method t.Main.onClick(view)->void (v) {
    r = call ext.api.Src.read()->string()
    return
  }
}
class t.Boot {
  method t.Boot.onReceive(context,intent)->void (c,i) {
    call t.Boot.helper()->void()
    return
  }
  method t.Boot.helper()->void () {
    r = call ext.api.Src.read()->string()
    return
  }
  method t.Boot.orphan()->void () {
    r = call ext.api.Src.read()->string()
    return
  }
}
"""

_TRIGGER_MANIFEST = (
    "package: t\ncategory: x\ndescription: y\n"
    "component:Activity:t.Main\ncomponent:Receiver:t.Boot\n"
)


def _trigger_setup():
    from droidtriage.ir import parse_manifest

    program = parse_program(_TRIGGER_TEXT)
    graph = build_call_graph(program)
    catalog = ENTRY_RULES.bound(parse_manifest(_TRIGGER_MANIFEST))
    return program, graph, catalog


def test_site_inside_onclick_single_chain():
    _program, graph, catalog = _trigger_setup()
    site = CallSite(parse_sig("t.Main.onClick(view)->void"), 1,
                    parse_sig("ext.api.Src.read()->string"), "r")
    chains = trigger_paths(graph, site, catalog, max_depth=5)
    assert len(chains) == 1
    assert chains[0].entry_kind == "UserInteraction"
    assert chains[0].length == 1


def test_boot_receiver_chain():
    _program, graph, catalog = _trigger_setup()
    site = CallSite(parse_sig("t.Boot.helper()->void"), 1,
                    parse_sig("ext.api.Src.read()->string"), "r")
    chains = trigger_paths(graph, site, catalog, max_depth=5)
    assert [(c.entry_kind, c.length) for c in chains] == [("SystemEvent", 2)]
    assert [str(m) for m in chains[0].path] == [
        "t.Boot.onReceive(context,intent)->void",
        "t.Boot.helper()->void",
    ]


def test_unreachable_site_yields_unknown():
    _program, graph, catalog = _trigger_setup()
    site = CallSite(parse_sig("t.Boot.orphan()->void"), 1,
                    parse_sig("ext.api.Src.read()->string"), "r")
    chains = trigger_paths(graph, site, catalog, max_depth=5)
    assert [(c.entry_kind, c.length) for c in chains] == [("Unknown", 1)]


def test_trigger_unknown_method_rejected():
    _program, graph, catalog = _trigger_setup()
    site = CallSite(parse_sig("t.Nope.m()->void"), 1,
                    parse_sig("ext.api.Src.read()->string"), "r")
    from droidtriage.errors import UnknownMethodError

    with pytest.raises(UnknownMethodError):
        trigger_paths(graph, site, catalog, max_depth=3)


def test_trigger_chains_match_enumeration_oracle_on_dags():
    rng = random.Random(23)
    from droidtriage.ir import parse_manifest

    for _ in range(30):
        text, edges, site_idx = gen_dag_program(rng, max_nodes=18)
        program = parse_program(text)
        graph = build_call_graph(program)
        sig_of = {i: str(m.signature) for i, m in enumerate(program.methods())}
        catalog = ENTRY_RULES.bound(
            parse_manifest(dag_manifest_text(len(program.methods())))
        )
        site_method = program.methods()[site_idx].signature
        site_stmt = program.methods()[site_idx].body[-1]
        site = CallSite(site_method, site_stmt.line, site_stmt.callee, None)
        for depth in (1, 3, 6):
            chains = trigger_paths(graph, site, catalog, max_depth=depth)
            got = [(tuple(str(m) for m in c.path), c.entry_kind) for c in chains]
            oracle = trigger_scan(
                [(sig_of[a], sig_of[b]) for a, b in edges],
                str(site_method),
                lambda name: catalog.classify(parse_sig(name)),
                depth,
            )
            assert got == oracle


def test_trigger_chains_are_walks_in_transpose():
    rng = random.Random(29)
    for _ in range(10):
        text, edges, site_idx = gen_dag_program(rng, max_nodes=15)
        program = parse_program(text)
        graph = build_call_graph(program)
        from droidtriage.ir import parse_manifest

        catalog = ENTRY_RULES.bound(
            parse_manifest(dag_manifest_text(len(program.methods())))
        )
        m = program.methods()[site_idx]
        site = CallSite(m.signature, m.body[-1].line, m.body[-1].callee, None)
        sig_of = {i: str(m.signature) for i, m in enumerate(program.methods())}
        edge_set = {(sig_of[a], sig_of[b]) for a, b in edges}
        for chain in trigger_paths(graph, site, catalog, max_depth=4):
            for a, b in zip(chain.path, chain.path[1:]):
                assert (str(a), str(b)) in edge_set
            assert chain.path[-1] == site.method


# -- taint -------------------------------------------------------------------


def _site_of(program, method_text: str, line: int) -> CallSite:
    sig = parse_sig(method_text)
    for m in program.methods():
        if m.signature == sig:
            stmt = m.body[line - 1]
            return CallSite(sig, line, stmt.callee, stmt.dst)
    raise AssertionError("method not found")


def test_taint_result_never_used():
    text = """
class a.B {
  method a.B.m()->void () {
    r = call ext.api.Src.read()->string()
    x = const 1
    call ext.api.Net.send(string)->void(x)
  }
}
"""
    program = parse_program(text)
    graph = build_call_graph(program)
    site = _site_of(program, "a.B.m()->void", 1)
    result = taint_reachability(program, graph, site, synth_catalog(), 3)
    assert result.reached_sinks == []


def test_taint_three_step_witness():
    text = """
class a.B {
  method a.B.m()->void () {
    x = call ext.api.Src.read()->string()
    y = x
    call ext.api.Net.send(string)->void(y)
  }
}
"""
    program = parse_program(text)
    graph = build_call_graph(program)
    site = _site_of(program, "a.B.m()->void", 1)
    result = taint_reachability(program, graph, site, synth_catalog(), 3)
    assert len(result.reached_sinks) == 1
    hit = result.reached_sinks[0]
    assert hit.category == "network"
    assert [line for _m, line in hit.witness] == [1, 2, 3]
    assert replay_witness(program, synth_catalog(), site, hit.witness)


def test_taint_long_copy_chain_witness_replays():
    # one witness step per copy: 1,200 steps, past the interpreter's recursion limit
    n = 1200
    lines = (["v0 = call ext.api.Src.read()->string()"]
             + [f"v{i} = v{i - 1}" for i in range(1, n)]
             + [f"call ext.api.Net.send(string)->void(v{n - 1})"])
    program = parse_program("class a.B {\n  method a.B.m()->void () {\n"
                            + "".join(f"    {line}\n" for line in lines) + "  }\n}\n")
    site = _site_of(program, "a.B.m()->void", 1)
    result = taint_reachability(program, build_call_graph(program), site, synth_catalog(), 3)
    [hit] = result.reached_sinks
    assert [line for _m, line in hit.witness] == list(range(1, n + 2))
    assert replay_witness(program, synth_catalog(), site, hit.witness)
    # a dropped step or a missing sink does not replay
    assert not replay_witness(program, synth_catalog(), site, hit.witness[:500] + hit.witness[501:])
    assert not replay_witness(program, synth_catalog(), site, hit.witness[:-1])


def test_taint_kill_by_reassignment():
    text = """
class a.B {
  method a.B.m()->void () {
    x = call ext.api.Src.read()->string()
    x = const 0
    call ext.api.Net.send(string)->void(x)
  }
}
"""
    program = parse_program(text)
    graph = build_call_graph(program)
    site = _site_of(program, "a.B.m()->void", 1)
    assert taint_reachability(program, graph, site, synth_catalog(), 3).reached_sinks == []


def test_taint_cross_method_storage_hit_requires_depth():
    text = """
class a.B {
  method a.B.a()->void () {
    x = call ext.api.Src.read()->string()
    call a.B.b(string)->void(x)
  }
  method a.B.b(string)->void (p) {
    k = const "key"
    call ext.api.Disk.save(string,string)->void(k,p)
    return
  }
}
"""
    program = parse_program(text)
    graph = build_call_graph(program)
    site = _site_of(program, "a.B.a()->void", 1)
    catalog = synth_catalog()
    deep = taint_reachability(program, graph, site, catalog, 1)
    assert [(str(h.site.method), h.site.line) for h in deep.reached_sinks] == [
        ("a.B.b(string)->void", 2)
    ]
    assert deep.reached_sinks[0].category == "storage"
    assert deep.reached_sinks[0].tainted_arg == "p"
    assert replay_witness(program, catalog, site, deep.reached_sinks[0].witness)
    shallow = taint_reachability(program, graph, site, catalog, 0)
    assert shallow.reached_sinks == []


def test_taint_return_value_propagates_to_caller():
    text = """
class a.B {
  method a.B.a()->void () {
    x = call ext.api.Src.read()->string()
    y = call a.B.ident(string)->string(x)
    call ext.api.Net.send(string)->void(y)
  }
  method a.B.ident(string)->string (p) {
    q = p
    return q
  }
}
"""
    program = parse_program(text)
    graph = build_call_graph(program)
    site = _site_of(program, "a.B.a()->void", 1)
    result = taint_reachability(program, graph, site, synth_catalog(), 2)
    assert len(result.reached_sinks) == 1
    assert replay_witness(program, synth_catalog(), site, result.reached_sinks[0].witness)


def test_taint_loop_does_not_diverge_and_finds_hit():
    text = """
class a.B {
  method a.B.m(string)->void (c) {
    x = call ext.api.Src.read()->string()
    y = x
    if c goto 6
    y = const 0
    goto 2
    call ext.api.Net.send(string)->void(y)
  }
}
"""
    program = parse_program(text)
    graph = build_call_graph(program)
    site = _site_of(program, "a.B.m(string)->void", 1)
    result = taint_reachability(program, graph, site, synth_catalog(), 3)
    assert [h.site.line for h in result.reached_sinks] == [6]


def test_taint_source_errors():
    program = parse_program(
        "class a.B {\n  method a.B.m()->void () {\n    x = const 1\n"
        "    call ext.api.Util.log(string)->void(x)\n  }\n}\n"
    )
    graph = build_call_graph(program)
    catalog = synth_catalog()
    sig = parse_sig("a.B.m()->void")
    with pytest.raises(NotAnInvokeError):
        taint_reachability(
            program, graph,
            CallSite(sig, 1, parse_sig("ext.api.Src.read()->string"), "x"),
            catalog, 3,
        )
    with pytest.raises(NoResultVariableError):
        taint_reachability(
            program, graph,
            CallSite(sig, 2, parse_sig("ext.api.Util.log(string)->void"), None),
            catalog, 3,
        )
    with pytest.raises(InvalidSiteError):
        taint_reachability(
            program, graph,
            CallSite(parse_sig("a.B.nope()->void"), 1,
                     parse_sig("ext.api.Src.read()->string"), "x"),
            catalog, 3,
        )


def _all_sources(program):
    sites = []
    for m in program.methods():
        for stmt in m.body:
            if isinstance(stmt, Invoke) and stmt.dst is not None:
                sites.append(CallSite(m.signature, stmt.line, stmt.callee, stmt.dst))
    return sites


def test_taint_matches_bruteforce_oracle_generated():
    rng = random.Random(31)
    catalog = synth_catalog()
    checked = 0
    for _ in range(60):
        program = parse_program(gen_program(rng, max_methods=8, max_lines=16))
        graph = build_call_graph(program)
        sources = _all_sources(program)
        if not sources:
            continue
        for site in sources[:3]:
            depth = rng.randint(0, 3)
            result = taint_reachability(program, graph, site, catalog, depth)
            got = {(str(h.site.method), h.site.line) for h in result.reached_sinks}
            expected = taint_scan(program, catalog, site.method, site.line, depth)
            assert got == expected
            for hit in result.reached_sinks:
                assert replay_witness(program, catalog, site, hit.witness)
            checked += 1
    assert checked > 50


# -- slicing -----------------------------------------------------------------


def test_slice_straightline_example():
    text = """
class a.B {
  method a.B.m()->void () {
    a = const 1
    b = const 2
    c = a
    return c
  }
}
"""
    program = parse_program(text)
    result = backward_slice(program, parse_sig("a.B.m()->void"), 3, "c")
    assert result.kept_lines == [1, 3]
    assert result.removed_count == 2


def test_slice_on_own_definition_without_inputs():
    program = parse_program(
        "class a.B {\n  method a.B.m()->void () {\n    a = const 1\n    b = const 2\n  }\n}\n"
    )
    result = backward_slice(program, parse_sig("a.B.m()->void"), 2, "b")
    assert result.kept_lines == [2]
    assert result.removed_count == 1


def test_slice_keeps_controlling_if():
    text = """
class a.B {
  method a.B.m(string)->void (c) {
    a = const 1
    if c goto 5
    a = const 2
    nop
    return a
  }
}
"""
    program = parse_program(text)
    result = backward_slice(program, parse_sig("a.B.m(string)->void"), 5, "a")
    # both defs of `a` reach the return; the If controls line 3, which is kept
    assert result.kept_lines == [1, 2, 3, 5]


def test_slice_invalid_target():
    program = parse_program(
        "class a.B {\n  method a.B.m()->void () {\n    a = const 1\n  }\n}\n"
    )
    with pytest.raises(InvalidTargetError):
        backward_slice(program, parse_sig("a.B.m()->void"), 1, "zz")
    with pytest.raises(InvalidTargetError):
        backward_slice(program, parse_sig("a.B.m()->void"), 9, "a")


def test_slice_matches_closure_oracle_straightline():
    rng = random.Random(37)
    for _ in range(40):
        program = parse_program(
            gen_program(rng, max_methods=4, max_lines=25, straight_line=True)
        )
        for m in program.methods():
            stmt = m.body[-1]
            candidates = [v for v in (defined_var(stmt), *used_vars(stmt)) if v]
            if not candidates:
                continue
            var = candidates[0]
            got = backward_slice(program, m.signature, stmt.line, var)
            assert set(got.kept_lines) == slice_scan(m, stmt.line)


def test_slice_closure_invariant_with_branches():
    rng = random.Random(41)
    checked = 0
    for _ in range(40):
        program = parse_program(gen_program(rng, max_methods=4, max_lines=20))
        for m in program.methods():
            for stmt in reversed(m.body):
                var = defined_var(stmt) or next(iter(used_vars(stmt)), None)
                if var is None:
                    continue
                result = backward_slice(program, m.signature, stmt.line, var)
                kept = set(result.kept_lines)
                assert stmt.line in kept
                # closure: re-resolving uses over kept lines stays inside kept
                from oracles import predecessors, reaching_defs

                preds = predecessors(m)
                for l in kept:
                    for u in used_vars(m.body[l - 1]):
                        assert reaching_defs(m, preds, l, u) <= kept
                # control closure under the linear If-range rule
                for s in m.body:
                    if isinstance(s, If) and s.line not in kept:
                        lo, hi = sorted((s.line, s.target))
                        assert not any(k in kept for k in range(lo + 1, hi))
                checked += 1
                break
    assert checked > 30


def test_slice_matches_fixpoint_oracle_with_branches():
    rng = random.Random(43)
    checked = 0
    for _ in range(300):
        program = parse_program(gen_program(rng, max_methods=4, max_lines=20))
        for m in program.methods():
            for stmt in m.body:
                want = slice_fixpoint_scan(m, stmt.line)
                for var in {defined_var(stmt), *used_vars(stmt)} - {None}:
                    got = backward_slice(program, m.signature, stmt.line, var)
                    assert got.kept_lines == sorted(want)
                    assert got.removed_count == len(m.body) - len(want)
                    checked += 1
    assert checked > 3000
