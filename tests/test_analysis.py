"""Context windows, trigger chains, taint reachability and slicing."""

from __future__ import annotations

import gc
import random
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droidtriage import analysis
from droidtriage.agents import MAX_SHOWN, RiskSignal, ToolBox
from droidtriage.analysis import (
    backward_slice,
    extract_context,
    replay_witness,
    taint_reachability,
    trigger_paths,
)
from droidtriage.catalog import EntryCatalog
from droidtriage.config import load_config
from droidtriage.errors import ToolError
from droidtriage.index import CallSite, build_api_index, build_call_graph
from droidtriage.ir import (
    AppBundle, Invoke, If, Manifest, parse_bundle, parse_program, parse_sig, validate,
)

from genprog import (
    DEVICE_SOURCE,
    dag_manifest_text,
    gen_copy_chain,
    gen_copy_chain_joins,
    gen_cyclic_program,
    gen_dag_program,
    gen_fold_chain,
    gen_goto_chain,
    gen_if_ladder,
    gen_if_ladder_back,
    gen_join_ladder,
    gen_program,
    gen_relay_chain,
    gen_wide_use,
    synth_catalog,
)
from oracles import defined_var, slice_fixpoint_scan, slice_scan, taint_scan, trigger_scan, used_vars

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


def _box(program, site: CallSite) -> ToolBox:
    """A trace session's tool box on `site`."""
    bundle = AppBundle("w", Manifest("w", "", "", [], []), program)
    signal = RiskSignal("READ_PHONE_STATE", "reads the source", "High")
    return ToolBox(bundle, build_call_graph(program), load_config().api_catalog, ENTRY_RULES,
                   site, signal)


def _context_obs(program, site: CallSite, radius: int) -> dict:
    """The `extract_context` observation the model reads for `site`."""
    return _box(program, site).dispatch("extract_context", {"radius": radius})[0]


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
    assert len(_context_obs(program, site, 20)["lines"]) == 41
    assert not window.truncated_head and not window.truncated_tail


def test_window_near_method_start_flags_head():
    program, site = _method_program(100, 5)
    window = extract_context(program, site, radius=20)
    assert (window.start_line, window.end_line) == (1, 25)
    assert window.truncated_head and not window.truncated_tail


def test_window_lines_carry_numbers():
    program, site = _method_program(10, 4)
    lines = _context_obs(program, site, 2)["lines"]
    assert lines[0].startswith("2:")
    assert "call ext.api.Src.read" in lines[2]


def test_window_invalid_site():
    program, site = _method_program(5, 3)
    bad = CallSite(site.method, 2, site.callee, None)  # line 2 is a const
    with pytest.raises(ToolError) as exc:
        extract_context(program, bad, radius=20)
    assert exc.value.kind == "tool"
    assert str(exc.value) == "w.M.big()->string:2 is not a call to ext.api.Src.read()->string"


@given(st.integers(1, 200), st.integers(1, 200))
@settings(max_examples=120, deadline=None)
def test_window_contract_property(n_lines, site_line):
    if site_line > n_lines:
        site_line = ((site_line - 1) % n_lines) + 1
    program, site = _method_program(n_lines, site_line)
    window = extract_context(program, site, radius=20)
    assert window.end_line - window.start_line + 1 <= 41
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
    chains = list(trigger_paths(graph, site, catalog, max_depth=5))
    assert len(chains) == 1
    assert chains[0].entry_kind == "UserInteraction"
    assert len(chains[0].path) == 1


def test_boot_receiver_chain():
    _program, graph, catalog = _trigger_setup()
    site = CallSite(parse_sig("t.Boot.helper()->void"), 1,
                    parse_sig("ext.api.Src.read()->string"), "r")
    chains = list(trigger_paths(graph, site, catalog, max_depth=5))
    assert [(c.entry_kind, len(c.path)) for c in chains] == [("SystemEvent", 2)]
    assert [str(m) for m in chains[0].path] == [
        "t.Boot.onReceive(context,intent)->void",
        "t.Boot.helper()->void",
    ]


def test_unreachable_site_yields_unknown():
    _program, graph, catalog = _trigger_setup()
    site = CallSite(parse_sig("t.Boot.orphan()->void"), 1,
                    parse_sig("ext.api.Src.read()->string"), "r")
    chains = trigger_paths(graph, site, catalog, max_depth=5)
    assert [(c.entry_kind, len(c.path)) for c in chains] == [("Unknown", 1)]


def test_trigger_unknown_method_rejected():
    _program, graph, catalog = _trigger_setup()
    site = CallSite(parse_sig("t.Nope.m()->void"), 1,
                    parse_sig("ext.api.Src.read()->string"), "r")
    with pytest.raises(ToolError) as exc:
        trigger_paths(graph, site, catalog, max_depth=3)
    assert exc.value.kind == "tool"
    assert str(exc.value) == "unknown method t.Nope.m()->void"


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
        site_body = program.methods()[site_idx].body
        site = CallSite(site_method, len(site_body), site_body[-1].callee, None)
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
        site = CallSite(m.signature, len(m.body), m.body[-1].callee, None)
        sig_of = {i: str(m.signature) for i, m in enumerate(program.methods())}
        edge_set = {(sig_of[a], sig_of[b]) for a, b in edges}
        for chain in trigger_paths(graph, site, catalog, max_depth=4):
            for a, b in zip(chain.path, chain.path[1:]):
                assert (str(a), str(b)) in edge_set
            assert chain.path[-1] == site.method


@pytest.mark.parametrize("gen", [gen_dag_program, gen_cyclic_program])
def test_trigger_walks_drain_to_oracle_with_count_kinds_and_best(gen):
    # walks may revisit methods on cyclic graphs and through self-calls
    from droidtriage.ir import parse_manifest

    rng = random.Random(31)
    unknown_first = 0
    for _ in range(60):
        text, edges, site_idx = gen(rng)
        program = parse_program(text)
        graph = build_call_graph(program)
        sig_of = {i: str(m.signature) for i, m in enumerate(program.methods())}
        catalog = ENTRY_RULES.bound(parse_manifest(dag_manifest_text(len(program.methods()))))
        m = program.methods()[site_idx]
        site = CallSite(m.signature, len(m.body), m.body[-1].callee, None)
        for depth in (0, 1, 3, 6):
            result = trigger_paths(graph, site, catalog, max_depth=depth)
            drained = list(result)
            got = [(tuple(str(x) for x in c.path), c.entry_kind) for c in drained]
            assert got == trigger_scan(
                [(sig_of[a], sig_of[b]) for a, b in edges], str(m.signature),
                lambda name: catalog.classify(parse_sig(name)), depth,
            )
            assert result.count == len(result) == len(drained)
            classified = [c for c in drained if c.entry_kind != "Unknown"]
            assert result.best() == (classified or drained)[0]
            assert list(result) == drained
            unknown_first += bool(classified) and drained[0].entry_kind == "Unknown"
    assert unknown_first > 0


_UNKNOWN_FIRST_TEXT = """
class u.A {
  method u.A.helper()->void () {
    call u.S.helper()->void()
    return
  }
}
class u.B {
  method u.B.helper()->void () {
    call u.S.helper()->void()
    return
  }
}
class u.Main {
  method u.Main.onClick(view)->void (v) {
    call u.B.helper()->void()
    return
  }
}
class u.S {
  method u.S.helper()->void () {
    r = call ext.api.Src.read()->string()
    return
  }
}
"""


def test_best_trigger_skips_unknown_chains_drawn_first():
    graph = build_call_graph(parse_program(_UNKNOWN_FIRST_TEXT))
    site = CallSite(parse_sig("u.S.helper()->void"), 1,
                    parse_sig("ext.api.Src.read()->string"), "r")
    catalog = ENTRY_RULES.bound(Manifest("u", "", "", [], []))
    deep = trigger_paths(graph, site, catalog, max_depth=5)
    assert [(c.entry_kind, [str(m) for m in c.path]) for c in deep] == [
        ("Unknown", ["u.A.helper()->void", "u.S.helper()->void"]),
        ("UserInteraction", ["u.Main.onClick(view)->void", "u.B.helper()->void",
                             "u.S.helper()->void"]),
    ]
    assert deep.best() == list(deep)[1]
    # at depth 1 no walk reaches onClick: the first Unknown chain is the best
    shallow = trigger_paths(graph, site, catalog, max_depth=1)
    assert [str(c.path[0]) for c in shallow] == ["u.A.helper()->void", "u.B.helper()->void"]
    assert shallow.best() == list(shallow)[0]


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
    site = _site_of(program, "a.B.m()->void", 1)
    result = taint_reachability(program, site, synth_catalog())
    assert result == []


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
    site = _site_of(program, "a.B.m()->void", 1)
    result = taint_reachability(program, site, synth_catalog())
    assert len(result) == 1
    hit = result[0]
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
    result = taint_reachability(program, site, synth_catalog())
    [hit] = result
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
    site = _site_of(program, "a.B.m()->void", 1)
    assert taint_reachability(program, site, synth_catalog()) == []


def test_taint_cross_method_storage_hit():
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
    site = _site_of(program, "a.B.a()->void", 1)
    catalog = synth_catalog()
    [hit] = taint_reachability(program, site, catalog)
    assert (str(hit.site.method), hit.site.line) == ("a.B.b(string)->void", 2)
    assert hit.category == "storage"
    assert hit.tainted_arg == "p"
    assert replay_witness(program, catalog, site, hit.witness)


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
    site = _site_of(program, "a.B.a()->void", 1)
    result = taint_reachability(program, site, synth_catalog())
    assert len(result) == 1
    assert replay_witness(program, synth_catalog(), site, result[0].witness)


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
    site = _site_of(program, "a.B.m(string)->void", 1)
    result = taint_reachability(program, site, synth_catalog())
    assert [h.site.line for h in result] == [6]


def test_taint_source_errors():
    program = parse_program(
        "class a.B {\n  method a.B.m()->void () {\n    x = const 1\n"
        "    call ext.api.Util.log(string)->void(x)\n  }\n}\n"
    )
    catalog = synth_catalog()
    sig = parse_sig("a.B.m()->void")
    with pytest.raises(ToolError, match=r"^a\.B\.m\(\)->void:1 is not a call$") as exc:
        taint_reachability(
            program,
            CallSite(sig, 1, parse_sig("ext.api.Src.read()->string"), "x"),
            catalog,
        )
    assert exc.value.kind == "tool"
    with pytest.raises(ToolError, match=r"^a\.B\.m\(\)->void:2 discards its result$") as exc:
        taint_reachability(
            program,
            CallSite(sig, 2, parse_sig("ext.api.Util.log(string)->void"), None),
            catalog,
        )
    assert exc.value.kind == "tool"
    # the address check the three tools share
    with pytest.raises(ToolError, match=r"^unknown method a\.B\.nope\(\)->void$") as exc:
        taint_reachability(
            program,
            CallSite(parse_sig("a.B.nope()->void"), 1,
                     parse_sig("ext.api.Src.read()->string"), "x"),
            catalog,
        )
    assert exc.value.kind == "tool"
    with pytest.raises(ToolError, match=r"^a\.B\.m\(\)->void has no line 3$"):
        taint_reachability(
            program, CallSite(sig, 3, parse_sig("ext.api.Src.read()->string"), "x"),
            catalog,
        )


def _all_sources(program):
    sites = []
    for m in program.methods():
        for line, stmt in enumerate(m.body, 1):
            if isinstance(stmt, Invoke) and stmt.dst is not None:
                sites.append(CallSite(m.signature, line, stmt.callee, stmt.dst))
    return sites


def _check_taint(program, sites) -> int:
    """Query each site against the brute-force oracle and replay every
    witness; returns the number of sink hits."""
    catalog = synth_catalog()
    hits = 0
    for site in sites:
        result = taint_reachability(program, site, catalog)
        got = {(str(h.site.method), h.site.line) for h in result}
        assert got == taint_scan(program, catalog, site.method, site.line)
        for hit in result:
            assert replay_witness(program, catalog, site, hit.witness)
        hits += len(result)
    return hits


def test_taint_matches_bruteforce_oracle_generated():
    rng = random.Random(31)
    checked = 0
    for _ in range(60):
        program = parse_program(gen_program(rng, max_methods=8, max_lines=16))
        sources = _all_sources(program)[:3]
        _check_taint(program, sources)
        checked += len(sources)
    assert checked > 50


def test_taint_matches_bruteforce_oracle_on_call_cycles():
    rng = random.Random(37)
    hits = 0
    for _ in range(25):
        program = parse_program(gen_cyclic_program(rng, values=True)[0])
        hits += _check_taint(program, _all_sources(program))
    assert hits > 50


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
    with pytest.raises(ToolError) as exc:
        backward_slice(program, parse_sig("a.B.m()->void"), 1, "zz")
    assert exc.value.kind == "tool"
    assert str(exc.value) == "'zz' neither defined nor used at a.B.m()->void:1"
    with pytest.raises(ToolError) as exc:
        backward_slice(program, parse_sig("a.B.m()->void"), 9, "a")
    assert exc.value.kind == "tool"
    assert str(exc.value) == "a.B.m()->void has no line 9"


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
            got = backward_slice(program, m.signature, len(m.body), var)
            assert set(got.kept_lines) == slice_scan(m, len(m.body))


def test_shared_if_keeps_the_range_rule_at_each_position():
    program = parse_program(
        "class a.B {\n  method a.B.m(int)->int (p) {\n    x = const 1\n    if p goto 6\n"
        "    y = x\n    if p goto 6\n    z = y\n    return z\n  }\n}\n")
    m = program.methods()[0]
    assert m.body[1] is m.body[3]
    # line 3 lies inside the range of the If at line 2 only; line 5 inside both
    assert backward_slice(program, m.signature, 3, "y").kept_lines == [1, 2, 3]
    assert backward_slice(program, m.signature, 5, "z").kept_lines == [1, 2, 3, 4, 5]
    for line, stmt in enumerate(m.body, 1):
        for var in {defined_var(stmt), *used_vars(stmt)} - {None}:
            got = backward_slice(program, m.signature, line, var)
            assert got.kept_lines == sorted(slice_fixpoint_scan(m, line))


def test_slice_closure_invariant_with_branches():
    rng = random.Random(41)
    checked = 0
    for _ in range(40):
        program = parse_program(gen_program(rng, max_methods=4, max_lines=20))
        for m in program.methods():
            for line, stmt in reversed(list(enumerate(m.body, 1))):
                var = defined_var(stmt) or next(iter(used_vars(stmt)), None)
                if var is None:
                    continue
                result = backward_slice(program, m.signature, line, var)
                kept = set(result.kept_lines)
                assert line in kept
                # closure: re-resolving uses over kept lines stays inside kept
                from oracles import predecessors, reaching_defs

                preds = predecessors(m)
                for l in kept:
                    for u in used_vars(m.body[l - 1]):
                        assert reaching_defs(m, preds, l, u) <= kept
                # control closure under the linear If-range rule
                for if_line, s in enumerate(m.body, 1):
                    if isinstance(s, If) and if_line not in kept:
                        lo, hi = sorted((if_line, s.target))
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
            for line, stmt in enumerate(m.body, 1):
                want = slice_fixpoint_scan(m, line)
                for var in {defined_var(stmt), *used_vars(stmt)} - {None}:
                    got = backward_slice(program, m.signature, line, var)
                    assert got.kept_lines == sorted(want)
                    assert got.removed_count == len(m.body) - len(want)
                    checked += 1
    assert checked > 3000


# Dead definitions that reach a live join.  `oracles.reaching_defs` walks
# every predecessor, reachable or not, and the taint oracle starts only from
# line 1 or the source, so the graph roots each part that a walk from line 1
# misses at a virtual entry that defines nothing.
SRC, SEND = "ext.api.Src.read()->string", "ext.api.Net.send(string)->void"

# m:6 follows a mid-method return and falls into the `goto` target m:7; in
# h, h:3 and h:4 lie after a return, so h:4 must not see the parameter
DEAD_AFTER_RETURN = f"""class d.A {{
  method d.A.m()->void () {{
    x = call {SRC}()
    if x goto 4
    return
    goto 7
    return
    x = const 1
    y = x
    call {SEND}(y)
    call d.A.h(string)->void(x)
    return
  }}
  method d.A.h(string)->void (p) {{
    goto 5
    return
    q = p
    call {SEND}(q)
    call {SEND}(p)
    return
  }}
}}
"""

# m:4 to m:6 is a loop that no path enters; m:5 defines x in it and m:7
# leaves it for the live join m:9; k:2 and k:3 are a dead loop on the
# parameter
DEAD_LOOP = f"""class d.B {{
  method d.B.m()->void () {{
    x = call {SRC}()
    z = x
    goto 8
    call {SEND}(z)
    x = const 1
    if x goto 4
    goto 9
    nop
    call {SEND}(x)
    call d.B.k(string)->void(x)
    return
  }}
  method d.B.k(string)->void (p) {{
    goto 5
    call {SEND}(p)
    if p goto 2
    return
    call {SEND}(p)
    return
  }}
}}
"""


def _assert_dead_code_matches_oracles(text: str, line: int,
                                      var: str) -> tuple[list[int], set[tuple[str, int]]]:
    """Check every slice of the program and the taint of m's source against
    the oracles; return the slice of m at (line, var) and the sinks reached."""
    program, catalog = parse_program(text), synth_catalog()
    assert not validate(AppBundle("d", Manifest("d", "", "", [], []), program))
    for m in program.methods():
        for at, stmt in enumerate(m.body, 1):
            for used in {defined_var(stmt), *used_vars(stmt)} - {None}:
                got = backward_slice(program, m.signature, at, used)
                assert got.kept_lines == sorted(slice_fixpoint_scan(m, at)), (m.signature, at)
    m = program.methods()[0]
    source = CallSite(m.signature, 1, parse_sig(SRC), "x")
    hits = taint_reachability(program, source, catalog)
    sinks = {(str(hit.site.method), hit.site.line) for hit in hits}
    assert sinks == taint_scan(program, catalog, m.signature, 1)
    assert all(replay_witness(program, catalog, source, hit.witness) for hit in hits)
    return backward_slice(program, m.signature, line, var).kept_lines, sinks


def test_dead_definition_after_return_reaches_goto_target():
    kept, sinks = _assert_dead_code_matches_oracles(DEAD_AFTER_RETURN, 8, "y")
    assert kept == [1, 6, 7, 8]
    assert sinks == {("d.A.m()->void", 8), ("d.A.h(string)->void", 5)}


def test_dead_loop_definition_reaches_live_join():
    kept, sinks = _assert_dead_code_matches_oracles(DEAD_LOOP, 9, "x")
    assert kept == [1, 5, 6, 9]
    assert sinks == {("d.B.m()->void", 9), ("d.B.k(string)->void", 5)}


# -- attacker shapes ---------------------------------------------------------

SLICE_SHAPES = [gen_if_ladder, gen_if_ladder_back, gen_wide_use, gen_goto_chain, gen_join_ladder]


def _fold_shape(lines: int) -> tuple[str, int, str]:
    return gen_fold_chain(lines)[1], lines - 1, "c"


def _shape_slice(gen, lines: int):
    text, line, var = gen(lines)
    program = parse_program(text)
    method = program.methods()[0]
    return method, backward_slice(program, method.signature, line, var)


@pytest.mark.parametrize("gen", SLICE_SHAPES + [_fold_shape])
def test_slice_matches_fixpoint_oracle_on_shapes(gen):
    for lines in (5, 6, 7, 8, 21, 50, 101, 200):
        method, got = _shape_slice(gen, lines)
        assert got.kept_lines == sorted(slice_fixpoint_scan(method, gen(lines)[1])), lines


def _copy_chain_joins_shape(lines: int) -> tuple[str, int, str]:
    return gen_copy_chain_joins(lines), lines - 1, "e"


@pytest.mark.parametrize("gen", SLICE_SHAPES + [_fold_shape, _copy_chain_joins_shape])
def test_defuse_graph_linear_on_shapes(gen, monkeypatch):
    # the graph's own tables are counted, not timed: its phis, its def-use
    # edges (a use to its reaching definition, a phi to an operand), and the
    # lines each walk visits: the slice keeps each line once, and taint runs
    # one transfer per visit of a line
    visits = []
    transfer = analysis._TaintEngine._transfer

    def counted(engine, p, line, facts):
        visits.append(line)
        return transfer(engine, p, line, facts)

    monkeypatch.setattr(analysis._TaintEngine, "_transfer", counted)
    catalog, device = load_config().api_catalog, parse_sig(DEVICE_SOURCE)
    for lines in (1000, 2000, 4000, 8000):
        text, line, var = gen(lines)
        program = parse_program(text)
        method = program.methods()[0]
        reaching, users, operands = method.defuse
        phis = len(operands)
        edges = sum(map(len, reaching)) + sum(map(len, operands.values()))
        assert sum(map(len, users.values())) == edges  # each edge is filed at both ends
        assert phis <= lines // 2 and edges <= 2 * lines, (lines, phis, edges)
        got = backward_slice(program, method.signature, line, var)
        assert len(got.kept_lines) + got.removed_count == lines
        visits.clear()
        for at, stmt in enumerate(method.body, 1):
            if isinstance(stmt, Invoke) and stmt.callee == device:
                hits = taint_reachability(program, CallSite(method.signature, at, device, stmt.dst),
                                          catalog)
                assert [hit.site.line for hit in hits] == [line]
        assert len(visits) <= lines, (lines, len(visits))


@pytest.mark.parametrize("gen", [gen_if_ladder, gen_if_ladder_back])
def test_if_table_entries_log_linear_on_ladders(gen):
    # each If is filed under the O(log n) nodes that tile its range; the
    # count is deterministic, so the bound needs no timing
    for lines in (1000, 2000, 4000, 8000):
        method = parse_program(gen(lines)[0]).methods()[0]
        ifs = sum(isinstance(s, If) for s in method.body)
        _size, buckets = analysis._if_buckets(method.body)
        entries = sum(map(len, buckets.values()))
        assert entries <= 2 * lines.bit_length() * ifs, (lines, entries)


def test_slice_of_one_fresh_method_from_many_threads():
    # live sessions share one MethodDef: threads that slice or taint it at once
    # build its cached def-use graph while others read it, and each must get
    # the answer for a method analysed alone.  On the two shapes with a
    # source, half the threads slice and half taint
    catalog, device = load_config().api_catalog, parse_sig(DEVICE_SOURCE)

    def sliced(program, line, var):
        return backward_slice(program, program.methods()[0].signature, line, var)

    def tainted(program, _line, _var):
        method = program.methods()[0]
        at, stmt = next((at, s) for at, s in enumerate(method.body, 1)
                        if isinstance(s, Invoke) and s.callee == device)
        hits = taint_reachability(program, CallSite(method.signature, at, device, stmt.dst), catalog)
        return [(hit, hit.witness) for hit in hits]

    shapes = [(gen_if_ladder(1500), [sliced]), (gen_if_ladder_back(1500), [sliced]),
              (gen_join_ladder(120), [sliced]), (_fold_shape(1500), [sliced, tainted]),
              (_copy_chain_joins_shape(1500), [sliced, tainted])]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for (text, line, var), tools in shapes:
            program = parse_program(text)
            want = [tool(parse_program(text), line, var) for tool in tools]
            got: list = [None] * 8
            barrier = threading.Barrier(len(got), timeout=10)

            def worker(i: int) -> None:
                barrier.wait()
                got[i] = tools[i % len(tools)](program, line, var)

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(got))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert got == [want[i % len(tools)] for i in range(len(got))]
    finally:
        sys.setswitchinterval(old)


def _copy_chain_taint_peak(lines: int) -> int:
    """Peak bytes that tracemalloc sees during one taint call on a fresh
    copy chain."""
    program = parse_program(gen_copy_chain(lines))
    method = program.methods()[0]
    source = CallSite(method.signature, 1, parse_sig(DEVICE_SOURCE), "v1")
    catalog = load_config().api_catalog  # parsing the catalog is not the engine's cost
    tracemalloc.start()
    try:
        result = taint_reachability(program, source, catalog)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [hit.site.line for hit in result] == [lines - 1]
    return peak


def test_taint_memory_linear_on_copy_chain():
    # IN used to be kept at every line, and each line's IN holds every copy
    # made so far, so four times the lines took about sixteen times the bytes;
    # the test counts bytes, not time.  Tuple free lists hide the small
    # allocations of a short chain, so both chains are long
    small, large = _copy_chain_taint_peak(4000), _copy_chain_taint_peak(16000)
    assert large < 8 * small, (small, large)


def _relay_chain_taint(n: int, recursive: bool, leaky: bool = False):
    """The relay chain's program, its source and one taint call's result."""
    program = parse_program(gen_relay_chain(n, recursive, leaky))
    source = CallSite(parse_sig("r.R.m()->void"), 1, parse_sig(DEVICE_SOURCE), "v")
    return program, source, taint_reachability(program, source, load_config().api_catalog)


@pytest.mark.parametrize("recursive", [False, True])
def test_taint_relay_chain_needs_no_call_stack(recursive):
    # no pass calls another and a witness unwinds on an explicit stack, so a
    # sink 2,000 calls below the source needs no more frames than one call
    load_config()  # parsed once before the limit drops
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        program, source, result = _relay_chain_taint(2000, recursive)
    finally:
        sys.setrecursionlimit(old)
    [hit] = result
    assert str(hit.site.method) == "r.R.r2000(string)->void"
    assert len(hit.witness) == 2002
    assert replay_witness(program, load_config().api_catalog, source, hit.witness)


@pytest.mark.parametrize("n", [500, 4000])
def test_taint_sinks_stay_in_their_pass(monkeypatch, n):
    # a summary used to copy every sink below it into each pass that read it,
    # so a chain with a sink in every relay stored relays squared entries and
    # ran passes again for each sink found below them.  The test counts
    runs: list = []
    run = analysis._TaintEngine._run

    def counted(engine, p):
        runs.append(p)
        run(engine, p)

    monkeypatch.setattr(analysis._TaintEngine, "_run", counted)
    _program, _source, result = _relay_chain_taint(n, False, leaky=True)
    passes = set(runs)
    # counted first, so that a failure does not render the passes
    n_runs, n_passes = len(runs), len(passes)
    assert n_passes == n + 1  # the source's pass and one summary per relay
    assert n_runs == n_passes
    n_stored = sum(len(p.sinks) for p in passes)
    assert n_stored == len(result) == n + 1


@pytest.mark.parametrize("recursive", [False, True])
def test_taint_leaky_relay_chain_matches_oracle(recursive):
    for n in range(1, 31):
        program, source, result = _relay_chain_taint(n, recursive, leaky=True)
        catalog = load_config().api_catalog
        got = {(str(hit.site.method), hit.site.line) for hit in result}
        assert got == taint_scan(program, catalog, source.method, source.line), n
        assert len(got) == n + 1
        assert all(replay_witness(program, catalog, source, hit.witness)
                   for hit in result), n


def test_taint_unwinds_only_the_witnesses_read(monkeypatch):
    # every hit's witness used to be unwound in the call, and the sink in
    # relay i of a leaky chain has a witness of about i steps: 8,014,002 steps
    # on 4,000 relays, of which an observation shows ten hits.  The test counts
    n, steps = 4000, []
    unwind = analysis._unwind

    def counted(node):
        witness = unwind(node)
        steps.append(len(witness))
        return witness

    monkeypatch.setattr(analysis, "_unwind", counted)
    program, source, result = _relay_chain_taint(n, False, leaky=True)
    box = _box(program, source)
    obs, _text = box.dispatch("taint_reachability", {})
    assert len(result) == len(box.taint) == n + 1
    assert len(obs["reached_sinks"]) == MAX_SHOWN
    assert sum(steps) <= MAX_SHOWN * (n + 2)


def _relay_chain_taint_peak(n: int) -> int:
    program = parse_program(gen_relay_chain(n))
    source = CallSite(parse_sig("r.R.m()->void"), 1, parse_sig(DEVICE_SOURCE), "v")
    catalog = load_config().api_catalog
    tracemalloc.start()
    try:
        result = taint_reachability(program, source, catalog)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result) == 1
    return peak


def test_taint_memory_linear_on_relay_chain():
    # a callee's witness is spliced into its caller's by reference; copying
    # it at every call would make four times the relays cost sixteen times
    # the bytes.  The test counts bytes, not time
    small, large = _relay_chain_taint_peak(500), _relay_chain_taint_peak(2000)
    assert large < 8 * small, (small, large)


def test_analyses_build_no_reference_cycle():
    # a scripted app runs with the cyclic collector paused, so what the parse,
    # the indexes and the tools build must die by refcount.  Taint's passes
    # used to hold their callees and their readers, a cycle per call edge:
    # 10,010 cyclic objects for one call on 2,000 relays
    catalog = load_config().api_catalog
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    bundles = [((d / "app.mmf").read_text(), (d / "app.mir").read_text())
               for d in sorted(fixtures.glob("fx_*"))]
    rng = random.Random(41)
    bundles += [("package: g.app\n", gen_program(rng, 12, 25)) for _ in range(50)]
    bundles += [("package: s.app\n", gen_join_ladder(120)[0]),
                ("package: s.app\n", gen_copy_chain_joins(120))]
    relays = [(gen_relay_chain(2000), False), (gen_relay_chain(500, True, True), True)]
    phis = 0
    gc.collect()
    gc.disable()
    try:
        for manifest_text, ir_text in bundles:
            bundle = parse_bundle(manifest_text, ir_text)
            assert not validate(bundle)
            build_call_graph(bundle.program)
            build_api_index(bundle.program, catalog)
            for method in bundle.program.methods():
                phis += len(method.defuse[2])
        for text, leaky in relays:
            program = parse_program(text)
            source = CallSite(parse_sig("r.R.m()->void"), 1, parse_sig(DEVICE_SOURCE), "v")
            hits = taint_reachability(program, source, catalog)
            assert len(hits) == (501 if leaky else 1)
        del bundle, method, program, source, hits
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert phis >= 59  # one for each copy of the chain with joins
