"""Call graph and inverted index."""

from __future__ import annotations

import random
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from droidtriage.index import build_api_index, build_call_graph
from droidtriage.ir import Invoke, parse_program, parse_sig

from genprog import gen_program, synth_catalog
from oracles import callers_scan, index_scan


def _as_scan(index) -> dict[str, list[tuple[str, int]]]:
    """The index's rows in `oracles.index_scan`'s form."""
    return {str(callee): [(str(caller), line) for caller, line, _stmt in rows]
            for callee, rows in index.sites.items()}


def test_single_method_no_calls():
    program = parse_program("class a.B {\n  method a.B.m()->void () {\n    nop\n  }\n}\n")
    graph = build_call_graph(program)
    assert len(graph.nodes) == 1
    assert [graph.callers_of(node) for node in graph.nodes] == [()]
    assert graph.callers_of(parse_sig("a.B.m()->void")) == ()


def test_one_call_text_at_two_lines_is_two_sites():
    send = "call ext.api.Net.send(string)->void(p)"
    program = parse_program(
        f"class a.B {{\n  method a.B.m(string)->void (p) {{\n    {send}\n    nop\n    {send}\n"
        "  }\n}\n")
    body = program.methods()[0].body
    assert body[0] is body[2]
    index = build_api_index(program, synth_catalog())
    rows = index.sites[parse_sig("ext.api.Net.send(string)->void")]
    assert [(str(caller), line) for caller, line, _stmt in rows] == [
        ("a.B.m(string)->void", 1), ("a.B.m(string)->void", 3)]


def test_duplicate_call_sites_kept_and_external_leaf():
    text = """
class a.B {
  method a.B.a()->void () {
    x = const 1
    call a.B.b()->void()
    nop
    call a.B.b()->void()
  }
  method a.B.b()->void () {
    call ext.api.Util.log(string)->void("hi")
  }
}
"""
    graph = build_call_graph(parse_program(text))
    a = parse_sig("a.B.a()->void")
    b = parse_sig("a.B.b()->void")
    log = parse_sig("ext.api.Util.log(string)->void")
    assert graph.nodes == {a, b, log}
    # the two calls a -> b (lines 2 and 4) give one caller entry
    assert graph.callers_of(b) == (a,)
    assert graph.callers_of(log) == (b,)
    assert graph.callers_of(a) == ()


def test_edge_count_equals_invoke_count_generated():
    # one caller-table entry per distinct (caller, callee) pair of Invokes
    rng = random.Random(7)
    for _ in range(30):
        program = parse_program(gen_program(rng, max_methods=8, max_lines=15))
        graph = build_call_graph(program)
        pairs = {(str(callee), caller) for callee, callers in callers_scan(program).items()
                 for caller in callers}
        assert sum(len(graph.callers_of(node)) for node in graph.nodes) == len(pairs)


def test_reverse_is_transpose_generated():
    # callers_of is the transpose of the Invoke relation: distinct callers,
    # in file order, and nothing for a method nobody calls; more than ten
    # methods, so that file order (m4 before m10) is not rendering order
    rng = random.Random(11)
    for _ in range(30):
        program = parse_program(gen_program(rng, 24, 15, min_methods=11))
        graph = build_call_graph(program)
        scan = callers_scan(program)
        for node in graph.nodes:
            assert [str(c) for c in graph.callers_of(node)] == scan.get(node, [])


def test_callers_memo_filled_from_many_threads():
    # sessions share one graph and fill its callers memo concurrently: every
    # thread must get the oracle's callers, and all of them the one stored tuple
    program = parse_program(gen_program(random.Random(29), 12, 20))
    scan = callers_scan(program)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            graph = build_call_graph(program)
            nodes = sorted(graph.nodes, key=str)
            seen: list[list[tuple]] = [[] for _ in range(8)]
            barrier = threading.Barrier(len(seen), timeout=10)

            def worker(out: list) -> None:
                barrier.wait()
                out.extend(graph.callers_of(node) for node in nodes)

            threads = [threading.Thread(target=worker, args=(out,)) for out in seen]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert [[str(c) for c in callers] for callers in seen[0]] == [
                scan.get(node, []) for node in nodes]
            for out in seen:
                assert len(out) == len(nodes)
                assert all(got is graph.callers_of(n) for got, n in zip(out, nodes))
    finally:
        sys.setswitchinterval(old)


def test_lookup_unindexed_signature_empty():
    program = parse_program("class a.B {\n  method a.B.m()->void () {\n    nop\n  }\n}\n")
    index = build_api_index(program, synth_catalog())
    assert index.sites == {}


def test_lookup_returns_sites_in_order():
    text = """
class a.B {
  method a.B.a()->void () {
    x = const 1
    call ext.api.Util.log(string)->void("one")
  }
  method a.B.c()->void () {
    y = const 2
    nop
    call ext.api.Util.log(string)->void("two")
  }
}
"""
    index = build_api_index(parse_program(text), synth_catalog())
    rows = index.sites[parse_sig("ext.api.Util.log(string)->void")]
    assert [(str(caller), line) for caller, line, _stmt in rows] == [
        ("a.B.a()->void", 2),
        ("a.B.c()->void", 3),
    ]
    assert all(stmt.dst is None for _caller, _line, stmt in rows)


def test_internal_calls_not_indexed():
    text = (
        "class ext.api.Util {\n  method ext.api.Util.log(string)->void (s) {\n    nop\n  }\n}\n"
        "class a.B {\n  method a.B.m()->void () {\n"
        "    call ext.api.Util.log(string)->void(\"x\")\n  }\n}\n"
    )
    index = build_api_index(parse_program(text), synth_catalog())
    assert parse_sig("ext.api.Util.log(string)->void") not in index.sites


def test_index_matches_scan_oracle_generated():
    rng = random.Random(17)
    catalog = synth_catalog()
    for _ in range(40):
        program = parse_program(gen_program(rng, 10, 20))
        index = build_api_index(program, catalog)
        assert list(_as_scan(index).items()) == list(index_scan(program, catalog).items())


def _fixture_programs():
    from pathlib import Path

    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    for d in sorted(fixtures.iterdir()):
        if d.is_dir():
            yield d.name, parse_program((d / "app.mir").read_text())


def test_fixture_corpus_index_matches_scan_with_shipped_catalog():
    from droidtriage.config import load_config

    catalog = load_config().api_catalog
    for name, program in _fixture_programs():
        index = build_api_index(program, catalog)
        assert list(_as_scan(index).items()) == list(index_scan(program, catalog).items()), name


def test_catalog_asked_once_per_distinct_callee_generated():
    # the index used to ask the catalog once per external call site
    rng = random.Random(23)
    catalog = synth_catalog()

    class CountingCatalog:
        def __init__(self):
            self.asked = []

        def is_system(self, sig):
            self.asked.append(sig)
            return catalog.is_system(sig)

    for _ in range(40):
        program = parse_program(gen_program(rng, 10, 20))
        counting = CountingCatalog()
        index = build_api_index(program, counting)
        calls = [
            stmt.callee
            for m in program.methods()
            for stmt in m.body
            if isinstance(stmt, Invoke) and stmt.callee not in program.method_map
        ]
        assert counting.asked == list(dict.fromkeys(calls))
        # keys keep the order of their first site in file order
        assert list(index.sites) == [c for c in counting.asked if catalog.is_system(c)]


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_index_oracle_property(seed):
    rng = random.Random(seed)
    catalog = synth_catalog()
    program = parse_program(gen_program(rng, 8, 15))
    index = build_api_index(program, catalog)
    assert list(_as_scan(index).items()) == list(index_scan(program, catalog).items())
