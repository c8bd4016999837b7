#!/usr/bin/env python3
"""Extended oracle audit: fuzz the parser and the analyses against their
brute-force re-implementations at a scale beyond the committed test suite.

Usage: python scripts/audit_oracles.py [n_programs] [seed]
"""

import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from droidtriage.analysis import backward_slice, replay_witness, taint_reachability, trigger_paths
from droidtriage.catalog import EntryCatalog
from droidtriage.config import load_config
from droidtriage.index import CallSite, build_api_index, build_call_graph
from droidtriage.ir import Invoke, parse_manifest, parse_program, parse_sig

from genprog import (
    dag_manifest_text, gen_cyclic_program, gen_dag_program, gen_program, gen_relay_chain,
    synth_catalog,
)
from oracles import (
    defined_var, index_scan, parse_program_cascade, render_program, slice_fixpoint_scan,
    taint_scan, trigger_scan, used_vars,
)

ENTRY_RULES = EntryCatalog.parse(
    "user:onClick\nsystem:onReceive@Receiver\nsystem:onStartCommand@Service\n"
    "lifecycle:onCreate\n"
)


def parse_checked(text: str):
    """The program, after checking it against the regex-cascade parser."""
    program = parse_program(text)
    want = parse_program_cascade(text)
    assert program == want and render_program(program) == render_program(want), \
        "parser/oracle divergence"
    return program


def audit_taint(program, catalog) -> tuple[int, int]:
    """Query every source once against the oracle and replay every witness;
    returns (queries, sink hits)."""
    queries = hits = 0
    for m in program.methods():
        for line, s in enumerate(m.body, 1):
            if not (isinstance(s, Invoke) and s.dst is not None):
                continue
            site = CallSite(m.signature, line, s.callee, s.dst)
            result = taint_reachability(program, site, catalog)
            got_sinks = {(str(h.site.method), h.site.line) for h in result}
            want = taint_scan(program, catalog, site.method, site.line)
            assert got_sinks == want, "taint/oracle divergence"
            for hit in result:
                assert replay_witness(program, catalog, site, hit.witness), \
                    "witness replay failed"
            queries += 1
            hits += len(result)
    return queries, hits


def audit_slices(program, method) -> int:
    """Slice every variable of every line of `method` against the oracle;
    returns the number of slices."""
    slices = 0
    for line, stmt in enumerate(method.body, 1):
        want = sorted(slice_fixpoint_scan(method, line))
        for var in {defined_var(stmt), *used_vars(stmt)} - {None}:
            got = backward_slice(program, method.signature, line, var)
            assert got.kept_lines == want, "slice/oracle divergence"
            slices += 1
    return slices


def main(n_programs: int, seed: int) -> int:
    rng = random.Random(seed)
    catalog = synth_catalog()
    t0 = time.time()
    taint_queries = taint_hits = slice_queries = 0
    programs = 0
    while programs < n_programs:
        program = parse_checked(gen_program(rng, max_methods=12, max_lines=22))

        index = build_api_index(program, catalog)
        scan = index_scan(program, catalog)
        got = {str(callee): [(str(caller), line) for caller, line, _stmt in rows]
               for callee, rows in index.sites.items()}
        assert list(got.items()) == list(scan.items()), "index/oracle divergence"

        for m in program.methods():
            slice_queries += audit_slices(program, m)

        queries, hits = audit_taint(program, catalog)
        if not queries:
            continue
        programs += 1
        taint_queries += queries
        taint_hits += hits

    graph_checks = 0
    for i in range(max(50, n_programs // 10)):
        # alternately acyclic, and with cycles and self-calls
        if i % 2:
            text, edges, site_idx = gen_cyclic_program(rng)
        else:
            text, edges, site_idx = gen_dag_program(rng, max_nodes=30)
        program = parse_checked(text)
        graph = build_call_graph(program)
        catalog_b = ENTRY_RULES.bound(parse_manifest(dag_manifest_text(len(program.methods()))))
        sig_of = {i: str(m.signature) for i, m in enumerate(program.methods())}
        m = program.methods()[site_idx]
        site = CallSite(m.signature, len(m.body), m.body[-1].callee, None)
        depth = rng.choice((2, 4, 6))
        result = trigger_paths(graph, site, catalog_b, max_depth=depth)
        chains = list(result)
        got_chains = [(tuple(str(x) for x in c.path), c.entry_kind) for c in chains]
        want_chains = trigger_scan(
            [(sig_of[a], sig_of[b]) for a, b in edges],
            str(m.signature),
            lambda name: catalog_b.classify(parse_sig(name)),
            depth,
        )
        assert got_chains == want_chains, "trigger/oracle divergence"
        assert result.count == len(chains), "trigger count/walk divergence"
        classified = [c for c in chains if c.entry_kind != "Unknown"]
        assert result.best() == (classified or chains)[0], "best trigger divergence"
        graph_checks += 1

    # taint around call cycles and self-calls
    cyclic_queries = cyclic_hits = 0
    for _ in range(max(50, n_programs // 10)):
        queries, hits = audit_taint(parse_checked(gen_cyclic_program(rng, values=True)[0]), catalog)
        cyclic_queries += queries
        cyclic_hits += hits

    # relay chains with a sink in every relay, plain and recursive, against
    # the shipped catalog
    relay_queries = relay_hits = 0
    shipped = load_config().api_catalog
    for n in range(1, 31):
        for recursive in (False, True):
            text = gen_relay_chain(n, recursive, leaky=True)
            queries, hits = audit_taint(parse_checked(text), shipped)
            relay_queries += queries
            relay_hits += hits

    # branchy methods of up to 200 lines, so the slice's If table is several
    # levels deep
    long_slices = 0
    for _ in range(max(10, n_programs // 25)):
        program = parse_checked(gen_program(rng, max_methods=2, max_lines=200))
        for m in program.methods():
            long_slices += audit_slices(program, m)

    # a few large programs whose hundreds of methods share signature tails,
    # parameter lists and jump texts, so the parser's tables are full when the
    # later methods are read
    large_methods = 0
    for _ in range(5):
        text = gen_program(rng, max_methods=800, max_lines=22, min_methods=200)
        large_methods += len(parse_checked(text).methods())

    elapsed = time.time() - t0
    print(
        f"audited {programs} programs: {taint_queries} taint queries "
        f"({taint_hits} sink hits, all witnesses replayed), {slice_queries} slices, "
        f"{long_slices} slices of methods up to 200 lines, "
        f"{graph_checks} trigger graphs, {cyclic_queries} taint queries on cyclic call "
        f"graphs ({cyclic_hits} sink hits), {relay_queries} taint queries on leaky relay "
        f"chains ({relay_hits} sink hits), {large_methods} methods in 5 large programs, "
        f"parser and index scans on every program; "
        f"no divergences in {elapsed:.1f}s"
    )
    return 0


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 500
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    sys.exit(main(n, seed))
