#!/usr/bin/env python3
"""Extended oracle audit: fuzz the analyses against their brute-force
re-implementations at a scale beyond the committed test suite.

Usage: python scripts/audit_oracles.py [n_programs] [seed]
"""

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from droidtriage.analysis import backward_slice, replay_witness, taint_reachability, trigger_paths
from droidtriage.catalog import EntryCatalog
from droidtriage.index import CallSite, build_api_index, build_call_graph
from droidtriage.ir import Invoke, defined_var, parse_manifest, parse_program, parse_sig, used_vars

from genprog import dag_manifest_text, gen_dag_program, gen_program, synth_catalog
from oracles import index_scan, slice_fixpoint_scan, taint_scan, trigger_scan

ENTRY_RULES = EntryCatalog.parse(
    "user:onClick\nsystem:onReceive@Receiver\nsystem:onStartCommand@Service\n"
    "lifecycle:onCreate\n"
)


def main(n_programs: int, seed: int) -> int:
    rng = random.Random(seed)
    catalog = synth_catalog()
    t0 = time.time()
    taint_queries = taint_hits = slice_queries = 0
    programs = 0
    while programs < n_programs:
        program = parse_program(gen_program(rng, max_methods=12, max_lines=22))
        graph = build_call_graph(program)

        index = build_api_index(program, catalog)
        scan = index_scan(program, catalog)
        got = {k: [(str(s.method), s.line) for s in index.sites[k]] for k in index.sites}
        assert got == scan, "index/oracle divergence"

        for m in program.methods():
            for stmt in m.body:
                want = sorted(slice_fixpoint_scan(m, stmt.line))
                for var in {defined_var(stmt), *used_vars(stmt)} - {None}:
                    got_slice = backward_slice(program, m.signature, stmt.line, var)
                    assert got_slice.kept_lines == want, "slice/oracle divergence"
                    slice_queries += 1

        sources = [
            CallSite(m.signature, s.line, s.callee, s.dst)
            for m in program.methods()
            for s in m.body
            if isinstance(s, Invoke) and s.dst is not None
        ]
        if not sources:
            continue
        programs += 1
        for site in sources[:2]:
            depth = rng.randint(0, 3)
            result = taint_reachability(program, graph, site, catalog, depth)
            got_sinks = {(str(h.site.method), h.site.line) for h in result.reached_sinks}
            want = taint_scan(program, catalog, site.method, site.line, depth)
            assert got_sinks == want, "taint/oracle divergence"
            for hit in result.reached_sinks:
                assert replay_witness(program, catalog, site, hit.witness), "witness replay failed"
            taint_queries += 1
            taint_hits += len(result.reached_sinks)

    dag_checks = 0
    for _ in range(max(50, n_programs // 10)):
        text, edges, site_idx = gen_dag_program(rng, max_nodes=30)
        program = parse_program(text)
        graph = build_call_graph(program)
        catalog_b = ENTRY_RULES.bound(parse_manifest(dag_manifest_text(len(program.methods()))))
        sig_of = {i: str(m.signature) for i, m in enumerate(program.methods())}
        m = program.methods()[site_idx]
        site = CallSite(m.signature, m.body[-1].line, m.body[-1].callee, None)
        depth = rng.choice((2, 4, 6))
        chains = trigger_paths(graph, site, catalog_b, max_depth=depth)
        got_chains = [(tuple(str(x) for x in c.path), c.entry_kind) for c in chains]
        want_chains = trigger_scan(
            [(sig_of[a], sig_of[b]) for a, b in edges],
            str(m.signature),
            lambda name: catalog_b.classify(parse_sig(name)),
            depth,
        )
        assert got_chains == want_chains, "trigger/oracle divergence"
        dag_checks += 1

    elapsed = time.time() - t0
    print(
        f"audited {programs} programs: {taint_queries} taint queries "
        f"({taint_hits} sink hits, all witnesses replayed), {slice_queries} slices, "
        f"{dag_checks} trigger DAGs, index scans on every program; "
        f"no divergences in {elapsed:.1f}s"
    )
    return 0


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 500
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    sys.exit(main(n, seed))
