"""Seeded random program generators shared by the property and acceptance tests.

Programs are emitted as canonical `.mir` text and re-parsed, so every generated
case also exercises the parser.  The synthetic API catalog here is independent
of the shipped one.
"""

from __future__ import annotations

import random

from droidtriage.catalog import ApiCatalog

SYNTH_CATALOG_TEXT = """
source:ext.api.Src.read()->string
api:ext.api.Util.now()->string
api:ext.api.Util.log(string)->void
sink:network:ext.api.Net.send(string)->void
sink:storage:ext.api.Disk.save(string,string)->void
"""

# (qualified name, param count, has result)
EXTERNAL_POOL = [
    ("ext.api.Src.read", 0, True),
    ("ext.api.Util.now", 0, True),
    ("ext.api.Util.log", 1, False),
    ("ext.api.Net.send", 1, False),
    ("ext.api.Disk.save", 2, False),
    ("ext.other.Thirdparty.track", 1, False),  # outside the catalog
]


def synth_catalog() -> ApiCatalog:
    return ApiCatalog.parse(SYNTH_CATALOG_TEXT)


def _ext_sig(name: str, nparams: int, has_result: bool) -> str:
    params = ",".join(["string"] * nparams)
    ret = "string" if has_result else "void"
    return f"{name}({params})->{ret}"


def _method_sig(idx: int, nparams: int) -> str:
    params = ",".join(["string"] * nparams)
    return f"g.C{idx % 3}.m{idx}({params})->string"


def gen_program(
    rng: random.Random,
    max_methods: int = 10,
    max_lines: int = 20,
    straight_line: bool = False,
    min_methods: int = 1,
) -> str:
    """Canonical IR text for a random well-formed program.  Methods with the
    same parameter count share their signature tail and parameter list."""
    n_methods = rng.randint(min_methods, max_methods)
    param_counts = [rng.randint(0, 3) for _ in range(n_methods)]
    sigs = [_method_sig(i, param_counts[i]) for i in range(n_methods)]

    bodies: list[list[str]] = []
    for i in range(n_methods):
        n_lines = rng.randint(1, max_lines)
        avail = [f"p{j}" for j in range(param_counts[i])]
        lines: list[str] = []
        for line_no in range(1, n_lines + 1):
            lines.append(self_stmt(rng, i, n_methods, param_counts, sigs,
                                   avail, line_no, n_lines, straight_line))
        bodies.append(lines)

    chunks: list[str] = []
    by_class: dict[int, list[int]] = {}
    for i in range(n_methods):
        by_class.setdefault(i % 3, []).append(i)
    for cls_idx in sorted(by_class):
        chunks.append(f"class g.C{cls_idx} {{")
        for i in by_class[cls_idx]:
            names = ",".join(f"p{j}" for j in range(param_counts[i]))
            chunks.append(f"  method {sigs[i]} ({names}) {{")
            for line in bodies[i]:
                chunks.append(f"    {line}")
            chunks.append("  }")
        chunks.append("}")
    return "\n".join(chunks) + "\n"


def self_stmt(rng, i, n_methods, param_counts, sigs, avail,
              line_no, n_lines, straight_line) -> str:
    """One random statement; appends any newly defined variable to avail."""

    def fresh() -> str:
        v = f"v{rng.randint(0, 9)}"
        if v not in avail:
            avail.append(v)
        return v

    def some_args(n: int) -> str:
        toks = []
        for _ in range(n):
            if avail and rng.random() < 0.8:
                toks.append(rng.choice(avail))
            else:
                toks.append(str(rng.randint(0, 99)))
        return ",".join(toks)

    choices = ["const", "ext", "nop"]
    if avail:
        choices += ["copy", "ext", "sinkish"]
    if n_methods > 1:
        choices.append("internal")
    if not straight_line:
        choices += ["branch", "goto"]
        if line_no == n_lines or rng.random() < 0.1:
            choices.append("return")
    elif line_no == n_lines:
        choices = ["return"]

    kind = rng.choice(choices)
    if kind == "const":
        return f"{fresh()} = const {rng.randint(0, 999)}"
    if kind == "copy":
        src = rng.choice(avail)
        return f"{fresh()} = {src}"
    if kind in ("ext", "sinkish"):
        name, nparams, has_result = rng.choice(
            EXTERNAL_POOL if kind == "ext" else EXTERNAL_POOL[3:5]
        )
        call = f"call {_ext_sig(name, nparams, has_result)}({some_args(nparams)})"
        if has_result and rng.random() < 0.8:
            return f"{fresh()} = {call}"
        return call
    if kind == "internal":
        j = rng.randrange(n_methods)
        call = f"call {sigs[j]}({some_args(param_counts[j])})"
        if rng.random() < 0.7:
            return f"{fresh()} = {call}"
        return call
    if kind == "branch" and avail:
        return f"if {rng.choice(avail)} goto {rng.randint(1, n_lines)}"
    if kind == "goto":
        return f"goto {rng.randint(1, n_lines)}"
    if kind == "return":
        if avail and rng.random() < 0.7:
            return f"return {rng.choice(avail)}"
        return "return"
    return "nop"


def gen_dag_program(rng: random.Random, max_nodes: int = 30) -> tuple[str, list[tuple[int, int]], int]:
    """Acyclic call structure: edges only from lower to higher indices.

    Returns (ir_text, edge list over method indices, site method index).
    Method i is named so that some indices classify as entry points.
    """
    n = rng.randint(2, max_nodes)
    edges: list[tuple[int, int]] = []
    for j in range(1, n):
        for i in range(j):
            if rng.random() < min(0.25, 4.0 / n):
                edges.append((i, j))
    return _call_program(rng, n, edges), edges, n - 1


def gen_cyclic_program(rng: random.Random, max_nodes: int = 12,
                       values: bool = False) -> tuple[str, list[tuple[int, int]], int]:
    """Like `gen_dag_program`, but an edge may join any two methods either
    way, so the call structure has cycles and self-calls.  With `values`,
    taint can flow around those cycles (see `_call_program`)."""
    n = rng.randint(1, max_nodes)
    edges = [(i, j) for i in range(n) for j in range(n) if rng.random() < min(0.3, 2.5 / n)]
    return _call_program(rng, n, edges, values), edges, rng.randrange(n)


def _call_program(rng: random.Random, n: int, edges: list[tuple[int, int]],
                  values: bool = False) -> str:
    """Methods `dag.N<i>` calling along `edges`, then an external logger.

    With `values`, each method takes a string `p` and returns one; it may
    read the source API, passes a random live value to each callee, may send
    one to the network sink, and returns one."""
    entry_names = ["onClick", "onCreate", "onReceive", "onStartCommand", "helper"]
    names = [
        rng.choice(entry_names) if rng.random() < 0.4 else "helper"
        for _ in range(n)
    ]
    # qualified, unique signatures: class per node keeps component kinds simple
    shape = "(string)->string" if values else "()->void"
    sigs = [f"dag.N{i}.{names[i]}{shape}" for i in range(n)]

    out_edges: dict[int, list[int]] = {}
    for a, b in edges:
        out_edges.setdefault(a, []).append(b)

    chunks = []
    for i in range(n):
        chunks.append(f"class dag.N{i} {{")
        chunks.append(f"  method {sigs[i]} ({'p' if values else ''}) {{")
        live = ["p"]
        if values and rng.random() < 0.5:
            chunks.append("    s = call ext.api.Src.read()->string()")
            live.append("s")
        for b in sorted(set(out_edges.get(i, []))):
            if values:
                chunks.append(f"    r{b} = call {sigs[b]}({rng.choice(live)})")
                live.append(f"r{b}")
            else:
                chunks.append(f"    call {sigs[b]}()")
        if values and rng.random() < 0.5:
            chunks.append(f"    call ext.api.Net.send(string)->void({rng.choice(live)})")
        chunks.append(f"    call ext.api.Util.log(string)->void(\"x\")")
        if values:
            chunks.append(f"    return {rng.choice(live)}")
        chunks.append("  }")
        chunks.append("}")
    return "\n".join(chunks) + "\n"


def dag_manifest_text(n: int) -> str:
    """Marks every even-indexed class a Receiver and odd a Service, so
    `onReceive`/`onStartCommand` rules can fire."""
    lines = [
        "package: dag.app",
        "category: generated",
        "description: synthetic",
    ]
    for i in range(n):
        kind = "Receiver" if i % 2 == 0 else "Service"
        lines.append(f"component:{kind}:dag.N{i}")
    return "\n".join(lines) + "\n"


# Names from the shipped API catalog, for shapes run through the whole pipeline.
DEVICE_SOURCE = "android.telephony.TelephonyManager.getDeviceId()->string"
STORAGE_SINK = "android.content.SharedPreferences.Editor.putString(string,string)->editor"


def gen_fold_chain(lines: int) -> tuple[str, str]:
    """The hostile fold-chain shape as (manifest, IR) text for the shipped
    catalog: one `lines`-line `onCreate` where `k` is a constant, every other
    line is `c = call fold(k, c)` through an app method the catalog does not
    know, a device id is read mid-method, and a storage sink on line
    `lines - 1` writes `c` and the id.  The slice from that sink keeps every
    line but the final return."""
    fold = "app.Mix.fold(string,string)->string"
    body = ['k = const "key"', 'c = const "seed"']
    body += [f"id = call {DEVICE_SOURCE}()" if line == lines // 2 else f"c = call {fold}(k,c)"
             for line in range(3, lines - 1)]
    body += [f"e = call {STORAGE_SINK}(c,id)", "return"]
    manifest = ("package: fold.app\ncategory: wallpaper gallery\ndescription: wallpapers\n"
                "permission:READ_PHONE_STATE\ncomponent:Activity:fold.app.Main:exported\n")
    ir = ("class fold.app.Main extends android.app.Activity {\n"
          "  method fold.app.Main.onCreate(bundle)->void (b) {\n"
          + "".join(f"    {stmt}\n" for stmt in body) + "  }\n}\n")
    return manifest, ir


# Slice shapes: one method `s.S.m()->void` of `lines` lines, returned as
# (IR text, target line, target variable) for `backward_slice`.


def _shape(body: list[str]) -> str:
    return ("class s.S {\n  method s.S.m()->void () {\n"
            + "".join(f"    {stmt}\n" for stmt in body) + "  }\n}\n")


def _constants_used_at_end(names: list[str], middle: list[str]) -> list[str]:
    """A constant per name, then `middle`, then one call using every name,
    then `return`."""
    use = f"call s.S.use({','.join(['int'] * len(names))})->void({','.join(names)})"
    return [f"{v} = const {i}" for i, v in enumerate(names)] + middle + [use, "return"]


def gen_if_ladder(lines: int) -> tuple[str, int, str]:
    """`k` and `v` are constants, then the lines alternate `if k goto <last
    line>` and `v = v`, and the last line returns `v`.  Every If's range holds
    every later line but the return, so the slice of the return keeps every
    line except an If right before it."""
    body = ["k = const 1", "v = const 0"]
    body += [f"if k goto {lines}" if line % 2 else "v = v" for line in range(3, lines)]
    return _shape(body + ["return v"]), lines, "v"


def gen_if_ladder_back(lines: int) -> tuple[str, int, str]:
    """`gen_if_ladder` mirrored: every If is `if k goto 2`, so its range holds
    every line between line 2 and itself, and the slice of the return keeps
    every line but the first If."""
    body = ["k = const 1", "v = const 0"]
    body += ["if k goto 2" if line % 2 else "v = v" for line in range(3, lines)]
    return _shape(body + ["return v"]), lines, "v"


def gen_wide_use(lines: int) -> tuple[str, int, str]:
    """`lines - 2` constants, then one call that uses all of them."""
    names = [f"v{i}" for i in range(1, lines - 1)]
    return _shape(_constants_used_at_end(names, [])), lines - 1, "v1"


def gen_goto_chain(lines: int) -> tuple[str, int, str]:
    """Half the lines constants, then a chain of `goto <next line>`, then one
    call that uses every constant.  A `goto` to the next line joins nothing,
    so the whole method up to the call is one region."""
    k = lines // 2
    names = [f"v{i}" for i in range(1, k + 1)]
    chain = [f"goto {line + 1}" for line in range(k + 1, lines - 1)]
    return _shape(_constants_used_at_end(names, chain)), lines - 1, "v1"


def gen_join_ladder(lines: int) -> tuple[str, int, str]:
    """`c` and a third of the lines constants, then a ladder of real joins
    (`if c goto <line + 2>` over a `nop`, so the line after has two
    predecessors), then one call that uses every constant: each constant's
    demand crosses every join."""
    k = lines // 3
    names = [f"v{i}" for i in range(1, k + 1)]
    ladder = [f"if c goto {line + 2}" if (line - k) % 2 == 0 else "nop"
              for line in range(k + 2, lines - 1)]
    return _shape(["c = const 1"] + _constants_used_at_end(names, ladder)), lines - 1, "v1"


def gen_copy_chain(lines: int) -> str:
    """The taint copy chain: one `lines`-line method `s.S.m()->void` whose
    line 1 reads a device id into `v1`, whose next lines copy it down a chain
    `v<i> = v<i-1>`, and whose line `lines - 1` writes the last copy to a
    storage sink.  Every copy stays tainted to the end of the method."""
    last = f"v{lines - 2}"
    body = [f"v1 = call {DEVICE_SOURCE}()"]
    body += [f"v{i} = v{i - 1}" for i in range(2, lines - 1)]
    return _shape(body + [f"e = call {STORAGE_SINK}({last},{last})", "return"])


def gen_copy_chain_joins(lines: int) -> str:
    """`gen_copy_chain` with every other line `if v1 goto <line + 2>`: the
    line after each copy has two predecessors, so it heads a region, the
    copied taint joins there, and each copy takes a phi."""
    body, last = [f"v1 = call {DEVICE_SOURCE}()"], "v1"
    for line in range(2, lines - 1):
        if line % 2:
            body.append(f"c{line} = {last}")
            last = f"c{line}"
        else:
            body.append(f"if v1 goto {line + 2}")
    return _shape(body + [f"e = call {STORAGE_SINK}({last},{last})", "return"])


def gen_relay_chain(n: int, recursive: bool = False, leaky: bool = False) -> str:
    """A device id relayed down a call chain: `r.R.m()->void` reads it on line
    1 and passes it to `r.R.r1`, each of the `n` relays `r.R.r<i>(string)->void`
    passes its parameter to the next, and the last writes it to a storage
    sink.  With `recursive`, each relay first calls itself on its parameter,
    so every relay is a cycle of the call graph.  With `leaky`, each relay
    also writes its parameter to the storage sink before it passes it on, so
    the chain has `n + 1` sinks."""
    def relay(i: int) -> str:
        return f"r.R.r{i}(string)->void"

    head = [f"v = call {DEVICE_SOURCE}()", f"call {relay(1)}(v)", "return"]
    methods = ["  method r.R.m()->void () {\n" + "".join(f"    {s}\n" for s in head) + "  }\n"]
    for i in range(1, n + 1):
        body = [f"call {relay(i)}(p)"] if recursive else []
        body += [f"l = call {STORAGE_SINK}(p,p)"] if leaky else []
        body += [f"call {relay(i + 1)}(p)" if i < n else f"e = call {STORAGE_SINK}(p,p)",
                 "return"]
        methods.append(f"  method {relay(i)} (p) {{\n"
                       + "".join(f"    {s}\n" for s in body) + "  }\n")
    return "class r.R {\n" + "".join(methods) + "}\n"
