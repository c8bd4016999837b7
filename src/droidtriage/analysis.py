"""Static-analysis toolbox driven by the forensic agent.

Four operations over an immutable program + call graph:

* extract_context   -- statement window around a call site
* trigger_paths     -- reverse walks from a site to entry points
* taint_reachability-- forward taint from a call's return value to sinks
* backward_slice    -- intra-method dependency slice

Taint is flow-sensitive inside a method and context-insensitive across
calls, with no depth limit.  Values move only through copies, call arguments
and return values; there is no heap and no implicit flow through branches.
So taint is distributive: each (method, tainted parameter) has one summary,
the sinks of its method that it reaches, the summaries it calls and whether
it returns taint, solved to a fixpoint by a worklist, recursion included.  A
pass walks its method's def-use graph (`MethodDef.defuse`) forward from the
tainted parameter, or from the source's result, to the users of each tainted
definition.  Sinks stay in the pass that reaches them, and one breadth-first
walk over the calls from the source's pass collects them.  Each fact carries
its witness, a linked list of def-use steps back to the source or to the
pass's parameter, into which a call splices its callee's witness by
reference; a hit's witness is unwound only when read, and each one replays.
Passes name one another by (method, parameter) key, so none is part of a
reference cycle.

A slice is the least set of lines that holds the target, every definition
reaching a use on a kept line, and every If with a kept line strictly
between the If and its branch target (a linear approximation of control
dependence).  It is a walk of the def-use graph backward from the target,
from each kept line's uses to their reaching definitions, expanding each phi
once.  The Ifs sit in a stabbing table built per slice, a segment tree over
the lines in which each If is filed under the nodes that tile its range; a
kept line pops the buckets on its leaf-to-root path, so each bucket is
emptied at most once.

Every refusal of a tool's arguments is a ToolError.
"""

from __future__ import annotations

from collections import defaultdict, deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush

from .catalog import ApiCatalog, EntryCatalog
from .errors import ToolError
from .index import CallGraph, CallSite
from .ir import (
    Assign,
    If,
    Invoke,
    IrProgram,
    IrStatement,
    MethodDef,
    MethodSig,
    Return,
)

# ---------------------------------------------------------------------------
# local context retrieval
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContextWindow:
    start_line: int
    end_line: int
    truncated_head: bool
    truncated_tail: bool


def _statement_at(program: IrProgram, sig: MethodSig, line: int) -> tuple[MethodDef, IrStatement]:
    """The method `sig` and its statement on `line`, or a ToolError saying
    which of the two does not exist."""
    method = program.method_map.get(sig)
    if method is None:
        raise ToolError(f"unknown method {sig}")
    if not (1 <= line <= len(method.body)):
        raise ToolError(f"{sig} has no line {line}")
    return method, method.body[line - 1]


def extract_context(program: IrProgram, site: CallSite, radius: int) -> ContextWindow:
    """The lines within `radius` of the site, clipped to the method.  A
    truncation flag is set when the requested radius hit the method boundary
    on that side and the window does not already cover the whole method."""
    method, stmt = _statement_at(program, site.method, site.line)
    if not isinstance(stmt, Invoke) or stmt.callee != site.callee:
        raise ToolError(f"{site.method}:{site.line} is not a call to {site.callee}")
    n = len(method.body)
    start = max(1, site.line - radius)
    end = min(n, site.line + radius)
    partial = start > 1 or end < n
    return ContextWindow(
        start_line=start,
        end_line=end,
        truncated_head=(site.line - radius < 1) and partial,
        truncated_tail=(site.line + radius > n) and partial,
    )


# ---------------------------------------------------------------------------
# trigger path search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriggerChain:
    path: tuple[MethodSig, ...]
    entry_kind: str


class TriggerWalks:
    """The chains of one `trigger_paths` call, counted and classified
    without listing them.

    `levels[k]` maps each method with a k-edge walk down to the site, in
    rendering order, to its callees on level k-1, also in rendering order;
    `heads[k]` holds the methods whose k-edge walks are chains, with their
    kind.  Iterating draws the chains shortest first, then by rendering, each
    in O(depth).  There is always at least one chain."""

    def __init__(self, levels: list[dict[MethodSig, list[MethodSig]]],
                 heads: list[list[tuple[MethodSig, str]]], count: int):
        self._levels = levels
        self._heads = heads
        self.count = count

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[TriggerChain]:
        for k, row in enumerate(self._heads):
            for head, kind in row:
                yield from self._walks(k, head, kind)

    def _walks(self, k: int, head: MethodSig, kind: str) -> Iterator[TriggerChain]:
        """The k-edge walks from `head` to the site, in rendering order."""
        if k == 0:
            yield TriggerChain((head,), kind)
            return
        path, todo = [head], [iter(self._levels[k][head])]
        while todo:
            callee = next(todo[-1], None)
            if callee is None:
                todo.pop()
                path.pop()
            elif len(path) == k:
                yield TriggerChain((*path, callee), kind)
            else:
                path.append(callee)
                todo.append(iter(self._levels[k - len(path) + 1][callee]))

    def best(self) -> TriggerChain:
        """Preferred chain for evidence: the first classified one, else the first."""
        heads = [(k, head, kind) for k, row in enumerate(self._heads) for head, kind in row]
        return next(self._walks(*next((h for h in heads if h[2] != "Unknown"), heads[0])))


def trigger_paths(
    graph: CallGraph,
    site: CallSite,
    entry_catalog: EntryCatalog,
    max_depth: int,
) -> TriggerWalks:
    """All reverse walks of at most `max_depth` edges from the site's method.

    A walk whose head matches the entry catalog is a chain of that kind; a
    maximal walk (no callers, or depth exhausted) with an unmatched head is
    an Unknown chain.  A chain's kind depends only on its head and length, so
    the count comes from a walk-count table over (method, length)
    built in O(depth x edges); no walk is listed until the result is iterated.
    """
    if site.method not in graph.nodes:
        raise ToolError(f"unknown method {site.method}")
    levels: list[dict[MethodSig, list[MethodSig]]] = [{site.method: []}]
    walks = [{site.method: 1}]
    while len(levels) <= max_depth:
        level: dict[MethodSig, list[MethodSig]] = {}
        for callee in levels[-1]:
            for caller in graph.callers_of(callee):
                level.setdefault(caller, []).append(callee)
        if not level:
            break
        below = walks[-1]
        walks.append({m: sum(below[c] for c in callees) for m, callees in level.items()})
        levels.append({m: level[m] for m in sorted(level, key=str)})
    kind_of = {m: entry_catalog.classify(m) for level in levels for m in level}
    heads = [[(m, kind_of[m] or "Unknown") for m in level
              if kind_of[m] is not None or k == max_depth or not graph.callers_of(m)]
             for k, level in enumerate(levels)]
    count = sum(walks[k][m] for k, row in enumerate(heads) for m, _kind in row)
    return TriggerWalks(levels, heads, count)


# ---------------------------------------------------------------------------
# taint reachability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SinkHit:
    site: CallSite
    category: str
    # the witness as spliced, nested as deep as a relay chain: neither compared nor shown
    node: _Witness = field(compare=False, repr=False)
    tainted_arg: str

    @cached_property
    def witness(self) -> tuple[tuple[MethodSig, int], ...]:
        """The steps from the source to the sink, unwound on first read."""
        return _unwind(self.node)


# A tainted variable's witness, relative to the start of its pass: None, or a
# node `(inner, step, rest)` for the steps of `rest`, then `step`, then those
# of `inner`: None for a def-use step, or the witness of a callee, spliced in
# by reference at its call step so that a relay chain costs one node per call.
# A sink stays in its pass; the walk that collects it joins its witness to
# the steps to that pass by a None step, `(witness, None, prefix)`.
_Witness = tuple["_Witness", tuple[MethodSig, int], "_Witness"] | None
_Key = tuple[MethodSig, str | None]  # a pass: (method, parameter), or (source method, None)


def _unwind(witness: _Witness) -> tuple[tuple[MethodSig, int], ...]:
    """The witness's steps, oldest first, on an explicit stack."""
    steps, todo = [], [witness]
    while todo:
        node = todo.pop()
        if node is None:
            continue
        if len(node) == 2:  # a step (method, line)
            steps.append(node)
        else:
            todo += node  # (inner, step, rest): `rest` is popped first
    return tuple(steps)


@dataclass(eq=False)
class _Pass:
    """One flow-sensitive pass over a method, from its tainted parameter
    `param` (a summary) or from the source line `inject`, re-run when a
    summary it reads first returns taint.  It keeps its method's sinks, the
    keys it calls with the call step and argument witness, its first tainted
    return, each as first found, and its readers' keys in first-read order."""

    method: MethodDef
    param: str | None
    inject: int | None = None
    sinks: dict[tuple[str, int], tuple[CallSite, str, str, _Witness]] = field(default_factory=dict)
    calls: dict[_Key, tuple[tuple[MethodSig, int], _Witness]] = field(default_factory=dict)
    ret: _Witness = None
    readers: dict[_Key, None] = field(default_factory=dict)
    queued: bool = False


class _TaintEngine:
    """The summaries of one query, keyed by (method, parameter), solved with
    a worklist: no pass calls another, a summary not yet computed reads as
    empty, and a summary whose return first turns tainted queues its readers
    again."""

    def __init__(self, program: IrProgram, catalog: ApiCatalog):
        self.methods = program.method_map
        self.catalog = catalog
        self.summaries: dict[_Key, _Pass] = {}
        self.work: deque[_Pass] = deque()

    # -- transfer --------------------------------------------------------

    def _transfer(self, p: _Pass, line: int, facts: dict[str, _Witness]) -> _Witness:
        """Apply the line's rule to `facts`, its tainted uses with witnesses;
        return the witness of the variable it defines if tainted, else None."""
        sig, stmt = p.method.signature, p.method.body[line - 1]
        if isinstance(stmt, Assign) and stmt.src in facts:
            return (None, (sig, line), facts[stmt.src])
        if isinstance(stmt, Invoke) and (tainted_args := [a for a in stmt.uses if a in facts]):
            category = self.catalog.sink_category(stmt.callee)
            if category is not None and (key := (str(sig), line)) not in p.sinks:
                site, arg = CallSite(sig, line, stmt.callee, stmt.dst), tainted_args[0]
                p.sinks[key] = (site, category, arg, (None, (sig, line), facts[arg]))
            callee = self.methods.get(stmt.callee)
            if callee is not None:
                return self._apply_summaries(p, (sig, line), stmt, callee, facts)
        elif isinstance(stmt, Return) and stmt.var in facts and p.ret is None:
            p.ret = (None, (sig, line), facts[stmt.var])
            for reader in p.readers:  # once per summary
                self._queue(self.summaries[reader])
        return None

    def _apply_summaries(self, p: _Pass, call: tuple[MethodSig, int], stmt: Invoke,
                         callee: MethodDef, tin: dict[str, _Witness]) -> _Witness:
        """Record the summary of each tainted parameter, in parameter order,
        as a call of the caller's, and return the witness of the call's
        result by the first parameter whose summary returns taint, else None."""
        gen = None
        for param, arg in zip(callee.params, stmt.args):
            if arg not in tin:
                continue
            key = (callee.signature, param)
            if (summary := self.summaries.get(key)) is None:
                summary = self.summaries[key] = _Pass(callee, param)
                self._queue(summary)
            summary.readers[p.method.signature, p.param] = None  # `p` reruns when it returns taint
            p.calls.setdefault(key, (call, tin[arg]))
            if gen is None and summary.ret is not None and stmt.dst is not None:
                gen = (summary.ret, call, tin[arg])
        return gen

    # -- fixpoint ----------------------------------------------------------

    def _queue(self, p: _Pass) -> None:
        if not p.queued:
            p.queued = True
            self.work.append(p)

    def _run(self, p: _Pass) -> None:
        """One pass: from `param` on entry, or from the source line, to the
        users of each tainted definition.  A phi takes the witness of the first
        tainted operand to reach it; a line is visited in line order off a heap,
        so in straight-line code it sees all its tainted uses at once."""
        method, n = p.method, len(p.method.body)
        reaching, users, _operands = method.defuse
        start = p.inject or -1 - method.params.index(p.param)  # a line, or the parameter on entry
        todo = [(start, p.inject and (None, (method.signature, p.inject), None))]
        tainted, heap = {}, []
        while todo or heap:
            if not todo:
                line = heappop(heap)
                while heap and heap[0] == line:
                    heappop(heap)
                facts = {var: tainted[d] for var, d in zip(method.body[line - 1].uses, reaching[line])
                         if d in tainted}
                if (gen := self._transfer(p, line, facts)) is not None:
                    todo.append((line, gen))
                continue
            d, witness = todo.pop()
            if d not in tainted:
                tainted[d] = witness
                for user in users.get(d, ()):
                    if user > n:  # a phi
                        todo.append((user, witness))
                    else:
                        heappush(heap, user)

    def solve(self, root: _Pass) -> dict[_Key, _Pass]:
        """Run passes until no summary changes, and return every pass by key.
        A summary's return turns tainted at most once, so a pass runs again at
        most once per callee."""
        self.summaries[root.method.signature, None] = root
        self._queue(root)
        while self.work:
            p = self.work.popleft()
            p.queued = False
            self._run(p)
        return self.summaries


def taint_reachability(program: IrProgram, source: CallSite, catalog: ApiCatalog) -> list[SinkHit]:
    """Taint the source call's result; a sink keeps the first path the walk finds."""
    method, stmt = _statement_at(program, source.method, source.line)
    if not isinstance(stmt, Invoke):
        raise ToolError(f"{source.method}:{source.line} is not a call")
    if stmt.dst is None:
        raise ToolError(f"{source.method}:{source.line} discards its result")
    passes = _TaintEngine(program, catalog).solve(_Pass(method, None, source.line))
    root = (source.method, None)
    found, prefixes, walk = {}, {root: None}, [root]
    for key in walk:  # breadth first: each pass once, by the first path to it
        p = passes[key]
        for at, (site, category, arg, witness) in p.sinks.items():
            found.setdefault(at, (site, category, arg, (witness, None, prefixes[key])))
        for callee, (call, tainted) in p.calls.items():
            if callee not in prefixes:
                prefixes[callee] = (None, call, (tainted, None, prefixes[key]))
                walk.append(callee)
    return [SinkHit(site, category, witness, arg)
            for _, (site, category, arg, witness) in sorted(found.items())]


def replay_witness(
    program: IrProgram,
    catalog: ApiCatalog,
    source: CallSite,
    witness: tuple[tuple[MethodSig, int], ...],
) -> bool:
    """Check that a witness is a valid def-use chain from source to a sink."""
    methods = program.method_map
    if not witness or witness[0] != (source.method, source.line):
        return False
    src_method = methods.get(source.method)
    if src_method is None:
        return False
    src_stmt = src_method.body[source.line - 1]
    if not isinstance(src_stmt, Invoke) or src_stmt.dst is None:
        return False

    # depth-first over (witness index, method, tainted var, call stack); a
    # call passing the variable in two argument positions forks the search
    todo = [(1, source.method, src_stmt.dst, ())] if len(witness) > 1 else []
    while todo:
        idx, cur, var, stack = todo.pop()
        m, line = witness[idx]
        mdef = methods.get(m)
        if m != cur or mdef is None or not (1 <= line <= len(mdef.body)):
            continue
        stmt = mdef.body[line - 1]
        if idx == len(witness) - 1:
            if (isinstance(stmt, Invoke) and var in stmt.args
                    and catalog.sink_category(stmt.callee) is not None):
                return True
        elif isinstance(stmt, Assign) and stmt.src == var:
            todo.append((idx + 1, cur, stmt.dst, stack))
        elif isinstance(stmt, Invoke) and var in stmt.args and stmt.callee in methods:
            params = methods[stmt.callee].params
            todo += [(idx + 1, stmt.callee, params[j], stack + ((cur, stmt.dst),))
                     for j, a in enumerate(stmt.args) if a == var and j < len(params)]
        elif isinstance(stmt, Return) and stmt.var == var and stack and stack[-1][1] is not None:
            prev, dst = stack[-1]
            todo.append((idx + 1, prev, dst, stack[:-1]))
    return False


# ---------------------------------------------------------------------------
# backward slicing
# ---------------------------------------------------------------------------


@dataclass
class Slice:
    kept_lines: list[int]
    removed_count: int


def _if_buckets(body: list[IrStatement]) -> tuple[int, dict[int, list[int]]]:
    """A stabbing table over the lines: a segment tree whose leaf `size + L`
    stands for line L, with each If's line filed under the O(log n) nodes
    that tile its open branch range.  The Ifs whose range holds line L are
    the ones filed on the path from that leaf to the root."""
    size = 1 << len(body).bit_length()
    buckets: dict[int, list[int]] = defaultdict(list)
    for line, stmt in enumerate(body, 1):
        if isinstance(stmt, If):
            lo, hi = size + min(line, stmt.target) + 1, size + max(line, stmt.target)
            while lo < hi:  # the nodes tiling leaves [lo, hi), bottom up
                if lo & 1:
                    buckets[lo].append(line)
                    lo += 1
                if hi & 1:
                    hi -= 1
                    buckets[hi].append(line)
                lo, hi = lo >> 1, hi >> 1
    return size, buckets


def backward_slice(
    program: IrProgram,
    method_sig: MethodSig,
    target_line: int,
    target_var: str,
) -> Slice:
    """Backward closure over data dependences plus the linear If-range
    control-dependence approximation, computed as the module docstring says."""
    method, stmt = _statement_at(program, method_sig, target_line)
    if stmt.dst != target_var and target_var not in stmt.uses:
        raise ToolError(
            f"{target_var!r} neither defined nor used at {method_sig}:{target_line}"
        )
    body, n = method.body, len(method.body)
    reaching, _users, operands = method.defuse
    size, ifs = _if_buckets(body)
    seen, keep = set(), [target_line]
    while keep:
        d = keep.pop()
        if d <= 0 or d in seen:  # no definition, or a parameter on entry
            continue
        seen.add(d)
        node = size + d if d <= n else 0  # a phi, past the last line, is only expanded
        while ifs and node:  # an If filed in several buckets is dropped by `seen`
            keep += ifs.pop(node, ())
            node >>= 1
        keep += reaching[d] if d <= n else operands[d]
    kept = sorted(d for d in seen if d <= n)
    return Slice(kept, n - len(kept))
