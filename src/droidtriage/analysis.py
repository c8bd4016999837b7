"""Static-analysis toolbox driven by the forensic agent.

Four operations over an immutable program + call graph:

* extract_context   -- statement window around a call site
* trigger_paths     -- reverse walks from a site to entry points
* taint_reachability-- forward taint from a call's return value to sinks
* backward_slice    -- intra-method dependency slice

Taint is flow-sensitive inside a method, context-insensitive across calls
and depth-limited.  Values move only through copies, call arguments and
return values; there is no heap and no implicit flow through branches.
Every reported sink carries a replayable def-use witness.

A slice is the least set of lines that holds the target, every definition
reaching a use on a kept line, and every If with a kept line strictly
between the If and its branch target (a linear approximation of control
dependence).  It is computed in one pass over a demand worklist.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .catalog import ApiCatalog, EntryCatalog
from .errors import (
    InvalidSiteError,
    InvalidTargetError,
    NoResultVariableError,
    NotAnInvokeError,
    UnknownMethodError,
)
from .index import CallGraph, CallSite
from .ir import (
    Assign,
    Goto,
    If,
    Invoke,
    IrProgram,
    MethodDef,
    MethodSig,
    Return,
    defined_var,
    is_var_token,
    render_stmt,
    used_vars,
)

# ---------------------------------------------------------------------------
# local context retrieval
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContextWindow:
    site: CallSite
    start_line: int
    end_line: int
    lines: tuple[str, ...]
    truncated_head: bool
    truncated_tail: bool

    @property
    def width(self) -> int:
        return self.end_line - self.start_line + 1


def _check_site(program: IrProgram, site: CallSite) -> MethodDef:
    method = program.method_map.get(site.method)
    if method is None:
        raise InvalidSiteError(f"unknown method {site.method}")
    if not (1 <= site.line <= len(method.body)):
        raise InvalidSiteError(f"{site.method} has no line {site.line}")
    stmt = method.body[site.line - 1]
    if not isinstance(stmt, Invoke) or stmt.callee != site.callee:
        raise InvalidSiteError(f"{site.method}:{site.line} is not a call to {site.callee}")
    return method


def extract_context(program: IrProgram, site: CallSite, radius: int = 20) -> ContextWindow:
    """Rendered statements within `radius` lines of the site, clipped to the
    method.  A truncation flag is set when the requested radius hit the
    method boundary on that side and the window does not already cover the
    whole method."""
    method = _check_site(program, site)
    n = len(method.body)
    start = max(1, site.line - radius)
    end = min(n, site.line + radius)
    partial = start > 1 or end < n
    lines = tuple(
        f"{i}: {render_stmt(method.body[i - 1])}" for i in range(start, end + 1)
    )
    return ContextWindow(
        site=site,
        start_line=start,
        end_line=end,
        lines=lines,
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

    @property
    def length(self) -> int:
        return len(self.path)


def trigger_paths(
    graph: CallGraph,
    site: CallSite,
    entry_catalog: EntryCatalog,
    max_depth: int,
) -> list[TriggerChain]:
    """All reverse walks of at most `max_depth` edges from the site's method.

    A walk whose head matches the entry catalog is emitted with its kind; a
    maximal walk (no callers, or depth exhausted) with an unmatched head is
    emitted as Unknown.  Shortest chains first, ties broken lexicographically.
    """
    if site.method not in graph.nodes:
        raise UnknownMethodError(str(site.method))
    chains: list[TriggerChain] = []

    def extend(path: list[MethodSig]) -> None:
        head = path[0]
        kind = entry_catalog.classify(head)
        if kind is not None:
            chains.append(TriggerChain(tuple(path), kind))
        callers = graph.callers_of(head)
        if len(path) - 1 >= max_depth or not callers:
            if kind is None:
                chains.append(TriggerChain(tuple(path), "Unknown"))
            return
        for caller in callers:
            extend([caller] + path)

    extend([site.method])
    chains.sort(key=lambda c: (c.length, tuple(str(m) for m in c.path)))
    return chains


def best_trigger(chains: list[TriggerChain]) -> TriggerChain | None:
    """Preferred chain for evidence: first classified one, else first."""
    for c in chains:
        if c.entry_kind != "Unknown":
            return c
    return chains[0] if chains else None


# ---------------------------------------------------------------------------
# taint reachability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SinkHit:
    site: CallSite
    category: str
    witness: tuple[tuple[MethodSig, int], ...]
    tainted_arg: str


@dataclass
class TaintResult:
    source: CallSite
    reached_sinks: list[SinkHit]
    searched_depth: int

    @property
    def hit(self) -> bool:
        return bool(self.reached_sinks)


# A witness chain is relative when anchored at a callee entry parameter; the
# caller splices its own chain for the feeding argument in front of it.
_Chain = tuple[tuple[tuple[MethodSig, int], ...], str | None]  # (steps, anchor param)


@dataclass
class _RelHit:
    site: CallSite
    category: str
    steps: tuple[tuple[MethodSig, int], ...]
    anchor: str | None
    tainted_arg: str


@dataclass
class _Summary:
    returns_tainted: bool = False
    ret_chain: _Chain | None = None
    hits: list[_RelHit] = field(default_factory=list)


class _Ctx:
    """One flow-sensitive pass over a single method."""

    def __init__(self, method: MethodDef, entry_params: frozenset[str],
                 inject: tuple[int, str] | None, depth: int):
        self.method = method
        self.entry_params = entry_params
        self.inject = inject
        self.depth = depth
        self.insets: dict[int, set[str]] = {}
        self.parent: dict[tuple[int, str], tuple] = {}
        self.hits: dict[tuple[str, int], _RelHit] = {}
        self.summary = _Summary()


def _successors(method: MethodDef, line: int) -> list[int]:
    stmt = method.body[line - 1]
    n = len(method.body)
    if isinstance(stmt, Return):
        return []
    if isinstance(stmt, Goto):
        return [stmt.target]
    succ = [line + 1] if line < n else []
    if isinstance(stmt, If) and stmt.target not in succ:
        succ.append(stmt.target)
    return succ


class _TaintEngine:
    def __init__(self, program: IrProgram, catalog: ApiCatalog, depth_limit: int):
        self.methods = program.method_map
        self.catalog = catalog
        self.depth_limit = depth_limit
        self.summaries: dict[tuple[str, frozenset[str], int], _Summary] = {}

    # -- chain reconstruction -------------------------------------------

    def _chain(self, ctx: _Ctx, line: int, var: str) -> _Chain:
        """Def-use steps making `var` tainted at IN(line), oldest first.

        Parent events always point at facts recorded earlier, so following
        them back ends at the injection or at an entry parameter."""
        sig = ctx.method.signature
        later: list[tuple[tuple[MethodSig, int], ...]] = []  # newest step group first
        while True:
            event = ctx.parent[(line, var)]
            if event[0] == "inject":
                steps, anchor = [(sig, ctx.inject[0])], None
                break
            if event[0] == "entry":
                steps, anchor = [], var
                break
            if event[0] == "flow":
                line = event[1]
            elif event[0] == "copy":
                line, var = event[1], event[2]
                later.append(((sig, line),))
            elif event[0] == "ret":
                line, var = event[1], event[2]
                later.append(((sig, line),) + event[3])
            else:
                raise AssertionError(f"unknown taint event {event!r}")
        for group in reversed(later):
            steps.extend(group)
        return tuple(steps), anchor

    # -- transfer --------------------------------------------------------

    def _transfer(self, ctx: _Ctx, line: int) -> tuple[set[str], dict[str, tuple]]:
        """OUT(line), and the parent event of each variable tainted here."""
        method = ctx.method
        stmt = method.body[line - 1]
        tin = ctx.insets.get(line, set())
        out = set(tin)
        born: dict[str, tuple] = {}

        if isinstance(stmt, Assign):
            out.discard(stmt.dst)
            if stmt.src is not None and stmt.src in tin:
                out.add(stmt.dst)
                born[stmt.dst] = ("copy", line, stmt.src)
        elif isinstance(stmt, Invoke):
            tainted_args = [a for a in stmt.args if is_var_token(a) and a in tin]
            if tainted_args:
                category = self.catalog.sink_category(stmt.callee)
                if category is not None:
                    self._record_hit(ctx, line, stmt, tainted_args[0], category)
                callee = self.methods.get(stmt.callee)
                ret_event = None
                if callee is not None and ctx.depth > 0:
                    ret_event = self._apply_summary(ctx, line, stmt, callee, tin)
                if stmt.dst is not None:
                    out.discard(stmt.dst)
                    if ret_event is not None:
                        out.add(stmt.dst)
                        born[stmt.dst] = ret_event
            elif stmt.dst is not None:
                out.discard(stmt.dst)
        if ctx.inject is not None and line == ctx.inject[0]:
            out.add(ctx.inject[1])
            born[ctx.inject[1]] = ("inject",)
        if isinstance(stmt, Return) and stmt.var is not None and stmt.var in tin:
            if not ctx.summary.returns_tainted:
                steps, anchor = self._chain(ctx, line, stmt.var)
                ctx.summary.returns_tainted = True
                ctx.summary.ret_chain = (steps + ((method.signature, line),), anchor)
        return out, born

    def _record_hit(self, ctx: _Ctx, line: int, stmt: Invoke, arg: str, category: str) -> None:
        key = (str(ctx.method.signature), line)
        if key in ctx.hits:
            return
        steps, anchor = self._chain(ctx, line, arg)
        site = CallSite(ctx.method.signature, line, stmt.callee, stmt.dst)
        full = steps + ((ctx.method.signature, line),)
        ctx.hits[key] = _RelHit(site, category, full, anchor, arg)

    def _apply_summary(self, ctx: _Ctx, line: int, stmt: Invoke,
                       callee: MethodDef, tin: set[str]) -> tuple | None:
        tainted_params = frozenset(
            callee.params[i]
            for i, a in enumerate(stmt.args)
            if i < len(callee.params) and is_var_token(a) and a in tin
        )
        if not tainted_params:
            return None
        summary = self._summary_for(callee, tainted_params, ctx.depth - 1)
        arg_of = {p: stmt.args[callee.params.index(p)] for p in tainted_params}
        for rel in summary.hits:
            key = (str(rel.site.method), rel.site.line)
            if key in ctx.hits:
                continue
            if rel.anchor is None or rel.anchor not in arg_of:
                continue
            feed = arg_of[rel.anchor]
            steps, anchor = self._chain(ctx, line, feed)
            ctx.hits[key] = _RelHit(
                rel.site, rel.category,
                steps + ((ctx.method.signature, line),) + rel.steps,
                anchor, rel.tainted_arg,
            )
        if summary.returns_tainted and stmt.dst is not None:
            inner_steps, inner_anchor = summary.ret_chain
            if inner_anchor is not None and inner_anchor in arg_of:
                return ("ret", line, arg_of[inner_anchor], inner_steps)
        return None

    # -- fixpoint ----------------------------------------------------------

    def _summary_for(self, method: MethodDef, params: frozenset[str], depth: int) -> _Summary:
        key = (str(method.signature), params, depth)
        cached = self.summaries.get(key)
        if cached is not None:
            return cached
        ctx = _Ctx(method, params, None, depth)
        self._run(ctx)
        ctx.summary.hits = [ctx.hits[k] for k in sorted(ctx.hits)]
        self.summaries[key] = ctx.summary
        return ctx.summary

    def _run(self, ctx: _Ctx) -> None:
        method = ctx.method
        if not method.body:
            return
        work: deque[int] = deque()
        if ctx.entry_params:
            ctx.insets[1] = set(ctx.entry_params)
            for p in sorted(ctx.entry_params):
                ctx.parent[(1, p)] = ("entry",)
            work.append(1)
        if ctx.inject is not None:
            work.append(ctx.inject[0])
        while work:
            line = work.popleft()
            out, born = self._transfer(ctx, line)
            for succ in _successors(method, line):
                tin = ctx.insets.setdefault(succ, set())
                new = sorted(out - tin)
                if not new:
                    continue
                for var in new:
                    tin.add(var)
                    ctx.parent.setdefault((succ, var), born.get(var, ("flow", line)))
                if succ not in work:
                    work.append(succ)

    def run_source(self, site: CallSite) -> list[SinkHit]:
        method = self.methods[site.method]
        stmt = method.body[site.line - 1]
        ctx = _Ctx(method, frozenset(), (site.line, stmt.dst), self.depth_limit)
        self._run(ctx)
        hits = []
        for key in sorted(ctx.hits):
            rel = ctx.hits[key]
            assert rel.anchor is None, "top-level witness must be absolute"
            hits.append(SinkHit(rel.site, rel.category, rel.steps, rel.tainted_arg))
        return hits


def taint_reachability(
    program: IrProgram,
    graph: CallGraph,
    source: CallSite,
    catalog: ApiCatalog,
    depth_limit: int = 3,
) -> TaintResult:
    """Mark the source call's return value tainted and search for sinks."""
    if depth_limit < 0:
        raise ValueError("depth_limit must be >= 0")
    method = program.method_map.get(source.method)
    if method is None or not (1 <= source.line <= len(method.body)):
        raise InvalidSiteError(f"no statement at {source.method}:{source.line}")
    stmt = method.body[source.line - 1]
    if not isinstance(stmt, Invoke):
        raise NotAnInvokeError(f"{source.method}:{source.line} is not a call")
    if stmt.dst is None:
        raise NoResultVariableError(f"{source.method}:{source.line} discards its result")
    engine = _TaintEngine(program, catalog, depth_limit)
    hits = engine.run_source(source)
    return TaintResult(source, hits, depth_limit)


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
    target: tuple[MethodSig, int, str]
    kept_lines: list[int]
    removed_count: int


def _predecessors(method: MethodDef) -> dict[int, list[int]]:
    preds: dict[int, list[int]] = {i: [] for i in range(1, len(method.body) + 1)}
    for line in range(1, len(method.body) + 1):
        for succ in _successors(method, line):
            preds[succ].append(line)
    return preds


def backward_slice(
    program: IrProgram,
    method_sig: MethodSig,
    target_line: int,
    target_var: str,
) -> Slice:
    """Backward closure over data dependences plus the linear If-range
    control-dependence approximation.

    A kept line asks each predecessor for the variables it uses; a demand
    `(line, var)` walks back until it meets a definition of `var`, which is
    kept.  `asked` is shared by the whole slice, so no demand is walked twice."""
    method = program.method_map.get(method_sig)
    if method is None:
        raise InvalidTargetError(f"unknown method {method_sig}")
    if not (1 <= target_line <= len(method.body)):
        raise InvalidTargetError(f"{method_sig} has no line {target_line}")
    stmt = method.body[target_line - 1]
    if defined_var(stmt) != target_var and target_var not in used_vars(stmt):
        raise InvalidTargetError(
            f"{target_var!r} neither defined nor used at {method_sig}:{target_line}"
        )
    preds = _predecessors(method)
    ranges = [(min(s.line, s.target), max(s.line, s.target), s.line)
              for s in method.body if isinstance(s, If)]
    kept: set[int] = set()
    asked: set[tuple[int, str]] = set()
    work: list[tuple[int, str | None]] = [(target_line, None)]  # None: keep the line
    while work:
        line, var = work.pop()
        stmt = method.body[line - 1]
        if var is None:
            if line not in kept:
                kept.add(line)
                work += [(p, u) for u in used_vars(stmt) for p in preds[line]]
                work += [(s, None) for lo, hi, s in ranges if lo < line < hi]
        elif (line, var) not in asked:
            asked.add((line, var))
            if defined_var(stmt) == var:
                work.append((line, None))
            else:
                work += [(p, var) for p in preds[line]]
    kept_sorted = sorted(kept)
    return Slice((method_sig, target_line, target_var), kept_sorted,
                 len(method.body) - len(kept_sorted))
