"""Independent brute-force oracles the implementation is checked against.

Deliberately dumb: linear scans, full re-iteration until fixpoint, direct
formula application.  Expected values in the test suite come from these, not
from the code under test.
"""

from __future__ import annotations

from droidtriage.ir import (
    Assign,
    Goto,
    If,
    Invoke,
    IrProgram,
    MethodDef,
    Return,
    defined_var,
    is_var_token,
    used_vars,
)


def index_scan(program: IrProgram, catalog) -> dict[str, list[tuple[str, int]]]:
    """Every system-API call site, by exhaustive statement scan."""
    defined = {m.signature for m in program.methods()}
    out: dict[str, list[tuple[str, int]]] = {}
    for m in program.methods():
        for stmt in m.body:
            if (
                isinstance(stmt, Invoke)
                and stmt.callee not in defined
                and catalog.is_system(stmt.callee)
            ):
                out.setdefault(str(stmt.callee), []).append((str(m.signature), stmt.line))
    for sites in out.values():
        sites.sort()
    return out


def callers_scan(program: IrProgram) -> dict:
    """Callee -> distinct caller renderings, sorted, by scanning every Invoke."""
    out: dict = {}
    for m in program.methods():
        for stmt in m.body:
            if isinstance(stmt, Invoke):
                out.setdefault(stmt.callee, set()).add(str(m.signature))
    return {callee: sorted(callers) for callee, callers in out.items()}


class PatternScan:
    """A `.cat` catalog as pattern lists; every question is a linear scan."""

    SINK_ORDER = ("network", "storage", "telephony")

    def __init__(self, text: str):
        self.system: list[str] = []
        self.sinks: dict[str, list[str]] = {}
        self.perms: dict[str, list[str]] = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            kind, rest = line.split(":", 1)
            if kind in ("api", "source"):
                self.system.append(rest.strip())
            elif kind == "sink":
                category, pattern = rest.split(":", 1)
                self.sinks.setdefault(category.strip(), []).append(pattern.strip())
                self.system.append(pattern.strip())
            elif kind == "perm":
                perm, pattern = rest.split("->", 1)
                self.perms.setdefault(perm.strip(), []).append(pattern.strip())

    @staticmethod
    def matches(pattern: str, sig) -> bool:
        if pattern.endswith(".*"):
            stem = pattern[:-2]
            return sig.class_name == stem or sig.class_name.startswith(stem + ".")
        return str(sig) == pattern

    def is_system(self, sig) -> bool:
        return any(self.matches(p, sig) for p in self.system)

    def sink_category(self, sig):
        for category in self.SINK_ORDER:
            if any(self.matches(p, sig) for p in self.sinks.get(category, [])):
                return category
        return None

    def permissions_of(self, sig) -> set[str]:
        return {perm for perm, pats in self.perms.items()
                if any(self.matches(p, sig) for p in pats)}


def strip_scan(raw: str) -> str:
    """An IR line without its comment: a `#` outside double quotes starts it."""
    out = []
    in_str = False
    for ch in raw:
        if ch == '"':
            in_str = not in_str
        if ch == "#" and not in_str:
            break
        out.append(ch)
    return "".join(out).strip()


def grep_scan(program: IrProgram, pattern: str) -> list[tuple[str, int, str]]:
    from droidtriage.ir import render_stmt

    hits = []
    for m in program.methods():
        for stmt in m.body:
            text = render_stmt(stmt)
            if pattern in text:
                hits.append((str(m.signature), stmt.line, text))
    hits.sort()
    return hits


def percentile_scan(values: list[int], p: float) -> int:
    """Smallest value v with at least p% of elements <= v, by counting."""
    xs = sorted(values)
    n = len(xs)
    for v in xs:
        if sum(1 for x in xs if x <= v) * 100 >= p * n:
            return v
    return xs[-1]


def metrics_direct(tp: int, tn: int, fp: int, fn: int):
    total = tp + tn + fp + fn
    acc = (tp + tn) / total
    pre = tp / (tp + fp) if tp + fp else None
    rec = tp / (tp + fn) if tp + fn else None
    f1 = None
    if pre is not None and rec is not None and pre + rec > 0:
        f1 = 2 * pre * rec / (pre + rec)
    return acc, pre, rec, f1


# ---------------------------------------------------------------------------
# taint
# ---------------------------------------------------------------------------


def _succs(method: MethodDef, line: int) -> list[int]:
    stmt = method.body[line - 1]
    n = len(method.body)
    if isinstance(stmt, Return):
        return []
    if isinstance(stmt, Goto):
        return [stmt.target]
    out = [line + 1] if line < n else []
    if isinstance(stmt, If) and stmt.target not in out:
        out.append(stmt.target)
    return out


def taint_scan(program: IrProgram, catalog, source_method, source_line: int,
               depth_limit: int) -> set[tuple[str, int]]:
    """Sink sites reachable from the source's return value: round-robin
    dataflow, recursion into callees, no witness machinery."""
    methods = {m.signature: m for m in program.methods()}
    hits: set[tuple[str, int]] = set()
    memo: dict[tuple[str, frozenset, int], bool] = {}

    def analyze(method: MethodDef, entry: frozenset, inject: int | None, depth: int) -> bool:
        n = len(method.body)
        insets: list[set[str]] = [set() for _ in range(n + 1)]
        if entry:
            insets[1] = set(entry)
        pending = inject is not None
        returns_tainted = False
        changed = True
        while changed or pending:
            changed = False
            pending = False
            for line in range(1, n + 1):
                stmt = method.body[line - 1]
                tin = insets[line]
                out = set(tin)
                if isinstance(stmt, Assign):
                    out.discard(stmt.dst)
                    if stmt.src is not None and stmt.src in tin:
                        out.add(stmt.dst)
                elif isinstance(stmt, Invoke):
                    targs = [a for a in stmt.args if is_var_token(a) and a in tin]
                    ret_tainted = False
                    if targs:
                        if catalog.sink_category(stmt.callee) is not None:
                            hits.add((str(method.signature), line))
                        callee = methods.get(stmt.callee)
                        if callee is not None and depth > 0:
                            tp = frozenset(
                                callee.params[i]
                                for i, a in enumerate(stmt.args)
                                if i < len(callee.params) and is_var_token(a) and a in tin
                            )
                            if tp:
                                key = (str(callee.signature), tp, depth - 1)
                                if key not in memo:
                                    memo[key] = False  # cycle guard
                                    memo[key] = analyze(callee, tp, None, depth - 1)
                                ret_tainted = memo[key]
                    if stmt.dst is not None:
                        out.discard(stmt.dst)
                        if ret_tainted:
                            out.add(stmt.dst)
                elif isinstance(stmt, Return):
                    if stmt.var is not None and stmt.var in tin:
                        returns_tainted = True
                if inject is not None and line == inject:
                    out.add(method.body[line - 1].dst)
                for succ in _succs(method, line):
                    if not out <= insets[succ]:
                        insets[succ] |= out
                        changed = True
        return returns_tainted

    analyze(methods[source_method], frozenset(), source_line, depth_limit)
    return hits


# ---------------------------------------------------------------------------
# slicing (straight-line)
# ---------------------------------------------------------------------------


def slice_scan(method: MethodDef, target_line: int) -> set[int]:
    """Transitive closure over the last-def-before-use graph."""

    def last_def(line: int, var: str) -> int | None:
        for l in range(line - 1, 0, -1):
            if defined_var(method.body[l - 1]) == var:
                return l
        return None

    kept: set[int] = set()
    work = [target_line]
    while work:
        l = work.pop()
        if l in kept:
            continue
        kept.add(l)
        for u in used_vars(method.body[l - 1]):
            d = last_def(l, u)
            if d is not None:
                work.append(d)
    return kept


# ---------------------------------------------------------------------------
# slicing (branchy)
# ---------------------------------------------------------------------------


def predecessors(method: MethodDef) -> dict[int, list[int]]:
    preds: dict[int, list[int]] = {i: [] for i in range(1, len(method.body) + 1)}
    for line in range(1, len(method.body) + 1):
        for succ in _succs(method, line):
            preds[succ].append(line)
    return preds


def reaching_defs(method: MethodDef, preds: dict[int, list[int]],
                  line: int, var: str) -> set[int]:
    """Definition lines of `var` that reach IN(line) with no redefinition."""
    out: set[int] = set()
    seen: set[int] = set()
    stack = list(preds[line])
    while stack:
        l = stack.pop()
        if l in seen:
            continue
        seen.add(l)
        if defined_var(method.body[l - 1]) == var:
            out.add(l)
            continue
        stack.extend(preds[l])
    return out


def slice_fixpoint_scan(method: MethodDef, target_line: int) -> set[int]:
    """Data closure by one backward walk per use, then a rescan of every If
    range, repeated until nothing is added."""
    preds = predecessors(method)
    kept: set[int] = set()
    work = [target_line]
    while True:
        while work:
            l = work.pop()
            if l in kept:
                continue
            kept.add(l)
            for u in used_vars(method.body[l - 1]):
                work.extend(reaching_defs(method, preds, l, u) - kept)
        for s in method.body:
            if isinstance(s, If) and s.line not in kept:
                lo, hi = sorted((s.line, s.target))
                if any(k in kept for k in range(lo + 1, hi)):
                    work.append(s.line)
        if not work:
            return kept


# ---------------------------------------------------------------------------
# trigger chains
# ---------------------------------------------------------------------------


def trigger_scan(edges: list[tuple[str, str]], start: str, classify,
                 max_depth: int) -> list[tuple[tuple[str, ...], str]]:
    """Exhaustive reverse path enumeration over raw caller->callee pairs."""
    rev: dict[str, set[str]] = {}
    for a, b in edges:
        rev.setdefault(b, set()).add(a)
    out: list[tuple[tuple[str, ...], str]] = []

    def rec(path: list[str]) -> None:
        head = path[0]
        kind = classify(head)
        if kind is not None:
            out.append((tuple(path), kind))
        callers = rev.get(head, set())
        if len(path) - 1 >= max_depth or not callers:
            if kind is None:
                out.append((tuple(path), "Unknown"))
            return
        for c in sorted(callers):
            rec([c] + path)

    rec([start])
    out.sort(key=lambda t: (len(t[0]), t[0]))
    return out
