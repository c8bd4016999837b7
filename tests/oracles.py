"""Independent brute-force oracles the implementation is checked against.

Deliberately dumb: linear scans, full re-iteration until fixpoint, direct
formula application.  Expected values in the test suite come from these, not
from the code under test.
"""

from __future__ import annotations

import re

from droidtriage.backend import TIERS, CostLedger
from droidtriage.errors import InvalidBundleError
from droidtriage.ir import (
    Assign,
    ClassDef,
    Goto,
    If,
    Invoke,
    IrProgram,
    Manifest,
    MethodDef,
    MethodSig,
    Nop,
    Return,
    _check_arg_token,
    is_var_token,
    render_stmt,
)


def index_scan(program: IrProgram, catalog) -> dict[str, list[tuple[str, int]]]:
    """Every system-API call site, by exhaustive statement scan: callees and
    their sites in the order the scan meets them."""
    defined = {m.signature for m in program.methods()}
    out: dict[str, list[tuple[str, int]]] = {}
    for m in program.methods():
        for line, stmt in enumerate(m.body, 1):
            if (
                isinstance(stmt, Invoke)
                and stmt.callee not in defined
                and catalog.is_system(stmt.callee)
            ):
                out.setdefault(str(stmt.callee), []).append((str(m.signature), line))
    return out


def callers_scan(program: IrProgram) -> dict:
    """Callee -> distinct caller renderings, in the order a scan of every
    Invoke first meets them."""
    out: dict = {}
    for m in program.methods():
        for stmt in m.body:
            if isinstance(stmt, Invoke):
                callers = out.setdefault(stmt.callee, [])
                if str(m.signature) not in callers:
                    callers.append(str(m.signature))
    return out


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
        return sig == parse_sig_regex(pattern)  # field by field, whatever the pattern's spacing

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


def split_args_scan(text: str) -> list[str]:
    """A call argument list split on commas outside double quotes."""
    out: list[str] = []
    cur: list[str] = []
    in_str = False
    for ch in text:
        if ch == '"':
            in_str = not in_str
            cur.append(ch)
        elif ch == "," and not in_str:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur or out:
        out.append("".join(cur).strip())
    return [a for a in out if a != ""]


# ---------------------------------------------------------------------------
# IR parsing: the regex cascade, every signature parsed where it is named
# ---------------------------------------------------------------------------

_SIG_RE = re.compile(r"^([A-Za-z_$][\w.$]*)\(([^()]*)\)->([\w.$]+)$")


def parse_sig_regex(text: str) -> MethodSig:
    """A signature by one regex over the whole text, nothing shared."""
    m = _SIG_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed signature: {text!r}")
    qualified, types, ret = m.groups()
    if "." not in qualified:
        raise ValueError(f"signature missing class qualifier: {text!r}")
    cls, name = qualified.rsplit(".", 1)
    params = tuple(t.strip() for t in types.split(",") if t.strip()) if types.strip() else ()
    return MethodSig(cls, name, params, ret)


_CLASS_RE = re.compile(r"^class\s+([\w.$]+)(?:\s+extends\s+([\w.$]+))?\s*\{$")
_METHOD_RE = re.compile(r"^method\s+(\S+)\s*\(([^()]*)\)\s*\{$")
_INVOKE_RE = re.compile(r"^(?:(\w+)\s*=\s*)?call\s+([A-Za-z_$][\w.$]*\([^()]*\)->[\w.$]+)\((.*)\)$")
_IF_RE = re.compile(r"^if\s+(\w+)\s+goto\s+(\d+)$")
_GOTO_RE = re.compile(r"^goto\s+(\d+)$")
_RETURN_RE = re.compile(r"^return(?:\s+(\w+))?$")
_CONST_RE = re.compile(r"^(\w+)\s*=\s*const\s+(.+)$")
_COPY_RE = re.compile(r"^(\w+)\s*=\s*([A-Za-z_]\w*)$")


def _branch_target(digits: str, file_line: int) -> int:
    try:
        return int(digits)
    except ValueError:  # longer than the interpreter's int-string limit
        raise InvalidBundleError(f"line {file_line}: branch target of {len(digits)} digits") from None


def parse_stmt_cascade(line: str, file_line: int):
    """One statement: try each statement regex in turn."""
    m = _INVOKE_RE.match(line)
    if m:
        dst, sig_text, args_text = m.groups()
        try:
            callee = parse_sig_regex(sig_text)
        except ValueError as exc:
            raise InvalidBundleError(f"line {file_line}: {exc}") from None
        args = tuple(split_args_scan(args_text))
        for a in args:
            _check_arg_token(a, file_line)
        if dst is not None and not is_var_token(dst):
            raise InvalidBundleError(f"line {file_line}: bad destination {dst!r}")
        return Invoke(callee, args, dst, tuple(a for a in args if is_var_token(a)))
    m = _IF_RE.match(line)
    if m:
        cond, target = m.groups()
        if not is_var_token(cond):
            raise InvalidBundleError(f"line {file_line}: bad condition variable {cond!r}")
        return If(cond, _branch_target(target, file_line))
    m = _GOTO_RE.match(line)
    if m:
        return Goto(_branch_target(m.group(1), file_line))
    m = _RETURN_RE.match(line)
    if m:
        var = m.group(1)
        if var is not None and not is_var_token(var):
            raise InvalidBundleError(f"line {file_line}: bad return variable {var!r}")
        return Return(var)
    if line == "nop":
        return Nop()
    m = _CONST_RE.match(line)
    if m:
        dst, literal = m.group(1), m.group(2).strip()
        if not is_var_token(dst):
            raise InvalidBundleError(f"line {file_line}: bad destination {dst!r}")
        _check_arg_token(literal, file_line)
        return Assign(dst, literal=literal)
    m = _COPY_RE.match(line)
    if m:
        dst, src = m.groups()
        if not is_var_token(dst) or not is_var_token(src):
            raise InvalidBundleError(f"line {file_line}: bad assignment {line!r}")
        return Assign(dst, src=src)
    raise InvalidBundleError(f"line {file_line}: unrecognized statement {line!r}")


def parse_program_cascade(text: str) -> IrProgram:
    """The reference parser: `strip_scan` per line, `parse_stmt_cascade` per
    statement, branch targets checked when a method closes."""
    classes: list[ClassDef] = []
    seen_sigs: set[MethodSig] = set()
    cur_class: ClassDef | None = None
    cur_method: MethodDef | None = None

    for file_line, raw in enumerate(text.splitlines(), start=1):
        line = strip_scan(raw)
        if not line:
            continue
        if cur_method is not None:
            if line == "}":
                n = len(cur_method.body)
                for stmt in cur_method.body:
                    if isinstance(stmt, (If, Goto)) and not (1 <= stmt.target <= n):
                        raise InvalidBundleError(
                            f"{cur_method.signature}: branch target {stmt.target} does not exist")
                cur_method = None
                continue
            cur_method.body.append(parse_stmt_cascade(line, file_line))
            continue
        if cur_class is not None:
            if line == "}":
                cur_class = None
                continue
            m = _METHOD_RE.match(line)
            if not m:
                raise InvalidBundleError(f"line {file_line}: expected method or '}}', got {line!r}")
            sig_text, params_text = m.groups()
            try:
                sig = parse_sig_regex(sig_text)
            except ValueError as exc:
                raise InvalidBundleError(f"line {file_line}: {exc}") from None
            if sig.class_name != cur_class.name:
                raise InvalidBundleError(
                    f"line {file_line}: method {sig} declared inside class {cur_class.name}")
            if sig in seen_sigs:
                raise InvalidBundleError(f"duplicate method signature: {sig}")
            seen_sigs.add(sig)
            params = tuple(p.strip() for p in params_text.split(",") if p.strip())
            for p in params:
                if not is_var_token(p):
                    raise InvalidBundleError(f"line {file_line}: bad parameter name {p!r}")
            if len(set(params)) != len(params):
                raise InvalidBundleError(f"line {file_line}: {sig}: duplicate parameter names")
            if len(params) != len(sig.param_types):
                raise InvalidBundleError(f"line {file_line}: {sig}: {len(sig.param_types)} "
                                         f"parameter types but {len(params)} names")
            cur_method = MethodDef(sig, params, [])
            cur_class.methods.append(cur_method)
            continue
        m = _CLASS_RE.match(line)
        if not m:
            raise InvalidBundleError(f"line {file_line}: expected class declaration, got {line!r}")
        cur_class = ClassDef(m.group(1), m.group(2), [])
        classes.append(cur_class)

    if cur_method is not None or cur_class is not None:
        raise InvalidBundleError(
            f"line {len(text.splitlines())}: unexpected end of input (missing '}}')")
    return IrProgram(classes)


def render_program(program: IrProgram) -> str:
    """Program text in the form `parse_program` reads."""
    lines: list[str] = []
    for cls in program.classes:
        head = f"class {cls.name}"
        if cls.superclass:
            head += f" extends {cls.superclass}"
        lines.append(head + " {")
        for method in cls.methods:
            lines.append(f"  method {method.signature} ({','.join(method.params)}) {{")
            for stmt in method.body:
                lines.append(f"    {render_stmt(stmt)}")
            lines.append("  }")
        lines.append("}")
    return "\n".join(lines) + ("\n" if lines else "")


def render_manifest(manifest: Manifest) -> str:
    """Manifest text in the form `parse_manifest` reads."""
    lines = [
        f"package: {manifest.package}",
        f"category: {manifest.category}",
        f"description: {manifest.description}",
    ]
    lines += [f"permission:{p}" for p in manifest.permissions]
    for c in manifest.components:
        actions = "".join(f":action={a}" for a in c.intent_actions)
        lines.append(f"component:{c.kind}:{c.name}{actions}" + (":exported" if c.exported else ""))
    return "\n".join(lines) + "\n"


def recomputed_totals(ledger: CostLedger) -> dict[str, list[int]]:
    """A ledger's per-tier [input, output] tokens, summed afresh from its exchanges."""
    fresh = {t: [0, 0] for t in TIERS}
    for ex in ledger.exchanges:
        fresh[ex.tier][0] += ex.input_tokens
        fresh[ex.tier][1] += ex.output_tokens
    return fresh


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


def taint_scan(program: IrProgram, catalog, source_method, source_line: int) -> set[tuple[str, int]]:
    """Sink sites reachable from the source's return value: round-robin
    dataflow, recursion into callees with a memo per (callee, tainted
    parameter set), and the whole query re-run until no memo entry changes,
    so recursive calls reach their fixpoint; no witness machinery."""
    methods = {m.signature: m for m in program.methods()}
    hits: set[tuple[str, int]] = set()
    memo: dict[tuple[str, frozenset], bool] = {}  # returns taint, only ever False -> True
    done: set[tuple[str, frozenset]] = set()  # analysed in the current round

    def analyze(method: MethodDef, entry: frozenset, inject: int | None) -> bool:
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
                        if callee is not None:
                            tp = frozenset(
                                callee.params[i]
                                for i, a in enumerate(stmt.args)
                                if i < len(callee.params) and is_var_token(a) and a in tin
                            )
                            if tp:
                                key = (str(callee.signature), tp)
                                if key not in done:
                                    done.add(key)  # a recursive call reads the last round
                                    memo[key] = analyze(callee, tp, None) or memo.get(key, False)
                                ret_tainted = memo.get(key, False)
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

    while True:
        before = dict(memo)
        done.clear()
        analyze(methods[source_method], frozenset(), source_line)
        if memo == before:
            return hits


# ---------------------------------------------------------------------------
# statement facts
# ---------------------------------------------------------------------------


def used_vars(stmt) -> tuple[str, ...]:
    """The variables a statement reads, in order, by its class: the reference
    for `stmt.uses`."""
    if isinstance(stmt, Assign) and stmt.src is not None:
        return (stmt.src,)
    if isinstance(stmt, Invoke):
        return tuple(a for a in stmt.args if is_var_token(a))
    if isinstance(stmt, If):
        return (stmt.cond,)
    if isinstance(stmt, Return) and stmt.var is not None:
        return (stmt.var,)
    return ()


def defined_var(stmt) -> str | None:
    """The variable a statement defines, by its class: the reference for
    `stmt.dst`."""
    return stmt.dst if isinstance(stmt, (Assign, Invoke)) else None


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
        for line, s in enumerate(method.body, 1):
            if isinstance(s, If) and line not in kept:
                lo, hi = sorted((line, s.target))
                if any(k in kept for k in range(lo + 1, hi)):
                    work.append(line)
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
