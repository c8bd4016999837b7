"""Textual app bundle: manifest + line-oriented three-address IR.

The IR is deliberately small: assignments, constant loads, calls, forward
and backward gotos, conditional gotos, returns and nops.  Statement line
numbers are 1-based and local to the enclosing method, so branch targets
are checkable at parse time.  Variables are method-local; there are no
fields, arrays or exceptions.

Grammar (one construct per line, `#` starts a comment):

    class <Name> [extends <Name>] {
      method <sig> (<params>) {
        <stmt>
        ...
      }
    }

    <sig>  ::= class.method(t1,t2)->ret          (canonical rendering)
    <stmt> ::= x = y | x = const <literal> | x = call <sig>(a,b)
             | call <sig>(a,b) | if x goto <line> | goto <line>
             | return [x] | nop
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    BadBranchTargetError,
    DuplicateSignatureError,
    EmptyProgramError,
    IrSyntaxError,
)

# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------

_SIG_RE = re.compile(r"^([A-Za-z_$][\w.$]*)\(([^()]*)\)->([\w.$]+)$")
_VAR_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_INT_RE = re.compile(r"^-?\d+$")

_RESERVED = {"call", "const", "goto", "if", "return", "nop", "true", "false", "null"}


@dataclass(frozen=True)
class MethodSig:
    """Fully qualified method signature; canonical form `cls.m(t1,t2)->ret`."""

    class_name: str
    method_name: str
    param_types: tuple[str, ...]
    return_type: str

    def __str__(self) -> str:
        return f"{self.class_name}.{self.method_name}({','.join(self.param_types)})->{self.return_type}"


def parse_sig(text: str) -> MethodSig:
    """Parse a canonical signature; raises ValueError on malformed input."""
    m = _SIG_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed signature: {text!r}")
    qualified, types, ret = m.groups()
    if "." not in qualified:
        raise ValueError(f"signature missing class qualifier: {text!r}")
    cls, name = qualified.rsplit(".", 1)
    params = tuple(t.strip() for t in types.split(",") if t.strip()) if types.strip() else ()
    return MethodSig(cls, name, params, ret)


def is_var_token(tok: str) -> bool:
    """True when an argument token denotes a variable rather than a literal."""
    return bool(_VAR_RE.match(tok)) and tok not in _RESERVED


def _check_arg_token(tok: str, line_no: int) -> None:
    if is_var_token(tok):
        return
    if _INT_RE.match(tok) or tok in ("true", "false", "null"):
        return
    if len(tok) >= 2 and tok.startswith('"') and tok.endswith('"'):
        return
    raise IrSyntaxError(line_no, f"bad argument token {tok!r}")


def _split_args(text: str) -> list[str]:
    """Split a call argument list on top-level commas, honouring quotes."""
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
# statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Assign:
    """`dst = src` (variable copy) or `dst = const lit` when literal is set."""

    line: int
    dst: str
    src: str | None = None
    literal: str | None = None


@dataclass(frozen=True)
class Invoke:
    line: int
    callee: MethodSig
    args: tuple[str, ...]
    dst: str | None = None


@dataclass(frozen=True)
class If:
    line: int
    cond: str
    target: int


@dataclass(frozen=True)
class Goto:
    line: int
    target: int


@dataclass(frozen=True)
class Return:
    line: int
    var: str | None = None


@dataclass(frozen=True)
class Nop:
    line: int


IrStatement = Assign | Invoke | If | Goto | Return | Nop


def used_vars(stmt: IrStatement) -> tuple[str, ...]:
    if isinstance(stmt, Assign) and stmt.src is not None:
        return (stmt.src,)
    if isinstance(stmt, Invoke):
        return tuple(a for a in stmt.args if is_var_token(a))
    if isinstance(stmt, If):
        return (stmt.cond,)
    if isinstance(stmt, Return) and stmt.var is not None:
        return (stmt.var,)
    return ()


def defined_var(stmt: IrStatement) -> str | None:
    if isinstance(stmt, Assign):
        return stmt.dst
    if isinstance(stmt, Invoke):
        return stmt.dst
    return None


def render_stmt(stmt: IrStatement) -> str:
    if isinstance(stmt, Assign):
        if stmt.literal is not None:
            return f"{stmt.dst} = const {stmt.literal}"
        return f"{stmt.dst} = {stmt.src}"
    if isinstance(stmt, Invoke):
        call = f"call {stmt.callee}({','.join(stmt.args)})"
        return f"{stmt.dst} = {call}" if stmt.dst is not None else call
    if isinstance(stmt, If):
        return f"if {stmt.cond} goto {stmt.target}"
    if isinstance(stmt, Goto):
        return f"goto {stmt.target}"
    if isinstance(stmt, Return):
        return f"return {stmt.var}" if stmt.var is not None else "return"
    return "nop"


# ---------------------------------------------------------------------------
# program containers
# ---------------------------------------------------------------------------


@dataclass
class MethodDef:
    signature: MethodSig
    params: tuple[str, ...]
    body: list[IrStatement]

    @property
    def loc(self) -> int:
        return len(self.body)


@dataclass
class ClassDef:
    name: str
    superclass: str | None
    methods: list[MethodDef]


@dataclass
class IrProgram:
    classes: list[ClassDef]

    def methods(self) -> list[MethodDef]:
        return [m for c in self.classes for m in c.methods]

    @cached_property
    def method_map(self) -> dict[MethodSig, MethodDef]:
        """Signature -> definition, built on first use; a parsed program is
        never mutated, so every tool shares this one map."""
        return {m.signature: m for m in self.methods()}

    def class_names(self) -> set[str]:
        return {c.name for c in self.classes}


COMPONENT_KINDS = ("Activity", "Service", "Receiver", "Provider")


@dataclass(frozen=True)
class Component:
    name: str
    kind: str
    intent_actions: tuple[str, ...] = ()
    exported: bool = False


@dataclass
class Manifest:
    package: str
    category: str
    description: str
    permissions: list[str]
    components: list[Component]


@dataclass(frozen=True)
class Diagnostic:
    code: str
    where: str
    message: str


@dataclass
class AppBundle:
    app_id: str
    manifest: Manifest
    program: IrProgram


# ---------------------------------------------------------------------------
# manifest parsing / rendering
# ---------------------------------------------------------------------------


def parse_manifest(text: str) -> Manifest:
    package = category = description = ""
    permissions: list[str] = []
    components: list[Component] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip() if raw.lstrip().startswith("#") else raw.strip()
        if not line:
            continue
        if ":" not in line:
            raise IrSyntaxError(line_no, f"expected key:value, got {line!r}")
        key, value = line.split(":", 1)
        key = key.strip()
        value = value.strip()
        if key == "package":
            package = value
        elif key == "category":
            category = value
        elif key == "description":
            description = value
        elif key == "permission":
            if not value:
                raise IrSyntaxError(line_no, "empty permission name")
            permissions.append(value)
        elif key == "component":
            components.append(_parse_component(value, line_no))
        else:
            raise IrSyntaxError(line_no, f"unknown manifest key {key!r}")
    if not package:
        raise IrSyntaxError(0, "manifest missing package")
    return Manifest(package, category, description, permissions, components)


def _parse_component(value: str, line_no: int) -> Component:
    parts = value.split(":")
    if len(parts) < 2:
        raise IrSyntaxError(line_no, f"component needs kind and class: {value!r}")
    kind, cls = parts[0].strip(), parts[1].strip()
    if kind not in COMPONENT_KINDS:
        raise IrSyntaxError(line_no, f"unknown component kind {kind!r}")
    actions: list[str] = []
    exported = False
    for extra in parts[2:]:
        extra = extra.strip()
        if extra.startswith("action="):
            actions.append(extra[len("action="):])
        elif extra == "exported":
            exported = True
        else:
            raise IrSyntaxError(line_no, f"bad component attribute {extra!r}")
    return Component(cls, kind, tuple(actions), exported)


def render_manifest(manifest: Manifest) -> str:
    lines = [
        f"package: {manifest.package}",
        f"category: {manifest.category}",
        f"description: {manifest.description}",
    ]
    lines += [f"permission:{p}" for p in manifest.permissions]
    for c in manifest.components:
        item = f"component:{c.kind}:{c.name}"
        for a in c.intent_actions:
            item += f":action={a}"
        if c.exported:
            item += ":exported"
        lines.append(item)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# IR parsing
# ---------------------------------------------------------------------------

_CLASS_RE = re.compile(r"^class\s+([\w.$]+)(?:\s+extends\s+([\w.$]+))?\s*\{$")
_METHOD_RE = re.compile(r"^method\s+(\S+)\s*\(([^()]*)\)\s*\{$")
_INVOKE_RE = re.compile(r"^(?:(\w+)\s*=\s*)?call\s+([A-Za-z_$][\w.$]*\([^()]*\)->[\w.$]+)\((.*)\)$")
_IF_RE = re.compile(r"^if\s+(\w+)\s+goto\s+(\d+)$")
_GOTO_RE = re.compile(r"^goto\s+(\d+)$")
_RETURN_RE = re.compile(r"^return(?:\s+(\w+))?$")
_CONST_RE = re.compile(r"^(\w+)\s*=\s*const\s+(.+)$")
_COPY_RE = re.compile(r"^(\w+)\s*=\s*([A-Za-z_]\w*)$")
# everything before the first `#` outside double quotes; an unterminated
# quote runs to the end of the line
_UNCOMMENTED_RE = re.compile(r'(?:[^"#]+|"[^"]*(?:"|$))*')


def _strip(raw: str) -> str:
    """Remove comments and surrounding whitespace; quote-aware for `#`."""
    return _UNCOMMENTED_RE.match(raw).group().strip()


def _parse_stmt(line: str, stmt_line: int, file_line: int) -> IrStatement:
    m = _INVOKE_RE.match(line)
    if m:
        dst, sig_text, args_text = m.groups()
        try:
            callee = parse_sig(sig_text)
        except ValueError as exc:
            raise IrSyntaxError(file_line, str(exc)) from None
        args = tuple(_split_args(args_text))
        for a in args:
            _check_arg_token(a, file_line)
        if dst is not None and not is_var_token(dst):
            raise IrSyntaxError(file_line, f"bad destination {dst!r}")
        return Invoke(stmt_line, callee, args, dst)
    m = _IF_RE.match(line)
    if m:
        cond, target = m.groups()
        if not is_var_token(cond):
            raise IrSyntaxError(file_line, f"bad condition variable {cond!r}")
        return If(stmt_line, cond, int(target))
    m = _GOTO_RE.match(line)
    if m:
        return Goto(stmt_line, int(m.group(1)))
    m = _RETURN_RE.match(line)
    if m:
        var = m.group(1)
        if var is not None and not is_var_token(var):
            raise IrSyntaxError(file_line, f"bad return variable {var!r}")
        return Return(stmt_line, var)
    if line == "nop":
        return Nop(stmt_line)
    m = _CONST_RE.match(line)
    if m:
        dst, literal = m.group(1), m.group(2).strip()
        if not is_var_token(dst):
            raise IrSyntaxError(file_line, f"bad destination {dst!r}")
        _check_arg_token(literal, file_line)
        return Assign(stmt_line, dst, literal=literal)
    m = _COPY_RE.match(line)
    if m:
        dst, src = m.groups()
        if not is_var_token(dst) or not is_var_token(src):
            raise IrSyntaxError(file_line, f"bad assignment {line!r}")
        return Assign(stmt_line, dst, src=src)
    raise IrSyntaxError(file_line, f"unrecognized statement {line!r}")


def parse_program(text: str) -> IrProgram:
    classes: list[ClassDef] = []
    seen_sigs: set[MethodSig] = set()
    cur_class: ClassDef | None = None
    cur_method: MethodDef | None = None

    for file_line, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if cur_method is not None:
            if line == "}":
                _check_branch_targets(cur_method)
                cur_method = None
                continue
            stmt = _parse_stmt(line, len(cur_method.body) + 1, file_line)
            cur_method.body.append(stmt)
            continue
        if cur_class is not None:
            if line == "}":
                cur_class = None
                continue
            m = _METHOD_RE.match(line)
            if not m:
                raise IrSyntaxError(file_line, f"expected method or '}}', got {line!r}")
            sig_text, params_text = m.groups()
            try:
                sig = parse_sig(sig_text)
            except ValueError as exc:
                raise IrSyntaxError(file_line, str(exc)) from None
            if sig.class_name != cur_class.name:
                raise IrSyntaxError(
                    file_line, f"method {sig} declared inside class {cur_class.name}"
                )
            if sig in seen_sigs:
                raise DuplicateSignatureError(str(sig))
            seen_sigs.add(sig)
            params = tuple(p.strip() for p in params_text.split(",") if p.strip())
            for p in params:
                if not is_var_token(p):
                    raise IrSyntaxError(file_line, f"bad parameter name {p!r}")
            if len(set(params)) != len(params):
                raise IrSyntaxError(file_line, f"{sig}: duplicate parameter names")
            if len(params) != len(sig.param_types):
                raise IrSyntaxError(
                    file_line,
                    f"{sig}: {len(sig.param_types)} parameter types but {len(params)} names",
                )
            cur_method = MethodDef(sig, params, [])
            cur_class.methods.append(cur_method)
            continue
        m = _CLASS_RE.match(line)
        if not m:
            raise IrSyntaxError(file_line, f"expected class declaration, got {line!r}")
        cur_class = ClassDef(m.group(1), m.group(2), [])
        classes.append(cur_class)

    if cur_method is not None or cur_class is not None:
        raise IrSyntaxError(len(text.splitlines()), "unexpected end of input (missing '}')")
    return IrProgram(classes)


def _check_branch_targets(method: MethodDef) -> None:
    n = len(method.body)
    for stmt in method.body:
        target = None
        if isinstance(stmt, (If, Goto)):
            target = stmt.target
        if target is not None and not (1 <= target <= n):
            raise BadBranchTargetError(str(method.signature), target)


def render_program(program: IrProgram) -> str:
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


# ---------------------------------------------------------------------------
# bundle assembly + validation
# ---------------------------------------------------------------------------


def parse_bundle(manifest_text: str, ir_text: str, app_id: str | None = None) -> AppBundle:
    """Parse one app; `validate` reports what does not link."""
    manifest = parse_manifest(manifest_text)
    return AppBundle(app_id or manifest.package, manifest, parse_program(ir_text))


def validate(bundle: AppBundle) -> list[Diagnostic]:
    """Collect every invariant violation as data; empty iff well-formed."""
    diags: list[Diagnostic] = []
    if not bundle.app_id:
        diags.append(Diagnostic("EmptyAppId", "bundle", "app_id is empty"))
    seen_perm: set[str] = set()
    for p in bundle.manifest.permissions:
        if p in seen_perm:
            diags.append(
                Diagnostic("DuplicatePermission", p, f"permission {p} declared twice")
            )
        seen_perm.add(p)
    known = bundle.program.class_names()
    for comp in bundle.manifest.components:
        if comp.name not in known:
            diags.append(
                Diagnostic(
                    "UnresolvedComponent",
                    comp.name,
                    f"component class {comp.name} not defined in program",
                )
            )
    for method in bundle.program.methods():
        defined = set(method.params)
        for stmt in method.body:
            for var in used_vars(stmt):
                if var not in defined:
                    diags.append(
                        Diagnostic(
                            "UseBeforeDef",
                            f"{method.signature}:{stmt.line}",
                            f"variable {var!r} used before assignment",
                        )
                    )
            d = defined_var(stmt)
            if d is not None:
                defined.add(d)
    return diags


# ---------------------------------------------------------------------------
# LOC statistics
# ---------------------------------------------------------------------------

DEFAULT_BUCKETS = (10, 20, 30, 50, 100)


@dataclass
class LocDistribution:
    """Per-method statement counts with percentile and histogram views."""

    per_method_loc: list[int]

    def percentile(self, p: float) -> int:
        """Smallest LOC value v such that at least p% of methods have LOC <= v."""
        if not self.per_method_loc:
            raise EmptyProgramError("no methods")
        xs = sorted(self.per_method_loc)
        rank = max(1, math.ceil(len(xs) * p / 100.0))
        return xs[min(rank, len(xs)) - 1]

    def histogram(self, buckets: tuple[int, ...] = DEFAULT_BUCKETS) -> list[tuple[str, int]]:
        """Counts per bucket; bucket edges are inclusive upper bounds."""
        edges = list(buckets)
        counts = [0] * (len(edges) + 1)
        for v in self.per_method_loc:
            for i, hi in enumerate(edges):
                if v <= hi:
                    counts[i] += 1
                    break
            else:
                counts[-1] += 1
        labels = []
        lo = 1
        for hi in edges:
            labels.append(f"{lo}-{hi}")
            lo = hi + 1
        labels.append(f"{lo}+")
        return list(zip(labels, counts))

    @property
    def mean(self) -> float:
        return sum(self.per_method_loc) / len(self.per_method_loc)


def loc_stats(program: IrProgram) -> LocDistribution:
    methods = program.methods()
    if not methods:
        raise EmptyProgramError("program has no methods")
    return LocDistribution([m.loc for m in methods])
