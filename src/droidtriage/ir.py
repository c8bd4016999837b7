"""Textual app bundle: manifest + line-oriented three-address IR.

The IR is deliberately small: assignments, constant loads, calls, forward
and backward gotos, conditional gotos, returns and nops.  A statement's line
is its 1-based position in `MethodDef.body`, local to the enclosing method,
so branch targets are checkable at parse time.  Statements carry no position:
each distinct statement text is parsed once per program, and every line that
spells it shares that one immutable object.  Each statement carries `uses`,
the variables it reads in order, and `dst`, the variable it defines or None,
set when it is built and left out of equality.  Variables are method-local;
there are no fields, arrays or exceptions.

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
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from operator import itemgetter

from .errors import InvalidBundleError

# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------

_QUALIFIED_RE = re.compile(r"[A-Za-z_$][\w.$]*")
_TAIL_RE = re.compile(r"\(([^()]*)\)->([\w.$]+)")
_VAR_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_INT_RE = re.compile(r"^-?\d+$")

_RESERVED = {"call", "const", "goto", "if", "return", "nop", "true", "false", "null"}

Tail = tuple[tuple[str, ...], str]  # a signature's parameter types and return type


class MethodSig(tuple):
    """Fully qualified method signature; canonical form `cls.m(t1,t2)->ret`.
    An immutable tuple of the four fields and their rendering, built by one
    call.  It equals only a `MethodSig` with the same fields, and hashes as
    the tuple."""

    __slots__ = ()

    def __new__(cls, class_name: str, method_name: str, param_types: tuple[str, ...],
                return_type: str) -> MethodSig:
        text = f"{class_name}.{method_name}({','.join(param_types)})->{return_type}"
        return tuple.__new__(cls, (class_name, method_name, param_types, return_type, text))

    class_name = property(itemgetter(0))
    method_name = property(itemgetter(1))
    param_types = property(itemgetter(2))
    return_type = property(itemgetter(3))
    __hash__ = tuple.__hash__

    def __eq__(self, other: object) -> bool:
        return other.__class__ is MethodSig and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __str__(self) -> str:
        return self[4]

    def __repr__(self) -> str:
        return (f"MethodSig(class_name={self[0]!r}, method_name={self[1]!r}, "
                f"param_types={self[2]!r}, return_type={self[3]!r})")

    def __getnewargs__(self) -> tuple[str, str, tuple[str, ...], str]:
        return self[:4]  # copy and pickle rebuild it from the four fields


def parse_sig(text: str) -> MethodSig:
    """Parse a canonical signature; raises ValueError on malformed input."""
    return _parse_sig(text, {})


def _parse_sig(text: str, tails: dict[str, Tail]) -> MethodSig:
    """The one signature grammar: the text up to its first `(` is the
    qualified name, the rest the `(t1,t2)->ret` tail.  `tails` holds the
    tails parsed so far, which repeat across signatures."""
    stripped = text.strip()
    cut = stripped.find("(")
    qualified, tail = stripped[:cut], stripped[cut:]
    parsed = tails.get(tail)
    if parsed is None and cut >= 0 and (parsed := _parse_tail(tail)) is not None:
        tails[tail] = parsed
    if parsed is None or cut < 0 or not _QUALIFIED_RE.fullmatch(qualified):
        raise ValueError(f"malformed signature: {text!r}")
    cls, dot, name = qualified.rpartition(".")
    if not dot:
        raise ValueError(f"signature missing class qualifier: {text!r}")
    return MethodSig(cls, name, *parsed)


def _parse_tail(tail: str) -> Tail | None:
    """A `(t1,t2)->ret` tail's parameter types and return type, or None."""
    m = _TAIL_RE.fullmatch(tail)
    if not m:
        return None
    types, ret = m.groups()
    return tuple(t.strip() for t in types.split(",") if t.strip()) if types.strip() else (), ret


def is_var_token(tok: str) -> bool:
    """True when an argument token denotes a variable rather than a literal."""
    return bool(_VAR_RE.match(tok)) and tok not in _RESERVED


def _check_arg_token(tok: str, line_no: int) -> bool:
    """Raise on a malformed argument token; True when it names a variable."""
    if is_var_token(tok):
        return True
    if _INT_RE.match(tok) or tok in ("true", "false", "null"):
        return False
    if len(tok) >= 2 and tok.startswith('"') and tok.endswith('"'):
        return False
    raise InvalidBundleError(f"line {line_no}: bad argument token {tok!r}")


_ARG_RE = re.compile(r'(?:[^",]+|"[^"]*(?:"|$))+')


def _split_args(text: str) -> list[str]:
    """Split a call argument list on top-level commas, honouring quotes (an
    unclosed quote runs to the end)."""
    pieces = _ARG_RE.findall(text) if '"' in text else text.split(",")
    return [a for a in map(str.strip, pieces) if a]


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Assign:
    """`dst = src` (variable copy) or `dst = const lit` when literal is set."""

    dst: str
    src: str | None = None
    literal: str | None = None
    uses: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "uses", () if self.src is None else (self.src,))


@dataclass(frozen=True, slots=True)
class Invoke:
    callee: MethodSig
    args: tuple[str, ...]
    dst: str | None
    # the variable arguments in order; the parser passes the ones it found
    # while checking the argument list, so readers run no token regex
    uses: tuple[str, ...] = field(compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class If:
    cond: str
    target: int
    uses: tuple[str, ...] = field(init=False, compare=False, repr=False)
    dst = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "uses", (self.cond,))


@dataclass(frozen=True, slots=True)
class Goto:
    target: int
    uses = ()
    dst = None


@dataclass(frozen=True, slots=True)
class Return:
    var: str | None = None
    uses: tuple[str, ...] = field(init=False, compare=False, repr=False)
    dst = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "uses", () if self.var is None else (self.var,))


@dataclass(frozen=True, slots=True)
class Nop:
    """`nop`; it has no fields, so every `nop` of a program is one object."""

    uses = ()
    dst = None


IrStatement = Assign | Invoke | If | Goto | Return | Nop
CallRow = tuple[MethodSig, int, Invoke]  # a call statement with its caller and line


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

    @cached_property
    def defuse(self) -> tuple[list[tuple[int, ...]], dict[int, list[int]], dict[int, list[int]]]:
        """The def-use graph in SSA form, `(reaching, users, operands)`, built on
        first use and shared by every tool that walks this method.  A definition
        is a line, a parameter on entry (-1 - its index), a phi (past the last
        line) or 0, none: `reaching[line]` holds the one reaching each of the
        line's `uses`, `users[d]` the lines and phis that read d, and
        `operands[phi]` the one reaching the phi along each edge in.  Regions,
        runs of lines entered only at the first and left only at the last, get
        dominators by Cooper, Harvey and Kennedy, and phis at the iterated
        dominance frontiers of each variable's defining regions (Cytron et al.);
        one walk of the dominator tree names the uses.  Its root, line -1,
        enters line 0, which defines the parameters and falls into line 1, and,
        in line order, the first line of each part a walk from line 1 misses:
        a dead definition reaches a live join, and no parameter a dead line."""
        body, n = self.body, len(self.body)
        jumps = [(line, getattr(s, "target", 1)) for line, s in enumerate(body, 1)  # a Return's is 1
                 if type(s) in (If, Goto, Return) and getattr(s, "target", 0) != line + 1]
        hs = sorted({1, *(line + 1 for line, _ in jumps), *(t for _, t in jumps)} - {n + 1})  # heads
        ends = dict(zip([-1, 0, *hs], [0, 1, *hs[1:], n + 1]))  # one past a region's last line
        succ: dict[int, list[int]] = {-1: [], 0: hs[:1]}
        for h in hs:
            last = body[ends[h] - 2]
            falls = [] if type(last) in (Goto, Return) or ends[h] > n else [ends[h]]
            succ[h] = [*dict.fromkeys(falls + ([last.target] if type(last) in (If, Goto) else []))]
        post, seen = [], {-1}
        for root in [0, *hs]:  # depth first from line 0, then from each head not met
            if root not in seen:
                succ[-1].append(root)
                stack = [root]
                while stack:  # a region to enter, or ~region when it is finished
                    x = stack.pop()
                    if x < 0:
                        post.append(~x)
                    elif x not in seen:
                        seen.add(x)
                        stack += [~x, *reversed(succ[x])]
        rpo = [-1, *reversed(post)]
        num = {node: i for i, node in enumerate(rpo)}
        preds: list[list[int]] = [[] for _ in rpo]
        for node, s in [(node, s) for node in reversed(rpo) for s in succ[node]]:
            preds[num[s]].append(num[node])  # deepest first, so each meet walks up once
        idom, old = [0] + [-1] * (len(rpo) - 1), None
        while idom != old:  # by reverse postorder number, a dominator's is the smaller
            old = idom[:]
            for i in range(1, len(rpo)):
                new, *rest = [p for p in preds[i] if idom[p] >= 0]
                for q in rest:
                    while q != new:
                        q, new = (idom[q], new) if q > new else (q, idom[new])
                idom[i] = new
        kids, frontier = [[] for _ in rpo], [[] for _ in rpo]  # dominator-tree children; frontiers
        for b, ps in enumerate(preds[1:], 1):
            kids[idom[b]].append(b)
            for p in ps if len(ps) > 1 else ():
                while p != idom[b] and frontier[p][-1:] != [b]:  # met b: so did all above
                    frontier[p].append(b)
                    p = idom[p]
        phis: list[dict[str, int]] = [{} for _ in rpo]  # a region's phi for each variable
        operands: dict[int, list[int]] = {}
        work = [(var, i) for i, node in enumerate(rpo) if frontier[i]  # no frontier, no phi
                for var in (self.params if node == 0 else
                            {s.dst for s in body[node - 1:ends[node] - 1]} - {None})]
        while work:
            var, x = work.pop()
            for y in frontier[x]:
                if var not in phis[y]:
                    operands[phi := n + 1 + len(operands)] = []
                    phis[y][var] = phi
                    work.append((var, y))
        reaching, users, cur, undo = [()] * (n + 1), {}, {}, []  # cur: var -> its definition
        stack, marks = [0], [0] * len(rpo)
        while stack:  # dominator tree preorder: first restore the names leaving idom's region
            i = stack.pop()
            while len(undo) > marks[idom[i]]:
                var, cur[var] = undo.pop()
            defs = phis[i] if rpo[i] else {p: -1 - k for k, p in enumerate(self.params)}
            undo += [(var, cur.get(var, 0)) for var in defs]
            cur.update(defs)
            for line in range(max(rpo[i], 1), ends[rpo[i]]):
                stmt = body[line - 1]
                if stmt.uses:
                    reaching[line] = uses = tuple([cur.get(v, 0) for v in stmt.uses])
                    for d in uses:
                        users.setdefault(d, []).append(line)
                if stmt.dst is not None:
                    undo.append((stmt.dst, cur.get(stmt.dst, 0)))
                    cur[stmt.dst] = line
            for var, phi in (item for head in succ[rpo[i]] for item in phis[num[head]].items()):
                operands[phi].append(d := cur.get(var, 0))
                users.setdefault(d, []).append(phi)
            marks[i] = len(undo)
            stack += kids[i]
        return reaching, users, operands


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

    @cached_property
    def calls(self) -> dict[MethodSig, list[CallRow]]:
        """Callee -> its (caller, line, Invoke) rows, from one walk of the
        methods in file order: callees in the order it meets them, rows in
        file order.  Shared by readers, never mutated."""
        grouped: dict[MethodSig, list[CallRow]] = {}
        for m in self.methods():
            for line, s in enumerate(m.body, 1):
                if isinstance(s, Invoke):
                    grouped.setdefault(s.callee, []).append((m.signature, line, s))
        return grouped


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
            raise InvalidBundleError(f"line {line_no}: expected key:value, got {line!r}")
        key, value = (part.strip() for part in line.split(":", 1))
        if key == "package":
            package = value
        elif key == "category":
            category = value
        elif key == "description":
            description = value
        elif key == "permission":
            if not value:
                raise InvalidBundleError(f"line {line_no}: empty permission name")
            permissions.append(value)
        elif key == "component":
            components.append(_parse_component(value, line_no))
        else:
            raise InvalidBundleError(f"line {line_no}: unknown manifest key {key!r}")
    if not package:
        raise InvalidBundleError("line 0: manifest missing package")
    return Manifest(package, category, description, permissions, components)


def _parse_component(value: str, line_no: int) -> Component:
    parts = value.split(":")
    if len(parts) < 2:
        raise InvalidBundleError(f"line {line_no}: component needs kind and class: {value!r}")
    kind, cls = parts[0].strip(), parts[1].strip()
    if kind not in COMPONENT_KINDS:
        raise InvalidBundleError(f"line {line_no}: unknown component kind {kind!r}")
    extras = [extra.strip() for extra in parts[2:]]
    for extra in extras:
        if not extra.startswith("action=") and extra != "exported":
            raise InvalidBundleError(f"line {line_no}: bad component attribute {extra!r}")
    actions = tuple(extra[len("action="):] for extra in extras if extra != "exported")
    return Component(cls, kind, actions, "exported" in extras)


# ---------------------------------------------------------------------------
# IR parsing
# ---------------------------------------------------------------------------

_CLASS_RE = re.compile(r"^class\s+([\w.$]+)(?:\s+extends\s+([\w.$]+))?\s*\{$")
_METHOD_RE = re.compile(r"^method\s+(\S+)\s*\(([^()]*)\)\s*\{$")
# `<dst> =`, then one regex per statement form, matched after it
_DST_RE = re.compile(r"(\w+)\s*=\s*")
_CALL_RE = re.compile(r"call\s+([A-Za-z_$][\w.$]*\([^()]*\)->[\w.$]+)\((.*)\)$")
_IF_RE = re.compile(r"if\s+(\w+)\s+goto\s+(\d+)$")
_GOTO_RE = re.compile(r"goto\s+(\d+)$")
_RETURN_RE = re.compile(r"return(?:\s+(\w+))?$")
_CONST_RE = re.compile(r"const\s+(.+)$")
_COPY_RE = re.compile(r"([A-Za-z_]\w*)$")
# everything before the first `#` outside double quotes; an unterminated
# quote runs to the end of the line
_UNCOMMENTED_RE = re.compile(r'(?:[^"#]+|"[^"]*(?:"|$))*')


def _strip(raw: str) -> str:
    """Remove comments and surrounding whitespace; quote-aware for `#`."""
    if "#" not in raw:
        return raw.strip()
    return _UNCOMMENTED_RE.match(raw).group().strip()


def _parse_params(text: str, file_line: int) -> tuple[str, ...]:
    """A method header's parameter names; raises on one that is no variable."""
    params = tuple(p.strip() for p in text.split(",") if p.strip())
    for p in params:
        if not is_var_token(p):
            raise InvalidBundleError(f"line {file_line}: bad parameter name {p!r}")
    return params


class _Parse:
    """One parse's tables: each distinct statement text becomes the one
    statement every line spelling it shares, each distinct signature text the
    one `MethodSig` every line naming it shares, and each distinct signature
    tail, header parameter list and call argument list is parsed and checked
    once.  Only texts that parsed are stored, so an error names its own file
    line.  `lowest_target` and `highest_target` bound the branch targets
    parsed so far (1 and 0 while there are none): a method at least as long
    as the highest, with no target below 1 parsed, needs no target check.
    The tables die with the parse, so attacker text cannot grow them past
    its own size."""

    def __init__(self) -> None:
        self.stmts: dict[str, IrStatement] = {}
        self.sigs: dict[str, MethodSig] = {}
        self.tails: dict[str, Tail] = {}
        self.param_lists: dict[str, tuple[str, ...]] = {}
        self.arg_lists: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {}
        self.lowest_target, self.highest_target = 1, 0

    def body(self, lines: Iterator[tuple[int, str]], body: list[IrStatement]) -> bool:
        """Read a method's statements into `body` up to its closing `}`;
        False when the input ends first.  A text seen before costs one strip,
        one lookup and one append; only a text holding a `#` is cut at its
        comment."""
        stmts, append = self.stmts, body.append
        for file_line, raw in lines:
            text = raw.strip()
            stmt = stmts.get(text)
            if stmt is None:
                line = _strip(text)
                if line == "}":
                    return True
                if not line:
                    continue
                stmt = stmts[line] = stmts[text] = stmts.get(line) or self.stmt(line, file_line)
            append(stmt)
        return False

    def sig(self, text: str, file_line: int) -> MethodSig:
        sig = self.sigs.get(text)
        if sig is None:
            try:
                sig = _parse_sig(text, self.tails)
            except ValueError as exc:
                raise InvalidBundleError(f"line {file_line}: {exc}") from None
            # texts that differ only in spacing share the canonical one's object
            sig = self.sigs[text] = self.sigs.setdefault(str(sig), sig)
        return sig

    def params(self, text: str, file_line: int) -> tuple[str, ...]:
        params = self.param_lists.get(text)
        if params is None:
            params = self.param_lists[text] = _parse_params(text, file_line)
        return params

    def args(self, text: str, file_line: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """An argument list's tokens, and those of them naming variables."""
        entry = self.arg_lists.get(text)
        if entry is None:
            args = tuple(_split_args(text))
            uses = tuple(a for a in args if _check_arg_token(a, file_line))
            entry = self.arg_lists[text] = (args, uses)
        return entry

    def target(self, digits: str, file_line: int) -> int:
        """A branch target, widening the parse's target range; past the
        interpreter's int-string digit limit it is a syntax error, not the
        `ValueError` that `int` raises."""
        try:
            target = int(digits)
        except ValueError:
            raise InvalidBundleError(f"line {file_line}: branch target of {len(digits)} digits") from None
        self.lowest_target = min(self.lowest_target, target)
        self.highest_target = max(self.highest_target, target)
        return target

    def stmt(self, line: str, file_line: int) -> IrStatement:
        """The first word, or the word after `<dst> =`, picks the one form
        that can match: the result is that of trying call, if, goto, return,
        nop, const and copy in turn."""
        m = _DST_RE.match(line) if "=" in line else None
        dst, pos = (m.group(1), m.end()) if m else (None, 0)
        if line.startswith("call", pos) and (m := _CALL_RE.match(line, pos)):
            callee, (args, uses) = self.sig(m.group(1), file_line), self.args(m.group(2), file_line)
            if dst is not None and not is_var_token(dst):
                raise InvalidBundleError(f"line {file_line}: bad destination {dst!r}")
            return Invoke(callee, args, dst, uses)
        if dst is None:
            if line.startswith("if") and (m := _IF_RE.match(line)):
                if not is_var_token(m.group(1)):
                    raise InvalidBundleError(
                        f"line {file_line}: bad condition variable {m.group(1)!r}")
                return If(m.group(1), self.target(m.group(2), file_line))
            if line.startswith("goto") and (m := _GOTO_RE.match(line)):
                return Goto(self.target(m.group(1), file_line))
            if line.startswith("return") and (m := _RETURN_RE.match(line)):
                if m.group(1) is not None and not is_var_token(m.group(1)):
                    raise InvalidBundleError(
                        f"line {file_line}: bad return variable {m.group(1)!r}")
                return Return(m.group(1))
            if line == "nop":
                return Nop()
        elif line.startswith("const", pos) and (m := _CONST_RE.match(line, pos)):
            literal = m.group(1).strip()
            if not is_var_token(dst):
                raise InvalidBundleError(f"line {file_line}: bad destination {dst!r}")
            _check_arg_token(literal, file_line)
            return Assign(dst, literal=literal)
        elif m := _COPY_RE.match(line, pos):
            if not is_var_token(dst) or not is_var_token(m.group(1)):
                raise InvalidBundleError(f"line {file_line}: bad assignment {line!r}")
            return Assign(dst, src=m.group(1))
        raise InvalidBundleError(f"line {file_line}: unrecognized statement {line!r}")


def parse_program(text: str) -> IrProgram:
    classes: list[ClassDef] = []
    seen_sigs: set[MethodSig] = set()
    cur_class: ClassDef | None = None
    parse = _Parse()
    all_lines = text.splitlines()
    lines = enumerate(all_lines, start=1)

    for file_line, raw in lines:
        line = _strip(raw)
        if not line:
            continue
        if cur_class is None:
            m = _CLASS_RE.match(line)
            if not m:
                raise InvalidBundleError(f"line {file_line}: expected class declaration, got {line!r}")
            cur_class = ClassDef(m.group(1), m.group(2), [])
            classes.append(cur_class)
            continue
        if line == "}":
            cur_class = None
            continue
        m = _METHOD_RE.match(line)
        if not m:
            raise InvalidBundleError(f"line {file_line}: expected method or '}}', got {line!r}")
        sig = parse.sig(m.group(1), file_line)
        if sig.class_name != cur_class.name:
            raise InvalidBundleError(
                f"line {file_line}: method {sig} declared inside class {cur_class.name}")
        if sig in seen_sigs:
            raise InvalidBundleError(f"duplicate method signature: {sig}")
        seen_sigs.add(sig)
        params = parse.params(m.group(2), file_line)
        if len(set(params)) != len(params):
            raise InvalidBundleError(f"line {file_line}: {sig}: duplicate parameter names")
        if len(params) != len(sig.param_types):
            raise InvalidBundleError(f"line {file_line}: {sig}: {len(sig.param_types)} "
                                     f"parameter types but {len(params)} names")
        method = MethodDef(sig, params, [])
        cur_class.methods.append(method)
        if not parse.body(lines, method.body):
            break
        if parse.lowest_target < 1 or parse.highest_target > len(method.body):
            _check_branch_targets(method)

    if cur_class is not None:
        raise InvalidBundleError(f"line {len(all_lines)}: unexpected end of input (missing '}}')")
    return IrProgram(classes)


def _check_branch_targets(method: MethodDef) -> None:
    for stmt in method.body:
        if isinstance(stmt, (If, Goto)) and not 1 <= stmt.target <= len(method.body):
            raise InvalidBundleError(
                f"{method.signature}: branch target {stmt.target} does not exist")


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
    seen_perm: set[str] = set()
    for p in bundle.manifest.permissions:
        if p in seen_perm:
            diags.append(Diagnostic("DuplicatePermission", p, f"permission {p} declared twice"))
        seen_perm.add(p)
    known = {c.name for c in bundle.program.classes}
    for comp in bundle.manifest.components:
        if comp.name not in known:
            diags.append(Diagnostic("UnresolvedComponent", comp.name,
                                    f"component class {comp.name} not defined in program"))
    for method in bundle.program.methods():
        defined = set(method.params)
        for line, stmt in enumerate(method.body, 1):
            for var in stmt.uses:
                if var not in defined:
                    diags.append(Diagnostic("UseBeforeDef", f"{method.signature}:{line}",
                                            f"variable {var!r} used before assignment"))
            if stmt.dst is not None:
                defined.add(stmt.dst)
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
            raise ValueError("no methods")
        xs = sorted(self.per_method_loc)
        rank = max(1, math.ceil(len(xs) * p / 100.0))
        return xs[min(rank, len(xs)) - 1]

    def histogram(self, buckets: tuple[int, ...] = DEFAULT_BUCKETS) -> list[tuple[str, int]]:
        """Counts per bucket; bucket edges are ascending inclusive upper bounds."""
        counts = [0] * (len(buckets) + 1)
        for v in self.per_method_loc:
            counts[bisect_left(buckets, v)] += 1
        lows = (1, *(hi + 1 for hi in buckets))
        labels = [f"{lo}-{hi}" for lo, hi in zip(lows, buckets)] + [f"{lows[-1]}+"]
        return list(zip(labels, counts))

    @property
    def mean(self) -> float:
        return sum(self.per_method_loc) / len(self.per_method_loc)
