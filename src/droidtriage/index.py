"""Global call graph and the system-API inverted index.

Both structures are built once per bundle and never mutated, so concurrent
agent sessions can share them freely.  The call graph keeps each method's
distinct callers; the index keeps every concrete call site.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .catalog import ApiCatalog
from .ir import Invoke, IrProgram, MethodSig, render_stmt


@dataclass(frozen=True)
class CallSite:
    """One concrete invocation of a callee, addressed by method and line."""

    method: MethodSig
    line: int
    callee: MethodSig
    result_var: str | None = None

    def render(self) -> str:
        return f"{self.callee} @ {self.method}:{self.line}"


@dataclass
class CallGraph:
    nodes: set[MethodSig]
    # callee -> distinct callers, sorted by their canonical rendering
    callers: dict[MethodSig, tuple[MethodSig, ...]]

    def callers_of(self, sig: MethodSig) -> tuple[MethodSig, ...]:
        return self.callers.get(sig, ())


def build_call_graph(program: IrProgram) -> CallGraph:
    nodes: set[MethodSig] = set(program.method_map)
    callers: dict[MethodSig, set[MethodSig]] = {}
    for method in program.methods():
        for stmt in method.body:
            if isinstance(stmt, Invoke):
                nodes.add(stmt.callee)
                callers.setdefault(stmt.callee, set()).add(method.signature)
    return CallGraph(nodes, {c: tuple(sorted(s, key=str)) for c, s in callers.items()})


@dataclass
class ApiIndex:
    """Signature -> call sites, restricted to the system-API surface."""

    sites: dict[str, list[CallSite]] = field(default_factory=dict)

    def lookup(self, sig: MethodSig | str) -> list[CallSite]:
        return list(self.sites.get(str(sig), []))


def build_api_index(program: IrProgram, catalog: ApiCatalog) -> ApiIndex:
    """External call sites grouped by callee; the catalog is asked once per callee."""
    defined = program.method_map
    external: dict[MethodSig, list[tuple[MethodSig, Invoke]]] = {}
    for method in sorted(program.methods(), key=lambda m: str(m.signature)):
        for stmt in method.body:
            if isinstance(stmt, Invoke) and stmt.callee not in defined:
                external.setdefault(stmt.callee, []).append((method.signature, stmt))
    index = ApiIndex()
    for callee, calls in external.items():
        if catalog.is_system(callee):
            index.sites[str(callee)] = [CallSite(m, s.line, callee, s.dst) for m, s in calls]
    return index


def global_search(program: IrProgram, pattern: str) -> list[tuple[MethodSig, int, str]]:
    """Case-sensitive substring search over canonical statement renderings."""
    if not pattern:
        raise ValueError("empty search pattern")
    hits: list[tuple[MethodSig, int, str]] = []
    for method in sorted(program.methods(), key=lambda m: str(m.signature)):
        for stmt in method.body:
            rendered = render_stmt(stmt)
            if pattern in rendered:
                hits.append((method.signature, stmt.line, rendered))
    return hits
