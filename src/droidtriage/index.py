"""Global call graph and the system-API inverted index.

Both structures are built once per bundle from one shared call list,
`IrProgram.calls` (every Invoke with its caller and line, methods in
rendering order), and never mutated, so concurrent agent sessions can share
them freely.  The call graph keeps each method's distinct callers; the index
keeps every concrete call site.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .catalog import ApiCatalog
from .ir import IrProgram, MethodSig


@dataclass(frozen=True, slots=True)
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
    # the callers of a callee, as dict keys in the order the sorted call list meets them
    callers: dict[MethodSig, dict[MethodSig, None]] = {}
    for caller, _, stmt in program.calls:
        callers.setdefault(stmt.callee, {})[caller] = None
    return CallGraph(set(program.method_map) | set(callers),
                     {c: tuple(s) for c, s in callers.items()})


@dataclass
class ApiIndex:
    """Signature -> call sites, restricted to the system-API surface."""

    sites: dict[str, list[CallSite]] = field(default_factory=dict)

    def lookup(self, sig: MethodSig | str) -> list[CallSite]:
        return list(self.sites.get(str(sig), []))


def build_api_index(program: IrProgram, catalog: ApiCatalog) -> ApiIndex:
    """External call sites grouped by callee; the catalog is asked once per
    callee, when the sorted call list first meets it."""
    defined = program.method_map
    index = ApiIndex()
    sites_of: dict[MethodSig, list[CallSite] | None] = {}  # None: not indexed
    for caller, line, stmt in program.calls:
        callee = stmt.callee
        if callee not in sites_of:
            system = callee not in defined and catalog.is_system(callee)
            sites_of[callee] = index.sites.setdefault(str(callee), []) if system else None
        if (sites := sites_of[callee]) is not None:
            sites.append(CallSite(caller, line, callee, stmt.dst))
    return index

