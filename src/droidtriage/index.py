"""Global call graph and the system-API inverted index.

Both read one grouping, `IrProgram.calls` (callee -> its (caller, line,
Invoke) rows, in file order), and neither copies a row.  The graph derives a
callee's distinct callers on first ask, and the index keeps each system
callee's rows as they are.  Concurrent agent sessions share both: the graph's
memo holds values fixed by the rows, so two sessions filling it store equal
tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .catalog import ApiCatalog
from .ir import CallRow, IrProgram, MethodSig


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
    calls: dict[MethodSig, list[CallRow]]
    # callee -> distinct callers, in file order; filled on first ask
    _callers: dict[MethodSig, tuple[MethodSig, ...]] = field(default_factory=dict, init=False)

    def callers_of(self, sig: MethodSig) -> tuple[MethodSig, ...]:
        if (found := self._callers.get(sig)) is None:
            rows = self.calls.get(sig, ())
            found = self._callers.setdefault(sig, tuple(dict.fromkeys(r[0] for r in rows)))
        return found


def build_call_graph(program: IrProgram) -> CallGraph:
    return CallGraph(set(program.method_map) | set(program.calls), program.calls)


@dataclass
class ApiIndex:
    """Callee -> its call rows, restricted to the system-API surface."""

    sites: dict[MethodSig, list[CallRow]] = field(default_factory=dict)


def build_api_index(program: IrProgram, catalog: ApiCatalog) -> ApiIndex:
    """The rows of each external callee the catalog calls system, keyed and
    ordered as in `IrProgram.calls`; the catalog is asked once per callee."""
    defined = program.method_map
    return ApiIndex({callee: rows for callee, rows in program.calls.items()
                     if callee not in defined and catalog.is_system(callee)})
