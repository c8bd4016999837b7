"""Per-layer tracing by wrapping the program's public functions.

The wrappers are installed from the benchmark, so the program itself is not
edited. Each wrapped call opens a span on a per-thread stack; when it closes,
its duration is added to its layer's busy time and to its parent's child
time, so a layer's self time is its busy time minus its children's. Counts
are taken from return values at the same boundaries. A layer whose function
no longer exists is reported as absent instead of failing the run.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

# (module, attribute path, layer name)
LAYERS = (
    ("droidtriage.config", "load_config", "config.load"),
    ("droidtriage.ir", "parse_bundle", "ir.parse"),
    ("droidtriage.index", "build_call_graph", "index.call_graph"),
    ("droidtriage.index", "build_api_index", "index.api_index"),
    ("droidtriage.catalog", "ApiCatalog.is_system", "catalog.is_system"),
    ("droidtriage.catalog", "ApiCatalog.sink_category", "catalog.sink_category"),
    ("droidtriage.catalog", "ApiCatalog.apis_for_permission", "catalog.apis_for_permission"),
    ("droidtriage.agents", "recon_screen", "agents.recon"),
    ("droidtriage.agents", "trace_candidate", "agents.trace"),
    ("droidtriage.agents", "adjudicate", "agents.verdict"),
    ("droidtriage.analysis", "extract_context", "analysis.context"),
    ("droidtriage.analysis", "trigger_paths", "analysis.trigger_paths"),
    ("droidtriage.analysis", "taint_reachability", "analysis.taint"),
    ("droidtriage.analysis", "backward_slice", "analysis.slice"),
    ("droidtriage.backend", "ModelRouter.complete", "backend.complete"),
    ("droidtriage.scripted", "ScriptedProvider.chat", "scripted.chat"),
    ("droidtriage.harness", "emit_reports", "harness.emit"),
)
# Observed for what it returns but not timed: its span would split the
# agent's own time from the tools it calls.
OBSERVED = (("droidtriage.agents", "ToolBox.dispatch", "agents.dispatch"),)

TOOLS = ("analysis.context", "analysis.trigger_paths", "analysis.taint", "analysis.slice")
CATALOG = ("catalog.is_system", "catalog.sink_category", "catalog.apis_for_permission")


class Tracer:
    def __init__(self) -> None:
        self.busy: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        # (app tag or None, start, end) of every model exchange
        self.exchanges: list[tuple[str | None, float, float]] = []
        self.chain_counts: list[tuple[str, int]] = []          # (method, chains)
        self.slices: list[tuple[str, list[int]]] = []          # ("method:line", kept)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- per-operation tagging ---------------------------------------------

    def set_app(self, app_id: str) -> None:
        self._local.app = app_id

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module, path, layer in LAYERS:
            self._patch(module, path, layer, timed=True)
        for module, path, layer in OBSERVED:
            self._patch(module, path, layer, timed=False)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, module: str, path: str, layer: str, timed: bool) -> None:
        try:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(f"{layer} ({module}.{path})")
            return
        wrapper = self._timed(layer, original) if timed else self._observed(layer, original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if outer:
            return
        # `from .module import name` binds the function in other modules too
        for name, mod in list(sys.modules.items()):
            if name.startswith("droidtriage") and mod is not owner:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def _timed(self, layer: str, fn):
        local = self._local
        observe = getattr(self, "_on_" + layer.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [0.0]  # child time
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                with self._lock:
                    self.busy[layer] += dur
                    self.self_time[layer] += dur - frame[0]
                    self.calls[layer] += 1
                    if layer == "backend.complete":
                        self.exchanges.append((getattr(local, "app", None), start, end))
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observed(self, layer: str, fn):
        observe = getattr(self, "_on_" + layer.replace(".", "_"))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(args, result)
            return result

        return wrapper

    # -- counts taken from return values -------------------------------------

    def _count(self, key: str, n: float) -> None:
        with self._lock:
            self.counts[key] += n

    def _on_ir_parse(self, args, bundle) -> None:
        self._count("statements", sum(len(m.body) for m in bundle.program.methods()))

    def _on_index_api_index(self, args, index) -> None:
        self._count("sites", sum(len(v) for v in index.sites.values()))

    def _on_agents_recon(self, args, report) -> None:
        self._count("candidates", len(report.candidates))

    def _on_backend_complete(self, args, exchange) -> None:
        self._count("tokens_in", exchange.input_tokens)
        if exchange.tier == "trace":
            self._count("trace_exchanges", 1)

    def _on_agents_dispatch(self, args, result) -> None:
        # tool results as the model sees them, so a change in how a tool
        # computes its answer does not change what is counted
        obs, _digest = result
        tool = obs.get("tool")
        self._count("obs." + str(tool), 1)
        if tool == "trigger_paths":
            self._count("chains", obs["count"])
            self._count("chains_shown", len(obs["chains"]))
            with self._lock:
                self.chain_counts.append((str(args[0].site.method), obs["count"]))
        elif tool == "backward_slice":
            self._count("kept_lines", len(obs["kept_lines"]))
            with self._lock:
                self.slices.append((f"{obs['method']}:{obs['line']}", list(obs["kept_lines"])))
        elif tool == "taint_reachability":
            self._count("sinks", len(obs["reached_sinks"]))

    # -- per-layer metrics -----------------------------------------------------

    def exchange_concurrency(self, apps: list[tuple[str, float, float]]) -> float:
        """Mean over triaged apps of the app's summed exchange time / its wall
        time. `apps` holds each operation's (app, start, end); an exchange made
        on a thread with no app tag counts for the operation whose window holds it."""
        spans = sorted((s, e, tag) for tag, s, e in self.exchanges)
        starts = [s for s, _e, _tag in spans]
        ratios = [
            sum(e - s for s, e, tag in spans[bisect.bisect_left(starts, a0):
                                             bisect.bisect_right(starts, a1)]
                if e <= a1 and tag in (app_id, None)) / (a1 - a0)
            for app_id, a0, a1 in apps if a1 > a0
        ]
        return sum(ratios) / len(ratios) if ratios else 0.0

    def metrics(self, n_apps: int, passes: int) -> dict[str, float]:
        def per(x: float, n: float) -> float:
            return x / n if n else 0.0

        ms = {k: v * 1000.0 for k, v in self.busy.items()}
        exchanges = self.calls["backend.complete"]
        tool_calls = sum(self.calls[t] for t in TOOLS)
        return {
            "ir.parse_ms_per_app": per(ms.get("ir.parse", 0.0), n_apps),
            "ir.statements_per_app": per(self.counts["statements"], n_apps),
            "index.call_graph_ms_per_app": per(ms.get("index.call_graph", 0.0), n_apps),
            "index.api_index_ms_per_app": per(ms.get("index.api_index", 0.0), n_apps),
            "index.sites_per_app": per(self.counts["sites"], n_apps),
            "catalog.lookups_per_app": per(sum(self.calls[c] for c in CATALOG), n_apps),
            "catalog.ms_per_app": per(sum(ms.get(c, 0.0) for c in CATALOG), n_apps),
            "agents.recon_ms_per_app": per(ms.get("agents.recon", 0.0), n_apps),
            "agents.candidates_per_app": per(self.counts["candidates"], n_apps),
            "agents.trace_self_ms_per_exchange": per(
                self.self_time["agents.trace"] * 1000.0, self.counts["trace_exchanges"]),
            "agents.verdict_ms_per_app": per(ms.get("agents.verdict", 0.0), n_apps),
            "analysis.tool_calls_per_app": per(tool_calls, n_apps),
            "analysis.context_ms_per_call": per(
                ms.get("analysis.context", 0.0), self.calls["analysis.context"]),
            "analysis.trigger_paths_ms_per_call": per(
                ms.get("analysis.trigger_paths", 0.0), self.calls["analysis.trigger_paths"]),
            "analysis.trigger_chains_per_call": per(
                self.counts["chains"], self.counts["obs.trigger_paths"]),
            "analysis.trigger_chains_used_ratio": per(
                self.counts["chains_shown"], self.counts["chains"]),
            "analysis.slice_ms_per_call": per(
                ms.get("analysis.slice", 0.0), self.calls["analysis.slice"]),
            "analysis.slice_kept_lines_per_call": per(
                self.counts["kept_lines"], self.counts["obs.backward_slice"]),
            "analysis.taint_ms_per_call": per(
                ms.get("analysis.taint", 0.0), self.calls["analysis.taint"]),
            "analysis.taint_sinks_per_call": per(
                self.counts["sinks"], self.counts["obs.taint_reachability"]),
            "backend.exchanges_per_app": per(exchanges, n_apps),
            "backend.tokens_in_per_exchange": per(self.counts["tokens_in"], exchanges),
            "backend.complete_ms_per_exchange": per(ms.get("backend.complete", 0.0), exchanges),
            "scripted.chat_ms_per_exchange": per(
                ms.get("scripted.chat", 0.0), self.calls["scripted.chat"]),
            "harness.emit_ms_per_pass": per(ms.get("harness.emit", 0.0), passes),
        }
