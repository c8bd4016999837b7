"""Three-tier triage: manifest screening, per-candidate forensics, verdict.

Tier 1 screens the manifest for intent/permission mismatches and prunes the
API index down to a capped candidate set.  Tier 2 runs one observe-think-act
session per candidate in its `ToolBox`, which holds the session's signal,
tools, evidence, spend and transcript; when the model provider waits on the
network, the sessions overlap on a bounded thread pool.  Tier 3 fuses the risk
signals with the boxes' evidence into the final JSON report.  Every model
exchange is metered into a cost ledger under its tier.
"""

from __future__ import annotations

import heapq
import json
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from itertools import islice
from operator import itemgetter
from string import Template

from .analysis import (
    SinkHit,
    TriggerWalks,
    backward_slice,
    extract_context,
    taint_reachability,
    trigger_paths,
)
from .backend import CostLedger, ModelRouter, check_floors
from .catalog import ApiCatalog, EntryCatalog
from .errors import SchemaViolationError, ToolError, TriageError
from .index import ApiIndex, CallGraph, CallSite, build_api_index, build_call_graph
from .ir import AppBundle, CallRow, Manifest, MethodSig, parse_sig, render_stmt

SEVERITIES = ("High", "Medium", "Low")
_SEV_RANK = {s: i for i, s in enumerate(SEVERITIES)}

@cache
def _template(name: str) -> Template:
    text = resources.files("droidtriage").joinpath(f"data/prompts/{name}").read_text("utf-8")
    return Template(text)


@dataclass
class PipelineBudgets:
    max_iterations: int = 8
    candidate_cap: int = 15

    def __post_init__(self):
        check_floors(self, {"max_iterations": 1, "candidate_cap": 1})


@dataclass(frozen=True)
class RiskSignal:
    permission: str
    reason: str
    severity: str


@dataclass
class ReconReport:
    risk_signals: list[RiskSignal]
    # each candidate site, in rank order -> the signal that pulled it in
    candidates: dict[CallSite, RiskSignal]


@dataclass(frozen=True)
class EvidenceRef:
    candidate: str
    trigger: str
    sink: str
    rationale: str


@dataclass
class VerdictReport:
    app_id: str
    verdict: str  # "Benign" | "Malicious"
    threat_category: str
    confidence: float
    evidence_chain: list[EvidenceRef]
    rationale: str

    def to_dict(self) -> dict:
        """The fields, with one shallow dict per evidence reference."""
        return {**vars(self), "evidence_chain": [dict(vars(e)) for e in self.evidence_chain]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# tier 1: reconnaissance
# ---------------------------------------------------------------------------


def recon_screen(
    manifest: Manifest,
    api_index: ApiIndex,
    catalog: ApiCatalog,
    router: ModelRouter,
    cap: int,
    ledger: CostLedger,
) -> ReconReport:
    payload = {
        "package": manifest.package,
        "category": manifest.category,
        "description": manifest.description,
        "permissions": list(manifest.permissions),
        "components": [
            {
                "class": c.name,
                "kind": c.kind,
                "actions": list(c.intent_actions),
                "exported": c.exported,
            }
            for c in manifest.components
        ],
    }
    prompt = _template("recon.txt").substitute(payload=_render(payload))
    exchange = router.complete("recon", [("user", prompt)])
    ledger.append(exchange)
    try:
        parsed = json.loads(exchange.response)
        raw_signals = parsed["risk_signals"]
        [str(x) for x in parsed.get("declared_intents", [])]  # a list, or a schema error
        if not isinstance(raw_signals, list):
            raise TypeError("risk_signals must be a list")
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise SchemaViolationError(f"unparseable screening response: {exc}") from None

    requested = set(manifest.permissions)
    signals = []
    for item in raw_signals:
        if not isinstance(item, dict):
            continue
        perm = item.get("permission", "")
        sev = item.get("severity", "")
        if isinstance(perm, str) and perm in requested and sev in SEVERITIES:
            signals.append(RiskSignal(perm, str(item.get("reason", "")), sev))
    signals.sort(key=lambda s: (_SEV_RANK[s.severity], s.permission))

    # each indexed API is pulled in by the first High/Medium signal whose
    # permission covers it; only the `cap` first pulled rows by (severity,
    # callee text, line, caller text) become call sites
    pulling = [s for s in signals if s.severity in ("High", "Medium")]
    pulled: list[tuple[tuple[int, str, int, str], CallRow, RiskSignal]] = []
    for callee, rows in api_index.sites.items():
        perms = catalog.permissions_of(callee)
        signal = next((s for s in pulling if s.permission in perms), None)
        if signal is not None:
            rank, text = _SEV_RANK[signal.severity], str(callee)
            pulled += [((rank, text, row[1], str(row[0])), row, signal) for row in rows]

    report = ReconReport(signals, {})
    for _key, (caller, line, stmt), signal in heapq.nsmallest(cap, pulled, key=itemgetter(0)):
        report.candidates[CallSite(caller, line, stmt.callee, stmt.dst)] = signal
    return report


# ---------------------------------------------------------------------------
# tier 2: forensic trace sessions
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ToolBox:
    """One candidate's trace session: its site and recon signal, the tools, the
    latest walks and hits, its own ledger and, once it ends, its transcript."""

    bundle: AppBundle
    graph: CallGraph
    api_catalog: ApiCatalog
    entry_catalog: EntryCatalog
    site: CallSite
    signal: RiskSignal
    ledger: CostLedger = field(default_factory=CostLedger)
    chains: TriggerWalks | None = field(default=None, init=False)
    taint: list[SinkHit] | None = field(default=None, init=False)
    # the session's (role, text) messages, from the system prompt to the last
    # observation, whether or not the model received it
    transcript: tuple[tuple[str, str], ...] = field(default=(), init=False)

    @property
    def trigger_kind(self) -> str:
        return self.chains.best().entry_kind if self.chains is not None else "Unknown"

    @property
    def sink_category(self) -> str:
        return self.taint[0].category if self.taint else "none"

    @property
    def hit_count(self) -> int:
        return len(self.taint) if self.taint is not None else 0

    def dispatch(self, action: str, args: dict) -> tuple[dict, str]:
        """One tool call's observation, and its text as the session sends it."""
        size_arg, ceiling, run = TOOLS[action]
        size = _capped(args, size_arg, ceiling) if size_arg else None
        obs = {"tool": action, **run(self, size, args)}
        return obs, _render(obs)


def _render(payload: dict) -> str:
    """A payload or observation as the model reads it."""
    return json.dumps(payload, indent=1, sort_keys=True)


def _rows(box: ToolBox, method: MethodSig, lines: Sequence[int]) -> list[str]:
    """The `"<n>: <statement>"` row the model reads for each of `lines` of `method`."""
    body = box.bundle.program.method_map[method].body
    return [f"{l}: {render_stmt(body[l - 1])}" for l in lines]


def _capped(args: dict, key: str, ceiling: int | None = None) -> int:
    """A model-chosen size or line as a non-negative int; a size defaults to `ceiling`
    and never exceeds it."""
    value = args.get(key, ceiling)
    try:
        if isinstance(value, float) and not value.is_integer():  # inf, nan, 2.5
            raise ValueError
        number = int(value)  # also takes bools and digit strings
    except (ValueError, TypeError):
        raise ToolError(f"{key} must be an integer, got {value!r}") from None
    if number < 0:
        raise ToolError(f"{key} must not be negative, got {number}")
    return number if ceiling is None else min(number, ceiling)


# Tool ceilings, constants so no config can raise them.  An observation shows
# at most MAX_SHOWN chains or sinks, and of a slice or a witness only its first
# CONTEXT_RADIUS and last CONTEXT_RADIUS + 1 items, whatever the app's size.
MAX_SHOWN = 10
CONTEXT_RADIUS = 20
TRIGGER_DEPTH = 5


def _ends(items: Sequence, radius: int) -> tuple[Sequence, int]:
    """`items`, or only its first `radius` and last `radius + 1`; and how many
    were left out between them."""
    hidden = len(items) - 2 * radius - 1
    if hidden <= 0:
        return items, 0
    return items[:radius] + items[-radius - 1:], hidden


# Each tool function calls its analysis by its module-global name at call
# time, so a wrapper installed on that name sees every call.
def _context(box: ToolBox, radius: int, args: dict) -> dict:
    window = extract_context(box.bundle.program, box.site, radius)
    return {
        "method": str(box.site.method),
        "start_line": window.start_line,
        "end_line": window.end_line,
        "truncated_head": window.truncated_head,
        "truncated_tail": window.truncated_tail,
        "lines": _rows(box, box.site.method, range(window.start_line, window.end_line + 1)),
    }


def _triggers(box: ToolBox, depth: int, args: dict) -> dict:
    box.chains = chains = trigger_paths(box.graph, box.site, box.entry_catalog, depth)
    shown = [{"entry_kind": c.entry_kind, "path": [str(m) for m in c.path]}
             for c in islice(chains, MAX_SHOWN)]
    return {"count": chains.count, "chains": shown}


def _taint(box: ToolBox, _size: None, args: dict) -> dict:
    box.taint = hits = taint_reachability(box.bundle.program, box.site, box.api_catalog)
    shown = []
    for h in hits[:MAX_SHOWN]:
        witness, hidden = _ends(h.witness, CONTEXT_RADIUS)
        sink = {"sink": str(h.site.callee), "method": str(h.site.method), "line": h.site.line,
                "category": h.category, "tainted_arg": h.tainted_arg,
                "witness": [[str(m), l] for m, l in witness]}
        if hidden:
            sink["witness_length"] = len(h.witness)
        shown.append(sink)
    obs = {"source": box.site.render(), "reached_sinks": shown}
    if len(hits) > MAX_SHOWN:
        obs["sink_count"] = len(hits)
    return obs


def _slice(box: ToolBox, _size: None, args: dict) -> dict:
    if not {"method", "line", "var"} <= args.keys():
        raise ToolError("backward_slice needs method, line and var")
    try:
        method = parse_sig(str(args["method"]))
    except ValueError as exc:
        raise ToolError(str(exc)) from None
    line, var = _capped(args, "line"), str(args["var"])
    result = backward_slice(box.bundle.program, method, line, var)
    shown, hidden = _ends(result.kept_lines, CONTEXT_RADIUS)
    statements = _rows(box, method, shown)
    if hidden:
        statements.insert(CONTEXT_RADIUS, f"... {hidden} kept line(s) not shown")
    return {
        "method": str(method),
        "line": line,
        "var": var,
        "kept_lines": result.kept_lines,
        "removed_count": result.removed_count,
        "statements": statements,
    }


# The model's action space: name -> (size argument, its ceiling, tool
# function).  The prompt `trace_system.txt` lists the same names in the same
# order.
TOOLS = {
    "extract_context": ("radius", CONTEXT_RADIUS, _context),
    "trigger_paths": ("max_depth", TRIGGER_DEPTH, _triggers),
    "taint_reachability": (None, None, _taint),
    "backward_slice": (None, None, _slice),
}


def trace_candidate(toolbox: ToolBox, router: ModelRouter, budget: int) -> ToolBox:
    """Run the box's session of at most `budget` exchanges; return the box."""
    candidate, signal = toolbox.site, toolbox.signal
    payload = {
        "candidate": candidate.render(),
        "method": str(candidate.method),
        "line": candidate.line,
        "callee": str(candidate.callee),
        "result_var": candidate.result_var,
        "permission": signal.permission,
        "severity": signal.severity,
    }
    system = _template("trace_system.txt").substitute()
    task = _template("trace_task.txt").substitute(payload=_render(payload))
    messages: list[tuple[str, str]] = [("system", system), ("user", task)]

    for _step in range(budget):
        exchange = router.complete("trace", messages)
        toolbox.ledger.append(exchange)
        messages.append(("assistant", exchange.response))
        action, args = _parse_action(exchange.response)
        if action == "conclude":
            break
        if action in TOOLS:
            try:
                _obs, observation = toolbox.dispatch(action, args)
            except ToolError as exc:
                # a tool refusing a live model's arguments is session noise;
                # any other error is a fault of the program and ends the app
                observation = _render({"tool": action, "error": "ToolError", "message": str(exc)})
        else:
            # an invalid action corrects the model and still consumes budget
            observation = _render({"tool": action, "error": "UnknownTool",
                                   "message": f"choose one of {', '.join([*TOOLS, 'conclude'])}"})
        messages.append(("user", observation))

    toolbox.transcript = tuple(messages)
    return toolbox


def _parse_action(response: str) -> tuple[str, dict]:
    try:
        obj = json.loads(response)
        action = str(obj["action"])
        args = obj.get("args") or {}
        return action, args if isinstance(args, dict) else {}
    except (ValueError, KeyError, TypeError, RecursionError):
        return "__unparseable__", {}


# ---------------------------------------------------------------------------
# tier 3: verdict fusion
# ---------------------------------------------------------------------------


def adjudicate(
    recon: ReconReport,
    boxes: list[ToolBox],
    router: ModelRouter,
    ledger: CostLedger,
    app_id: str,
) -> VerdictReport:
    payload = {
        "app_id": app_id,
        "signals": [
            {"permission": s.permission, "severity": s.severity} for s in recon.risk_signals
        ],
        "vectors": [
            {
                "candidate": box.site.render(),
                "source_class": box.site.callee.class_name,
                "trigger": box.trigger_kind,
                "sink": box.sink_category,
                "hits": box.hit_count,
                "severity": box.signal.severity,
                "permission": box.signal.permission,
            }
            for box in boxes
        ],
    }
    prompt = _template("verdict.txt").substitute(
        payload=json.dumps(payload, separators=(",", ":"), sort_keys=True)
    )
    messages = [("user", prompt)]
    known = {box.site.render() for box in boxes}
    last_error = ""
    for attempt in range(2):
        exchange = router.complete("verdict", messages)
        ledger.append(exchange)
        try:
            return _parse_verdict(exchange.response, app_id, known)
        except SchemaViolationError as exc:
            last_error = str(exc)
    raise SchemaViolationError(f"verdict failed schema validation twice: {last_error}")


def _parse_verdict(response: str, app_id: str, known_candidates: set[str]) -> VerdictReport:
    try:
        obj = json.loads(response)
    except (ValueError, TypeError, RecursionError) as exc:
        raise SchemaViolationError(f"not JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise SchemaViolationError("verdict must be a JSON object")
    required = {"verdict", "threat_category", "confidence", "evidence_chain", "rationale"}
    missing = required - obj.keys()
    if missing:
        raise SchemaViolationError(f"missing fields {sorted(missing)}")
    verdict = obj["verdict"]
    if verdict not in ("Benign", "Malicious"):
        raise SchemaViolationError(f"bad verdict {verdict!r}")
    try:
        confidence = float(obj["confidence"])
    except (TypeError, ValueError, OverflowError):
        raise SchemaViolationError("confidence not a number") from None
    if not (0.0 <= confidence <= 1.0):
        raise SchemaViolationError("confidence outside [0,1]")
    chain_raw = obj["evidence_chain"]
    if not isinstance(chain_raw, list):
        raise SchemaViolationError("evidence_chain must be a list")
    chain = []
    for item in chain_raw:
        if not isinstance(item, dict) or not {"candidate", "trigger", "sink", "rationale"} <= item.keys():
            raise SchemaViolationError("bad evidence_chain item")
        if not isinstance(item["candidate"], str) or item["candidate"] not in known_candidates:
            raise SchemaViolationError(f"evidence ref {item['candidate']!r} matches no vector")
        chain.append(
            EvidenceRef(
                str(item["candidate"]), str(item["trigger"]),
                str(item["sink"]), str(item["rationale"]),
            )
        )
    if verdict == "Malicious" and not chain:
        raise SchemaViolationError("malicious verdict without evidence chain")
    return VerdictReport(
        app_id=app_id,
        verdict=verdict,
        threat_category=str(obj["threat_category"]),
        confidence=confidence,
        evidence_chain=chain,
        rationale=str(obj["rationale"]),
    )


# ---------------------------------------------------------------------------
# end-to-end pipeline
# ---------------------------------------------------------------------------


@dataclass
class Catalogs:
    api: ApiCatalog
    entry: EntryCatalog


@contextmanager
def _stage(tier: str):
    """Re-raise a TriageError of the block as its own class, with `[tier]` in
    front of its message, so the error keeps its kind."""
    try:
        yield
    except TriageError as exc:
        raise type(exc)(f"[{tier}] {exc}") from exc


# Most calls of one `overlap_map` that run at once. A constant, so neither a
# cap, a dataset's size nor a model reply can raise the thread count.
MAX_THREADS = 8


def overlap_map(router: ModelRouter, fn: Callable, items: Sequence) -> list:
    """`list(map(fn, items))`, overlapped on at most `MAX_THREADS` threads only
    while the router's provider waits on the network.  Either way, results keep
    input order and the first error in input order is the one raised."""
    if router.waits_on_network and len(items) > 1:
        with ThreadPoolExecutor(min(len(items), MAX_THREADS)) as pool:
            return list(pool.map(fn, items))
    return list(map(fn, items))


def run_pipeline(
    bundle: AppBundle,
    catalogs: Catalogs,
    router: ModelRouter,
    budgets: PipelineBudgets | None = None,
    ledger: CostLedger | None = None,
) -> tuple[VerdictReport, CostLedger]:
    budgets = budgets or PipelineBudgets()
    ledger = CostLedger() if ledger is None else ledger
    graph = build_call_graph(bundle.program)
    api_index = build_api_index(bundle.program, catalogs.api)
    entry_catalog = catalogs.entry.bound(bundle.manifest)

    with _stage("recon"):
        recon = recon_screen(
            bundle.manifest, api_index, catalogs.api, router,
            budgets.candidate_cap, ledger,
        )

    # Each session meters into its own box's ledger, so boxes, joined ledger
    # and error are the same whether the sessions overlap or not.
    boxes = [ToolBox(bundle, graph, catalogs.api, entry_catalog, site, signal)
             for site, signal in recon.candidates.items()]
    try:
        with _stage("trace"):
            overlap_map(router, lambda box: trace_candidate(box, router, budgets.max_iterations),
                        boxes)
    finally:  # a failed session's spend, and its siblings', stays metered
        ledger.extend(box.ledger for box in boxes)

    with _stage("verdict"):
        report = adjudicate(recon, boxes, router, ledger, bundle.app_id)
    return report, ledger
