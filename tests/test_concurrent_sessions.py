"""Candidate sessions on a provider that waits on the network.

`run_pipeline` overlaps the sessions on a bounded pool when the trace tier's
provider says it waits on the network, and must then give the boxes,
ledger, report and errors of the sequential loop the scripted provider uses.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import pytest

from droidtriage import agents
from droidtriage.agents import (
    MAX_THREADS,
    Catalogs,
    PipelineBudgets,
    recon_screen,
    run_pipeline,
)
from droidtriage.backend import (TIERS, CostLedger, HttpProvider, ModelConfig, ModelRouter,
                                 RouterConfig)
from droidtriage.config import load_config
from droidtriage.errors import ProviderUnavailableError
from droidtriage.index import build_api_index
from droidtriage.ir import parse_bundle
from droidtriage.scripted import ScriptedProvider

from oracles import recomputed_totals

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CFG = load_config()
CATALOGS = Catalogs(CFG.api_catalog, CFG.entry_catalog)


def _fixture(app_id: str):
    d = FIXTURES / app_id
    return parse_bundle((d / "app.mmf").read_text(), (d / "app.mir").read_text(), app_id=app_id)


def _candidates(bundle, cap: int = 15) -> list[str]:
    index = build_api_index(bundle.program, CFG.api_catalog)
    recon = recon_screen(bundle.manifest, index, CFG.api_catalog,
                         CFG.build_router("scripted"), cap, CostLedger())
    return [site.render() for site in recon.candidates]


class SlowScripted(ScriptedProvider):
    """The scripted policy behind a sleep, as a network client would wait.

    A trace reply for the i-th of n candidates waits (n - i) ticks, so later
    candidates are answered faster and their sessions finish first. The
    session at `fail_at`, if any, raises `ProviderUnavailableError` on its
    exchange after `fail_after` replies.
    """

    waits_on_network = True
    TICK_S = 0.004

    def __init__(self, candidates: list[str], fail_at: int | None = None, fail_after: int = 0):
        super().__init__()
        self.candidates = candidates
        self.fail_at = fail_at
        self.fail_after = fail_after
        # (tier, candidate index of a trace call or None, messages) of each
        # call answered, in reply order
        self.sent: list[tuple[str, int | None, tuple]] = []
        self._lock = threading.Lock()

    @property
    def answered(self) -> list[int]:
        """The candidate index of each trace reply, in reply order."""
        return [i for tier, i, _messages in self.sent if tier == "trace"]

    def session_of(self, messages) -> int:
        task = messages[1][1]
        return next(i for i, c in enumerate(self.candidates)
                    if f'"candidate": {json.dumps(c)}' in task)

    def chat(self, model_id, tier, messages):
        i = None
        if tier == "trace":
            i = self.session_of(messages)
            time.sleep(self.TICK_S * (len(self.candidates) - i))
            replies = sum(role == "assistant" for role, _text in messages)
            if i == self.fail_at and replies == self.fail_after:
                raise ProviderUnavailableError(f"session {i} lost its connection")
        with self._lock:
            self.sent.append((tier, i, tuple(messages)))
        return super().chat(model_id, tier, messages)


class SequentialSlowScripted(SlowScripted):
    waits_on_network = False


def _router(provider) -> ModelRouter:
    config = RouterConfig(
        tier_models={"recon": "m", "trace": "m", "verdict": "m"},
        models={"m": ModelConfig()},
    )
    return ModelRouter(config, {"m": provider})


def _run(bundle, provider, monkeypatch, budgets: PipelineBudgets | None = None):
    """Report, ledger and the boxes handed to the verdict tier."""
    seen = []
    adjudicate = agents.adjudicate

    def recording(recon, boxes, *rest):
        seen.append(list(boxes))
        return adjudicate(recon, boxes, *rest)

    monkeypatch.setattr(agents, "adjudicate", recording)
    report, ledger = run_pipeline(bundle, CATALOGS, _router(provider), budgets)
    return report, ledger, seen[0]


def _exchanges(ledger: CostLedger, provider: SlowScripted) -> list[tuple]:
    """Each exchange in ledger order, with the candidate index and messages the
    provider received for it.  The ledger holds recon, then each session in
    candidate order, then verdict; a stable sort puts the calls, recorded in
    reply order, in that order, since each session's calls come in turn."""
    sent = sorted(provider.sent, key=lambda call: (TIERS.index(call[0]), call[1]))
    return [(ex.tier, i, messages, ex.response, ex.input_tokens, ex.output_tokens, ex.model_id)
            for (_tier, i, messages), ex in zip(sent, ledger.exchanges, strict=True)]


def _evidence(box) -> tuple:
    """What a session found: its site and signal, best chain, hits with their
    witnesses, and transcript."""
    hits = None if box.taint is None else [
        (h.site, h.category, h.tainted_arg, h.witness) for h in box.taint]
    best = None if box.chains is None else box.chains.best()
    return box.site, box.signal, best, hits, box.transcript


def test_router_gate_is_the_trace_providers_own_fact():
    assert HttpProvider.waits_on_network is True
    assert not CFG.build_router("scripted").waits_on_network
    assert _router(SlowScripted([])).waits_on_network
    assert not _router(SequentialSlowScripted([])).waits_on_network


def test_out_of_order_sessions_match_sequential_run(monkeypatch):
    bundle = _fixture("fx_spyloc")
    candidates = _candidates(bundle)
    assert len(candidates) == 3

    threaded = SlowScripted(candidates)
    report, ledger, boxes = _run(bundle, threaded, monkeypatch)
    sequential = SequentialSlowScripted(candidates)
    ref_report, ref_ledger, ref_boxes = _run(bundle, sequential, monkeypatch)

    # the sessions overlapped, and the last candidate's session finished
    # before the first one's
    assert sequential.answered == sorted(sequential.answered)
    last = {i: pos for pos, i in enumerate(threaded.answered)}
    assert last[2] < last[0]

    assert [box.site.render() for box in boxes] == candidates
    assert [_evidence(box) for box in boxes] == [_evidence(box) for box in ref_boxes]
    assert _exchanges(ledger, threaded) == _exchanges(ref_ledger, sequential)
    assert ledger.totals == ref_ledger.totals == recomputed_totals(ledger)
    assert report.to_json() == ref_report.to_json()


def test_failed_session_raises_the_sequential_error(monkeypatch):
    bundle = _fixture("fx_spyloc")
    candidates = _candidates(bundle)
    errors = []
    for provider in (SlowScripted(candidates, fail_at=1),
                     SequentialSlowScripted(candidates, fail_at=1)):
        with pytest.raises(ProviderUnavailableError) as exc:
            run_pipeline(bundle, CATALOGS, _router(provider))
        assert exc.value.kind == "provider-unavailable"
        errors.append(str(exc.value))
    assert errors[0] == errors[1] == "[trace] session 1 lost its connection"


def test_failed_session_keeps_its_and_its_siblings_spend():
    bundle = _fixture("fx_spyloc")
    candidates = _candidates(bundle)
    whole = SlowScripted(candidates)
    _report, whole_ledger = run_pipeline(bundle, CATALOGS, _router(whole))
    expected = _exchanges(whole_ledger, whole)
    failed_session = [ex for ex in expected if ex[:2] == ("trace", 1)]
    assert len(failed_session) > 2
    expected = [ex for ex in expected if ex[0] != "verdict" and ex not in failed_session[2:]]

    provider = SlowScripted(candidates, fail_at=1, fail_after=2)
    ledger = CostLedger()
    with pytest.raises(ProviderUnavailableError):
        run_pipeline(bundle, CATALOGS, _router(provider), ledger=ledger)
    # the overlapped siblings ran to their ends; the failed session kept the
    # two exchanges it had
    assert _exchanges(ledger, provider) == expected
    assert ledger.totals == recomputed_totals(ledger)


def _wide_bundle(n_calls: int):
    """An app whose one receiver reads the SMS body `n_calls` times."""
    manifest = ("package: com.wide\ncategory: battery optimizer\ndescription: d\n"
                "permission:READ_SMS\n"
                "component:Receiver:com.wide.R:action=SMS_RECEIVED\n")
    body = "".join(f"    b{i} = call android.telephony.SmsMessage.getMessageBody()->string()\n"
                   for i in range(n_calls))
    ir = ("class com.wide.R extends android.content.BroadcastReceiver {\n"
          "  method com.wide.R.onReceive(context,intent)->void (ctx,it) {\n"
          f"{body}    return\n  }}\n}}\n")
    return parse_bundle(manifest, ir, app_id="wide")


class CountingProvider(ScriptedProvider):
    """Concludes every session at once, after a wait; records how many trace
    calls were in flight at the same time."""

    waits_on_network = True

    def __init__(self):
        super().__init__()
        self.in_flight = 0
        self.peak = 0
        self._lock = threading.Lock()

    def chat(self, model_id, tier, messages):
        if tier != "trace":
            return super().chat(model_id, tier, messages)
        with self._lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(0.005)
        finally:
            with self._lock:
                self.in_flight -= 1
        # the reply names the session's line, so the ledger shows whose it is
        summary = f"line {_line(messages[1][1])}"
        return json.dumps({"thought": "", "action": "conclude", "args": {"summary": summary}}), 3, 3


def _line(task: str) -> int:
    """The candidate line in a trace task's payload."""
    return json.loads(task.split("```json")[1].split("```")[0])["line"]


def test_session_threads_bounded_by_the_constant(monkeypatch):
    n = 40
    bundle = _wide_bundle(n)
    provider = CountingProvider()
    baseline = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # more thread switches inside the pool and the ledger
    try:
        report, ledger, boxes = _run(bundle, provider, monkeypatch,
                                     PipelineBudgets(candidate_cap=n))
    finally:
        sys.setswitchinterval(interval)
    # the sessions, and their exchanges in the ledger, come in candidate order
    assert [_line(box.transcript[1][1]) for box in boxes] == list(range(1, n + 1))
    traced = [ex for ex in ledger.exchanges if ex.tier == "trace"]
    assert [ex.response for ex in traced] == [box.transcript[2][1] for box in boxes]
    assert ledger.totals == recomputed_totals(ledger)
    assert 1 < provider.peak <= MAX_THREADS
    assert provider.in_flight == 0
    assert threading.active_count() == baseline
    assert report.app_id == "wide"
