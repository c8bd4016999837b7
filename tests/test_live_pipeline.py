"""End-to-end pipeline over the HTTP provider.

An in-process server answers chat-completions requests by delegating to the
scripted policy, so live-mode request building and response parsing are
exercised across all three tiers and must reproduce the scripted verdicts.
The server answers each request on its own thread, so the candidate sessions
the HTTP provider runs concurrently really overlap.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from droidtriage import agents
from droidtriage.agents import Catalogs, run_pipeline
from droidtriage.backend import (TIERS, HttpProvider, ModelConfig, ModelRouter, RetryPolicy,
                                 RouterConfig)
from droidtriage.config import load_config
from droidtriage.ir import parse_bundle
from droidtriage.scripted import ScriptedProvider

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CFG = load_config()


class _ModelHandler(BaseHTTPRequestHandler):
    """Serves the scripted policy over the chat-completions wire shape."""

    scripted = ScriptedProvider()
    received: list[tuple[str, tuple]] = []  # (tier, messages) of each request

    def do_POST(self):  # noqa: N802  (http.server API)
        length = int(self.headers["Content-Length"])
        request = json.loads(self.rfile.read(length))
        messages = [(m["role"], m["content"]) for m in request["messages"]]
        tier = _tier_of(messages)
        self.received.append((tier, tuple(messages)))
        text, in_tok, out_tok = self.scripted.chat(request["model"], tier, messages)
        body = json.dumps(
            {
                "choices": [{"message": {"role": "assistant", "content": text}}],
                "usage": {"prompt_tokens": in_tok, "completion_tokens": out_tok},
            }
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def _tier_of(messages) -> str:
    # infer the tier from the prompt surface, as a live gateway would not
    # need to: trace sessions carry the forensic system prompt, recon and
    # verdict prompts differ in their payload keys
    if messages and messages[0][0] == "system":
        return "trace"
    text = messages[-1][1]
    return "verdict" if '"vectors":' in text else "recon"


@pytest.fixture(scope="module")
def model_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ModelHandler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


def _live_router(base_url: str) -> ModelRouter:
    mc = ModelConfig(base_url=base_url)
    config = RouterConfig(
        tier_models={"recon": "live-m", "trace": "live-m", "verdict": "live-m"},
        models={"live-m": mc},
        retry=RetryPolicy(count=1, backoff_s=0.0, timeout_s=5.0),
    )
    return ModelRouter(config, {"live-m": HttpProvider(mc, config.retry)})


def _bundle(app_id: str):
    d = FIXTURES / app_id
    return parse_bundle(
        (d / "app.mmf").read_text(), (d / "app.mir").read_text(), app_id=app_id
    )


class _Recording(ScriptedProvider):
    def __init__(self):
        super().__init__()
        self.sent: list[tuple[str, tuple]] = []  # (tier, messages) of each call

    def chat(self, model_id, tier, messages):
        self.sent.append((tier, tuple(messages)))
        return super().chat(model_id, tier, messages)


def _exchanges(ledger, calls, boxes) -> list[tuple]:
    """Each exchange of one app with the messages its call sent.  The ledger
    holds recon, each session in candidate order, then verdict; a stable sort
    puts the calls in that order, since each session's calls come in turn."""
    tasks = [box.transcript[1] for box in boxes]
    calls = sorted(calls, key=lambda c: (TIERS.index(c[0]),
                                         tasks.index(c[1][1]) if c[0] == "trace" else 0))
    return [(e.tier, tier, messages, e.response, e.input_tokens, e.output_tokens)
            for (tier, messages), e in zip(calls, ledger.exchanges, strict=True)]


def test_live_pipeline_matches_scripted_verdicts(model_server, monkeypatch):
    catalogs = Catalogs(CFG.api_catalog, CFG.entry_catalog)
    live = _live_router(model_server)
    recorder = _Recording()
    scripted = CFG.build_router("scripted")
    scripted = ModelRouter(scripted.config, {m: recorder for m in scripted.providers})
    assert live.waits_on_network and not scripted.waits_on_network
    boxes = []  # what each run handed the verdict tier
    adjudicate = agents.adjudicate

    def recording(recon, handed, *rest):
        boxes.append(handed)
        return adjudicate(recon, handed, *rest)

    monkeypatch.setattr(agents, "adjudicate", recording)
    for app in ("fx_clean", "fx_smsleak", "fx_idsave", "fx_spyloc"):
        _ModelHandler.received.clear()
        recorder.sent.clear()
        live_report, live_ledger = run_pipeline(_bundle(app), catalogs, live)
        ref_report, ref_ledger = run_pipeline(_bundle(app), catalogs, scripted)
        *_, live_boxes, ref_boxes = boxes
        assert live_report.verdict == ref_report.verdict, app
        assert live_report.threat_category == ref_report.threat_category
        assert live_report.confidence == ref_report.confidence
        assert [r.candidate for r in live_report.evidence_chain] == [
            r.candidate for r in ref_report.evidence_chain
        ]
        # provider-reported usage flows through verbatim and matches the
        # reference tokenizer the stub used
        assert live_ledger.totals == ref_ledger.totals
        # concurrent sessions join the ledger in candidate order: the same
        # exchanges as the sequential scripted run, one for one
        assert (_exchanges(live_ledger, _ModelHandler.received, live_boxes)
                == _exchanges(ref_ledger, recorder.sent, ref_boxes))
        assert live_report.to_json() == ref_report.to_json()


def test_live_pipeline_tier_split(model_server):
    catalogs = Catalogs(CFG.api_catalog, CFG.entry_catalog)
    _report, ledger = run_pipeline(_bundle("fx_smsleak"), catalogs, _live_router(model_server))
    assert ledger.tier_tokens("trace") > ledger.tier_tokens("recon")
    assert all(ex.model_id == "live-m" for ex in ledger.exchanges)
    assert all(ex.latency_s >= 0.0 for ex in ledger.exchanges)
