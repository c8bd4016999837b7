"""Ledger accounting, pricing arithmetic, routing and both providers."""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from decimal import Decimal
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from droidtriage import backend
from droidtriage.backend import (
    CostLedger,
    Exchange,
    HttpProvider,
    ModelConfig,
    ModelRouter,
    PricingTable,
    RetryPolicy,
    RouterConfig,
    cost_of,
    count_tokens,
    tier_shares,
)
from droidtriage.errors import ConfigError, ProviderUnavailableError, SchemaError
from droidtriage.scripted import ScriptedProvider

from oracles import recomputed_totals


def _exchange(tier, in_tok, out_tok, model="m") -> Exchange:
    return Exchange(tier=tier, response="ok", input_tokens=in_tok, output_tokens=out_tok,
                    model_id=model, latency_s=0.0)


# -- tokenizer / ledger -------------------------------------------------------


def test_whitespace_tokenizer():
    assert count_tokens("one two  three\nfour") == 4
    assert count_tokens("") == 0


def test_scripted_usage_follows_reference_tokenizer():
    provider = ScriptedProvider()
    prompt = "judge this please\n```json\n{\"category\":\"x\",\"permissions\":[]}\n```"
    response, in_tok, out_tok = provider.chat("m", "recon", [("user", prompt)])
    assert in_tok == count_tokens(prompt)
    assert out_tok == count_tokens(response)


def test_ledger_totals_match_recomputation():
    ledger = CostLedger()
    ledger.append(_exchange("recon", 10, 2))
    ledger.append(_exchange("trace", 100, 20))
    ledger.append(_exchange("trace", 50, 5))
    ledger.append(_exchange("verdict", 7, 3))
    assert ledger.totals == recomputed_totals(ledger)
    assert ledger.total_tokens == 197
    assert ledger.tier_tokens("trace") == 175

    # extending appends each ledger's exchanges in order, through `append`
    first, second = CostLedger(), CostLedger()
    first.append(_exchange("verdict", 1, 1))
    second.append(_exchange("trace", 4, 0))
    second.append(_exchange("recon", 0, 9))
    ledger.extend([first, CostLedger(), second])
    assert ledger.exchanges[4:] == first.exchanges + second.exchanges
    assert ledger.totals == recomputed_totals(ledger)
    assert ledger.total_tokens == 197 + 15


def test_ledger_rejects_unknown_tier():
    with pytest.raises(ValueError):
        CostLedger().append(_exchange("tier9", 1, 1))


def test_exchange_rejects_negative_usage():
    with pytest.raises(ValueError):
        Exchange(tier="trace", response="", input_tokens=-1, output_tokens=0,
                 model_id="m", latency_s=0.0)


def test_ledger_concurrent_appends_consistent():
    ledger = CostLedger()

    def add():
        for _ in range(200):
            ledger.append(_exchange("trace", 3, 1))

    threads = [threading.Thread(target=add) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(ledger.exchanges) == 1600
    assert ledger.totals == recomputed_totals(ledger)
    assert ledger.tier_tokens("trace") == 1600 * 4


# -- pricing ------------------------------------------------------------------


def test_cost_of_empty_ledger_is_zero():
    cost = cost_of(CostLedger(), PricingTable())
    assert cost["total"] == Decimal("0.000000")
    assert cost["input"] == Decimal("0.000000")


def test_cost_of_unit_example():
    ledger = CostLedger()
    ledger.append(_exchange("trace", 1_000_000, 0, "cheap"))
    pricing = PricingTable()
    pricing.set("cheap", "0.07", "1.00")
    cost = cost_of(ledger, pricing)
    assert cost["input"] == Decimal("0.070000")
    assert cost["output"] == Decimal("0.000000")
    assert cost["total"] == Decimal("0.070000")


def test_cost_of_mixed_models_matches_hand_sum():
    ledger = CostLedger()
    ledger.append(_exchange("recon", 123_456, 7_890, "a"))
    ledger.append(_exchange("trace", 987_654, 321, "b"))
    ledger.append(_exchange("trace", 1_000, 999, "a"))
    pricing = PricingTable()
    pricing.set("a", "0.11", "0.44")
    pricing.set("b", "2.50", "10.00")
    cost = cost_of(ledger, pricing)
    hand_in = (
        Decimal(123_456 + 1_000) * Decimal("0.11")
        + Decimal(987_654) * Decimal("2.50")
    ) / Decimal(1_000_000)
    hand_out = (
        Decimal(7_890 + 999) * Decimal("0.44") + Decimal(321) * Decimal("10.00")
    ) / Decimal(1_000_000)
    assert cost["input"] == hand_in
    assert cost["output"] == hand_out
    assert cost["total"] == hand_in + hand_out


def test_cost_of_unpriced_model():
    ledger = CostLedger()
    ledger.append(_exchange("trace", 1, 1, "mystery"))
    with pytest.raises(ConfigError, match="^no pricing configured for model 'mystery'$") as exc:
        cost_of(ledger, PricingTable())
    assert exc.value.kind == "config"


@given(st.lists(st.tuples(st.sampled_from(("recon", "trace", "verdict")),
                          st.integers(0, 10**6), st.integers(0, 10**5)),
                min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_cost_linearity(rows):
    pricing = PricingTable()
    pricing.set("m", "0.37", "1.13")
    single, double = CostLedger(), CostLedger()
    for tier, i, o in rows:
        single.append(_exchange(tier, i, o))
        double.append(_exchange(tier, 2 * i, 2 * o))
    c1, c2 = cost_of(single, pricing), cost_of(double, pricing)
    for key in ("input", "output", "total"):
        assert c2[key] == 2 * c1[key]
    for tier in ("recon", "trace", "verdict"):
        assert c2["per_tier"][tier] == 2 * c1["per_tier"][tier]


# -- tier shares --------------------------------------------------------------


def test_tier_shares_single_tier():
    ledger = CostLedger()
    ledger.append(_exchange("trace", 10, 5))
    assert tier_shares(ledger) == {"recon": 0.0, "trace": 1.0, "verdict": 0.0}


def test_tier_shares_example_split():
    ledger = CostLedger()
    ledger.append(_exchange("recon", 70, 30))
    ledger.append(_exchange("trace", 600, 250))
    ledger.append(_exchange("verdict", 40, 10))
    shares = tier_shares(ledger)
    assert shares == {"recon": 0.1, "trace": 0.85, "verdict": 0.05}
    assert abs(sum(shares.values()) - 1.0) < 1e-9


def test_tier_shares_empty_ledger():
    with pytest.raises(ValueError, match="^no tokens metered$"):
        tier_shares(CostLedger())


# -- router + scripted provider ----------------------------------------------


def _scripted_router() -> ModelRouter:
    config = RouterConfig(
        tier_models={"recon": "m", "trace": "m", "verdict": "m"},
        models={"m": ModelConfig()},
    )
    return ModelRouter(config, {"m": ScriptedProvider()})


def test_scripted_router_deterministic_replay():
    router = _scripted_router()
    msgs = [("user", 'check\n```json\n{"category":"game","permissions":["READ_SMS"]}\n```')]
    first = router.complete("recon", msgs)
    second = router.complete("recon", msgs)
    assert first.response == second.response
    assert (first.input_tokens, first.output_tokens) == (
        second.input_tokens,
        second.output_tokens,
    )
    assert first.latency_s >= 0.0
    payload = json.loads(first.response)
    assert payload["risk_signals"][0]["permission"] == "READ_SMS"
    assert payload["risk_signals"][0]["severity"] == "High"


def test_router_times_every_provider_alike():
    # a `deterministic` provider used to have its latency forced to 0.0
    class SlowProvider:
        deterministic = True

        def chat(self, model_id, tier, messages):
            time.sleep(0.005)
            return "{}", 1, 1

    config = RouterConfig(
        tier_models={"recon": "m", "trace": "m", "verdict": "m"},
        models={"m": ModelConfig()},
    )
    exchange = ModelRouter(config, {"m": SlowProvider()}).complete("recon", [("user", "x")])
    assert exchange.latency_s >= 0.005


def test_router_requires_all_tiers():
    with pytest.raises(ConfigError,
                       match=r"^tiers without a model: \['trace', 'verdict'\]$") as exc:
        RouterConfig(tier_models={"recon": "m"}, models={"m": ModelConfig()})
    assert exc.value.kind == "config"


def test_router_rejects_unknown_tier_call():
    router = _scripted_router()
    with pytest.raises(ValueError, match="^unknown tier 'preflight'$"):
        router.complete("preflight", [("user", "x")])


# -- live provider ------------------------------------------------------------


class _StubHandler(BaseHTTPRequestHandler):
    behaviors: list[str] = []
    seen: list[dict] = []
    keys: list[str | None] = []  # each request's Authorization header

    def do_POST(self):  # noqa: N802  (http.server API)
        length = int(self.headers["Content-Length"])
        self.seen.append(json.loads(self.rfile.read(length)))
        self.keys.append(self.headers.get("Authorization"))
        mode = self.behaviors.pop(0) if self.behaviors else "ok"
        status, _, retry_after = mode.partition(" ")  # e.g. "429 0.05"
        if status.isdigit():
            self.send_response(int(status))
            if retry_after:
                self.send_header("Retry-After", retry_after)
            self.end_headers()
            self.wfile.write(b"denied")
            return
        if mode == "malformed":
            body = b'{"nope": true}'
        elif mode == "nested":
            body = b"[" * 100_000
        elif mode.startswith("body "):  # e.g. 'body {"choices": []}'
            body = mode[5:].encode()
        else:
            body = json.dumps(
                {
                    "choices": [{"message": {"role": "assistant", "content": "pong"}}],
                    "usage": {"prompt_tokens": 11, "completion_tokens": 3},
                }
            ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    _StubHandler.behaviors = []
    _StubHandler.seen = []
    _StubHandler.keys = []
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


def _http_provider(
    base_url: str, retries: int = 1, backoff_s: float = 0.0, timeout_s: float = 2.0
) -> HttpProvider:
    return HttpProvider(
        ModelConfig(base_url=base_url),
        RetryPolicy(count=retries, backoff_s=backoff_s, timeout_s=timeout_s),
    )


@pytest.fixture()
def sleeps(monkeypatch):
    """Every wait the provider asks for, in order, without waiting."""
    waits: list[float] = []
    monkeypatch.setattr(backend.time, "sleep", waits.append)
    return waits


def test_live_provider_round_trip(stub_server):
    provider = _http_provider(stub_server)
    text, in_tok, out_tok = provider.chat(
        "live-x", "trace", [("system", "s"), ("user", "ping")]
    )
    assert (text, in_tok, out_tok) == ("pong", 11, 3)
    sent = _StubHandler.seen[0]
    assert sent["model"] == "live-x"
    assert sent["messages"] == [
        {"role": "system", "content": "s"},
        {"role": "user", "content": "ping"},
    ]


def test_live_provider_sends_bearer_key_from_env(stub_server, monkeypatch):
    monkeypatch.setenv("DROIDTRIAGE_TEST_KEY", "sekret")
    provider = HttpProvider(
        ModelConfig(base_url=stub_server, api_key_env="DROIDTRIAGE_TEST_KEY"),
        RetryPolicy(count=0, backoff_s=0.0, timeout_s=2.0),
    )
    provider.chat("live-x", "trace", [("user", "ping")])
    _http_provider(stub_server).chat("live-x", "trace", [("user", "ping")])
    assert _StubHandler.keys == ["Bearer sekret", None]


def test_live_provider_retries_transient_then_succeeds(stub_server):
    _StubHandler.behaviors = ["500"]
    provider = _http_provider(stub_server, retries=2)
    text, _i, _o = provider.chat("live-x", "trace", [("user", "ping")])
    assert text == "pong"
    assert len(_StubHandler.seen) == 2


def test_live_provider_persistent_500_raises_http_error(stub_server):
    _StubHandler.behaviors = ["500", "500", "500"]
    provider = _http_provider(stub_server, retries=2)
    with pytest.raises(ProviderUnavailableError) as exc:
        provider.chat("live-x", "trace", [("user", "ping")])
    assert exc.value.kind == "provider-unavailable"
    assert str(exc.value) == "http error (status=500) transient provider failure"


def test_live_provider_malformed_body_retried_then_schema_error(stub_server):
    _StubHandler.behaviors = ["malformed", "malformed"]
    provider = _http_provider(stub_server, retries=1)
    with pytest.raises(SchemaError):
        provider.chat("live-x", "trace", [("user", "ping")])
    assert len(_StubHandler.seen) == 2


def test_live_provider_malformed_then_ok_recovers(stub_server):
    _StubHandler.behaviors = ["malformed"]
    provider = _http_provider(stub_server, retries=1)
    text, _i, _o = provider.chat("live-x", "trace", [("user", "ping")])
    assert text == "pong"


def test_live_provider_unroutable_endpoint():
    provider = _http_provider("http://127.0.0.1:9", retries=1)
    with pytest.raises(ProviderUnavailableError, match=r"^http error \(status=None\) ") as exc:
        provider.chat("live-x", "trace", [("user", "ping")])
    assert exc.value.kind == "provider-unavailable"


def test_live_provider_silent_endpoint_times_out_each_attempt():
    with socket.socket() as listener:  # accepts connections, never answers
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        port = listener.getsockname()[1]
        provider = _http_provider(f"http://127.0.0.1:{port}", retries=2, timeout_s=0.2)
        with pytest.raises(ProviderUnavailableError, match=r"^timeout after 0\.2s$") as exc:
            provider.chat("live-x", "trace", [("user", "ping")])
        assert exc.value.kind == "provider-unavailable"
        listener.settimeout(0.5)
        attempts = 0
        try:
            while True:
                listener.accept()[0].close()
                attempts += 1
        except TimeoutError:
            pass
    assert attempts == 3


def test_live_provider_client_error_fails_at_once(stub_server, sleeps):
    _StubHandler.behaviors = ["401", "ok"]
    provider = _http_provider(stub_server, retries=2)
    with pytest.raises(ProviderUnavailableError) as exc:
        provider.chat("live-x", "trace", [("user", "ping")])
    assert exc.value.kind == "provider-unavailable"
    assert str(exc.value) == "http error (status=401) denied"
    assert len(_StubHandler.seen) == 1
    assert sleeps == []


def test_live_provider_non_200_success_status_fails_at_once(stub_server):
    _StubHandler.behaviors = ["201"]
    provider = _http_provider(stub_server, retries=2)
    with pytest.raises(ProviderUnavailableError) as exc:
        provider.chat("live-x", "trace", [("user", "ping")])
    assert exc.value.kind == "provider-unavailable"
    assert str(exc.value) == "http error (status=201) denied"
    assert len(_StubHandler.seen) == 1


def test_live_provider_waits_out_retry_after(stub_server, sleeps):
    _StubHandler.behaviors = ["429 0.05", "503 1"]
    provider = _http_provider(stub_server, retries=2, backoff_s=10.0)
    text, _i, _o = provider.chat("live-x", "trace", [("user", "ping")])
    assert text == "pong"
    assert sleeps == [0.05, 1.0]


def test_live_provider_retry_after_capped_at_timeout(stub_server, sleeps):
    _StubHandler.behaviors = ["429 120"]
    provider = _http_provider(stub_server, retries=1, timeout_s=2.0)
    provider.chat("live-x", "trace", [("user", "ping")])
    assert sleeps == [2.0]


def test_live_provider_jittered_backoff_bounds(stub_server, sleeps):
    # a Retry-After counts only on 429 and 503, and only as delay-seconds
    _StubHandler.behaviors = [
        "500", "429 Wed, 21 Oct 2015 07:28:00 GMT", "502 30", "503 -1", "429 nan"
    ]
    provider = _http_provider(stub_server, retries=5, backoff_s=0.5)
    provider.chat("live-x", "trace", [("user", "ping")])
    ceilings = [0.5 * (attempt + 1) for attempt in range(5)]
    assert len(sleeps) == 5
    assert all(0 <= wait <= ceiling for wait, ceiling in zip(sleeps, ceilings))
    assert sleeps != ceilings  # drawn, not the fixed linear backoff


def test_live_provider_nested_body_is_malformed(stub_server):
    _StubHandler.behaviors = ["nested", "nested"]
    provider = _http_provider(stub_server, retries=1)
    with pytest.raises(SchemaError):
        provider.chat("live-x", "trace", [("user", "ping")])
    assert len(_StubHandler.seen) == 2


_REPLY = '{"choices": [{"message": {"content": %s}}]%s}'
# 200 bodies whose content is not a string, whose usage is not an object, or
# whose token counts are not non-negative JSON integers
_MALFORMED_SUCCESS = {
    "content-null": _REPLY % ("null", ""),
    "content-list": _REPLY % ('["pong"]', ""),
    "usage-null": _REPLY % ('"pong"', ', "usage": null'),
    "usage-list": _REPLY % ('"pong"', ', "usage": [11, 3]'),
    "tokens-overflow": _REPLY % ('"pong"', ', "usage": {"prompt_tokens": 1e999}'),
    "tokens-negative": _REPLY % ('"pong"', ', "usage": {"completion_tokens": -5}'),
    "tokens-float": _REPLY % ('"pong"', ', "usage": {"prompt_tokens": 11.0}'),
    "tokens-string": _REPLY % ('"pong"', ', "usage": {"prompt_tokens": "11"}'),
    "tokens-bool": _REPLY % ('"pong"', ', "usage": {"completion_tokens": true}'),
}
_malformed_success = pytest.mark.parametrize(
    "body", _MALFORMED_SUCCESS.values(), ids=_MALFORMED_SUCCESS.keys())


@_malformed_success
def test_parse_rejects_malformed_success_body(body):
    with pytest.raises(SchemaError):
        HttpProvider._parse(body.encode())


def test_parse_missing_usage_counts_zero():
    assert HttpProvider._parse((_REPLY % ('"pong"', "")).encode()) == ("pong", 0, 0)
    assert HttpProvider._parse((_REPLY % ('"pong"', ', "usage": {}')).encode()) == ("pong", 0, 0)


@_malformed_success
def test_live_provider_malformed_success_body_retried_then_schema_error(stub_server, body):
    retries = 2
    _StubHandler.behaviors = ["body " + body] * (retries + 1)
    provider = _http_provider(stub_server, retries=retries)
    with pytest.raises(SchemaError):
        provider.chat("live-x", "trace", [("user", "ping")])
    assert len(_StubHandler.seen) == retries + 1


def test_import_loads_no_http_stack():
    # the HTTP client loads on the first live request, so scripted runs never pay for it
    src = str(Path(backend.__file__).resolve().parents[1])  # the package under test
    unwanted = {"requests", "urllib3", "charset_normalizer", "http.client", "ssl"}
    code = f"import sys, droidtriage.cli; print(sorted({unwanted!r} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[]"
