"""Pluggable model backend with per-tier routing and cost metering.

Two providers share one interface: a live HTTP provider speaking the common
JSON chat-completions shape, and a scripted provider whose replies depend only
on the prompt, used for offline, reproducible runs.  Scripted usage is counted
with the reference whitespace tokenizer (`str.split`); live usage is taken from
the provider verbatim.  The router times every exchange alike.  Once an app
ends, its ledger keeps each exchange's tier, model, reply, usage and latency.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from collections.abc import Iterable
from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal, InvalidOperation
from threading import Lock

from .errors import ConfigError, ProviderUnavailableError, SchemaError

TIERS = ("recon", "trace", "verdict")

_USD_Q = Decimal("0.000001")
_MILLION = Decimal(1_000_000)


def count_tokens(text: str) -> int:
    """Reference tokenizer: whitespace-delimited chunks."""
    return len(text.split())


@dataclass(frozen=True)
class Exchange:
    """One metered call.  It keeps no messages: a trace session's are its transcript."""
    tier: str
    response: str
    input_tokens: int
    output_tokens: int
    model_id: str
    latency_s: float

    def __post_init__(self):
        if self.input_tokens < 0 or self.output_tokens < 0:
            raise ValueError("usage counts must be >= 0")


def _price(name: str, value: str | Decimal) -> Decimal:
    try:
        price = Decimal(str(value))
    except InvalidOperation:
        raise ConfigError(f"{name} must be a decimal, got {value!r}") from None
    if not (price.is_finite() and price >= 0):
        raise ConfigError(f"{name} must be at least 0, got {value}")
    return price


@dataclass
class PricingTable:
    """USD per million input/output tokens, by model id."""

    rates: dict[str, tuple[Decimal, Decimal]] = field(default_factory=dict)

    def set(self, model_id: str, usd_in: str | Decimal, usd_out: str | Decimal) -> None:
        self.rates[model_id] = (_price("price_in", usd_in), _price("price_out", usd_out))

    def rate(self, model_id: str) -> tuple[Decimal, Decimal]:
        try:
            return self.rates[model_id]
        except KeyError:
            raise ConfigError(f"no pricing configured for model {model_id!r}") from None


class CostLedger:
    """Append-only exchange log with per-tier running totals: all that an app
    keeps of its model calls once it ends.  Appends are atomic, and the totals
    always match a recount of the exchange list exactly.
    """

    def __init__(self) -> None:
        self._lock = Lock()
        self.exchanges: list[Exchange] = []
        self.totals: dict[str, list[int]] = {t: [0, 0] for t in TIERS}

    def append(self, exchange: Exchange) -> None:
        if exchange.tier not in TIERS:
            raise ValueError(f"unknown tier {exchange.tier!r}")
        with self._lock:
            self.exchanges.append(exchange)
            self.totals[exchange.tier][0] += exchange.input_tokens
            self.totals[exchange.tier][1] += exchange.output_tokens

    def extend(self, ledgers: Iterable[CostLedger]) -> None:
        for ledger in ledgers:
            for exchange in ledger.exchanges:
                self.append(exchange)

    def tier_tokens(self, tier: str) -> int:
        a, b = self.totals[tier]
        return a + b

    @property
    def total_tokens(self) -> int:
        return sum(self.tier_tokens(t) for t in TIERS)


def cost_of(ledger: CostLedger, pricing: PricingTable) -> dict:
    """Per-tier and total USD as exact decimals.

    Token counts are integers and prices decimal literals, so every figure
    is exact (and doubling usage doubles cost exactly); `format_usd` rounds
    to six places for presentation only.
    """
    per_tier_in = {t: Decimal(0) for t in TIERS}
    per_tier_out = {t: Decimal(0) for t in TIERS}
    for ex in ledger.exchanges:
        p_in, p_out = pricing.rate(ex.model_id)
        per_tier_in[ex.tier] += Decimal(ex.input_tokens) * p_in / _MILLION
        per_tier_out[ex.tier] += Decimal(ex.output_tokens) * p_out / _MILLION
    input_usd = sum(per_tier_in.values(), Decimal(0))
    output_usd = sum(per_tier_out.values(), Decimal(0))
    return {
        "per_tier": {t: per_tier_in[t] + per_tier_out[t] for t in TIERS},
        "input": input_usd,
        "output": output_usd,
        "total": input_usd + output_usd,
    }


def format_usd(x: Decimal) -> str:
    return str(x.quantize(_USD_Q, rounding=ROUND_HALF_EVEN))


def tier_shares(ledger: CostLedger) -> dict[str, float]:
    total = ledger.total_tokens
    if total <= 0:
        raise ValueError("no tokens metered")
    return {t: ledger.tier_tokens(t) / total for t in TIERS}


# ---------------------------------------------------------------------------
# providers
# ---------------------------------------------------------------------------


def check_floors(obj, floors: dict[str, int]) -> None:
    """Raise ConfigError unless each named field of `obj` is at least its floor."""
    for name, floor in floors.items():
        value = getattr(obj, name)
        if not value >= floor:  # also rejects NaN
            raise ConfigError(f"{name} must be at least {floor}, got {value}")


MAX_WAIT_S = 86_400  # a day, the longest backoff or timeout a policy may set


@dataclass
class RetryPolicy:
    count: int = 2
    backoff_s: float = 0.5
    timeout_s: float = 30.0

    def __post_init__(self):
        check_floors(self, {"count": 0, "backoff_s": 0})
        if not self.timeout_s > 0:
            raise ConfigError(f"timeout_s must be above 0, got {self.timeout_s}")
        for key, value in (("backoff_s", self.backoff_s), ("timeout_s", self.timeout_s)):
            if not value <= MAX_WAIT_S:  # also inf: sleep and settimeout overflow on it
                raise ConfigError(f"{key} must be at most {MAX_WAIT_S}, got {value}")


@dataclass
class ModelConfig:
    base_url: str = ""
    api_key_env: str = ""


@dataclass
class RouterConfig:
    tier_models: dict[str, str]
    models: dict[str, ModelConfig]
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self):
        missing = [t for t in TIERS if t not in self.tier_models]
        if missing:
            raise ConfigError(f"tiers without a model: {missing}")
        for tier, model_id in self.tier_models.items():
            if model_id not in self.models:
                raise ConfigError(f"tier {tier} routed to unconfigured model {model_id}")


class HttpProvider:
    """Chat-completions client.

    Transient failures (timeouts, connection errors, 429/5xx, malformed
    success bodies) are retried per the policy and surface as a
    ProviderUnavailableError or SchemaError once retries are exhausted;
    non-transient HTTP statuses fail immediately.  Between attempts it waits
    out a 429 or 503's `Retry-After` seconds, capped at `timeout_s`, and
    otherwise sleeps a uniform draw from `[0, backoff_s * attempt number]`, so
    concurrent sessions do not retry in step.
    """

    TRANSIENT_STATUSES = (429, 500, 502, 503, 504)
    # each call blocks on a round trip, so calls from several threads overlap
    waits_on_network = True

    def __init__(self, config: ModelConfig, retry: RetryPolicy):
        self.config = config
        self.retry = retry

    def chat(self, model_id: str, tier: str, messages: list[tuple[str, str]]):
        body = {
            "model": model_id,
            "messages": [{"role": role, "content": text} for role, text in messages],
        }
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.config.api_key_env) if self.config.api_key_env else None
        if key:
            headers["Authorization"] = f"Bearer {key}"
        url = self.config.base_url.rstrip("/") + "/chat/completions"
        last_exc: ProviderUnavailableError | SchemaError | None = None
        for attempt in range(self.retry.count + 1):
            delay = None
            try:
                status, data, retry_after = self._post(url, body, headers)
            except ProviderUnavailableError as exc:
                last_exc = exc
            else:
                if status in self.TRANSIENT_STATUSES:
                    last_exc = _http_error(status, "transient provider failure")
                    if status in (429, 503):
                        delay = _retry_after(retry_after, self.retry.timeout_s)
                elif status != 200:
                    raise _http_error(status, data.decode("utf-8", "replace")[:200])
                else:
                    try:
                        return self._parse(data)
                    except SchemaError as exc:
                        last_exc = exc
            if attempt < self.retry.count:
                if delay is None:
                    delay = random.uniform(0, self.retry.backoff_s * (attempt + 1))
                time.sleep(delay)
        assert last_exc is not None
        raise last_exc

    def _post(self, url: str, body: dict, headers: dict) -> tuple[int, bytes, str | None]:
        """One POST: its status, its body and its `Retry-After` header.  A
        transport failure raises ProviderUnavailableError."""
        # imported on the first request: with the TLS and e-mail modules they
        # load, they would cost every scripted process about 50 ms and 6 MB
        import http.client
        import urllib.error
        import urllib.request

        try:
            request = urllib.request.Request(url, json.dumps(body).encode(), headers)
            try:
                with urllib.request.urlopen(request, timeout=self.retry.timeout_s) as resp:
                    return resp.status, resp.read(), resp.headers.get("Retry-After")
            except urllib.error.HTTPError as exc:  # every status outside 2xx
                with exc:
                    return exc.code, exc.read(), exc.headers.get("Retry-After")
        except (OSError, http.client.HTTPException, ValueError) as exc:
            # a read timeout is raw; urlopen wraps a connect timeout in URLError.reason
            if isinstance(getattr(exc, "reason", exc), TimeoutError):
                raise ProviderUnavailableError(f"timeout after {self.retry.timeout_s}s") from None
            raise _http_error(None, str(exc)) from None

    @staticmethod
    def _parse(data: bytes) -> tuple[str, int, int]:
        try:
            payload = json.loads(data)
            content = payload["choices"][0]["message"]["content"]
            usage = payload.get("usage", {})  # AttributeError below if not an object
            counts = usage.get("prompt_tokens", 0), usage.get("completion_tokens", 0)
            if not isinstance(content, str) or not all(type(n) is int and n >= 0 for n in counts):
                raise ValueError("content must be a string, token counts integers >= 0")
            return content, *counts
        except (KeyError, IndexError, TypeError, ValueError, AttributeError, RecursionError) as exc:
            raise SchemaError(f"malformed chat-completions response: {exc}") from None


def _http_error(status: int | None, message: str) -> ProviderUnavailableError:
    return ProviderUnavailableError(f"http error (status={status}) {message}".strip())


def _retry_after(value: str | None, cap: float) -> float | None:
    """A `Retry-After` header's delay in seconds (RFC 9110 §10.2.3), at most
    `cap`; None for a missing, HTTP-date or unparsable value."""
    try:
        delay = float(value)
    except (TypeError, ValueError):
        return None
    return min(delay, cap) if math.isfinite(delay) and delay >= 0 else None


class ModelRouter:
    """Resolves a tier to a model and provider, and stamps exchanges."""

    def __init__(self, config: RouterConfig, providers: dict[str, object]):
        self.config = config
        self.providers = providers

    @property
    def waits_on_network(self) -> bool:
        """Whether the trace tier's provider blocks on I/O; in-process providers
        (the scripted one) hold the interpreter lock and do not say so."""
        provider = self.providers[self.config.tier_models["trace"]]
        return getattr(provider, "waits_on_network", False)

    def complete(self, tier: str, messages: list[tuple[str, str]]) -> Exchange:
        if tier not in TIERS:
            raise ValueError(f"unknown tier {tier!r}")
        if not messages:
            raise ValueError("messages must be nonempty")
        model_id = self.config.tier_models[tier]
        provider = self.providers[model_id]
        start = time.monotonic()
        response, in_tok, out_tok = provider.chat(model_id, tier, list(messages))
        latency = time.monotonic() - start
        return Exchange(
            tier=tier,
            response=response,
            input_tokens=in_tok,
            output_tokens=out_tok,
            model_id=model_id,
            latency_s=latency,
        )
