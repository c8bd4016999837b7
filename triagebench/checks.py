"""Correctness checks on the program's outputs.

Each check compares an output with an expectation the benchmark worked out
on its own (from how the workload was built, or from the INI file) and
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import configparser
from decimal import Decimal
from pathlib import Path

TIERS = ("recon", "trace", "verdict")


def verdicts(apps, reports: dict[str, dict]) -> list[str]:
    """Verdict equals the label; a Malicious report names the planted site."""
    problems = []
    for app in apps:
        report = reports.get(app.app_id)
        if report is None:
            problems.append(f"{app.app_id}: no report")
            continue
        if report["verdict"] != app.label:
            problems.append(f"{app.app_id}: verdict {report['verdict']}, label {app.label}")
        cited = [item["candidate"] for item in report["evidence_chain"]]
        if app.label == "Malicious" and app.planted and app.planted not in cited:
            problems.append(f"{app.app_id}: evidence chain {cited} misses {app.planted}")
    return problems


def trigger_counts(apps, observed: list[tuple[str, int]]) -> list[str]:
    """trigger_paths chain counts equal the walk counts of the construction."""
    expected = {m: n for app in apps for m, n in app.chains.items()}
    problems = [f"{method}: {n} chains, construction gives {expected[method]}"
                for method, n in observed if method in expected and n != expected[method]]
    seen = {method for method, _n in observed}
    problems += [f"{method}: trigger_paths never ran" for method, n in expected.items()
                 if n > 1 and method not in seen]
    return problems


def slices(apps, observed: list[tuple[str, list[int]]]) -> list[str]:
    """Slice kept lines equal the construction's dependence set."""
    expected = {t: lines for app in apps for t, lines in app.slices.items()}
    problems = []
    for target, kept in observed:
        want = expected.get(target)
        if want is not None and kept != want:
            problems.append(f"slice at {target}: kept {len(kept)} line(s), expected {len(want)}")
    seen = {target for target, _kept in observed}
    problems += [f"slice at {t}: never taken" for t in expected if t not in seen]
    return problems


def ini_prices(path: Path) -> dict[str, tuple[Decimal, Decimal]]:
    """tier -> (USD per million input tokens, per million output tokens)."""
    ini = configparser.ConfigParser()
    ini.read_string(path.read_text("utf-8"))
    out = {}
    for tier in TIERS:
        model = ini["model." + ini["router"][tier]]
        out[tier] = (Decimal(model["price_in"]), Decimal(model["price_out"]))
    return out


def ledger(app_id: str, ledger, usd: Decimal, prices) -> list[str]:
    """Ledger totals equal a recount of its exchanges, and `usd` equals the
    recounted tokens times the INI prices, exactly."""
    totals = {t: [0, 0] for t in TIERS}
    micro_usd = Decimal(0)
    for ex in ledger.exchanges:
        totals[ex.tier][0] += ex.input_tokens
        totals[ex.tier][1] += ex.output_tokens
        p_in, p_out = prices[ex.tier]
        micro_usd += ex.input_tokens * p_in + ex.output_tokens * p_out
    problems = []
    if {t: list(v) for t, v in ledger.totals.items()} != totals:
        problems.append(f"{app_id}: ledger totals {ledger.totals} != recount {totals}")
    if usd != micro_usd / Decimal(1_000_000):
        problems.append(f"{app_id}: cost {usd} != {micro_usd / Decimal(1_000_000)} from INI prices")
    return problems


def same_bytes(what: str, reference: dict[str, bytes], current: dict[str, bytes]) -> list[str]:
    """Every file in `current` is byte-identical to `reference`, and no file
    is missing or extra."""
    diff = sorted(k for k in reference.keys() | current.keys()
                  if reference.get(k) != current.get(k))
    return [f"{what}: {k} differs" for k in diff[:5]]


def requests_served(served: int, exchanges: int) -> list[str]:
    """The live stub served exactly one request per metered exchange."""
    if served != exchanges:
        return [f"stub served {served} request(s) for {exchanges} metered exchange(s)"]
    return []
