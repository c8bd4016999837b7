"""Config-file loading: routing, pricing, budgets, catalog resolution."""

from __future__ import annotations

import json
import re
from decimal import Decimal

import pytest

from droidtriage.agents import PipelineBudgets
from droidtriage.backend import RetryPolicy
from droidtriage.config import load_config
from droidtriage.errors import ConfigError
from droidtriage.ir import parse_sig

MINIMAL = """
[router]
recon = m1
trace = m1
verdict = m1

[model.m1]
price_in = 0.25
price_out = 0.50
"""


def test_defaults_load_and_route_all_tiers():
    cfg = load_config()
    assert set(cfg.router.tier_models) == {"recon", "trace", "verdict"}
    assert cfg.budgets.max_iterations == 8
    assert cfg.budgets.candidate_cap == 15
    assert sum(e.system for e in cfg.api_catalog.patterns.values()) > 30
    assert cfg.api_catalog.is_system(parse_sig("android.widget.Toast.show()->void"))
    assert cfg.entry_catalog.user


def test_custom_config_overrides(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(MINIMAL + "\n[budgets]\nmax_iterations = 3\ncandidate_cap = 2\n")
    cfg = load_config(path)
    assert cfg.router.tier_models["trace"] == "m1"
    assert cfg.budgets.max_iterations == 3
    assert cfg.budgets.candidate_cap == 2
    assert cfg.pricing.rate("m1") == (Decimal("0.25"), Decimal("0.50"))


def test_catalog_paths_resolve_relative_to_config(tmp_path):
    (tmp_path / "mini.cat").write_text("api:my.Api.hit()->void\n")
    (tmp_path / "mini.epc").write_text("user:onTap\n")
    path = tmp_path / "cfg.ini"
    path.write_text(MINIMAL + "\n[catalogs]\napi = mini.cat\nentry = mini.epc\n")
    cfg = load_config(path)
    assert list(cfg.api_catalog.patterns) == ["my.Api.hit()->void"]
    assert cfg.api_catalog.is_system(parse_sig("my.Api.hit()->void"))
    assert cfg.entry_catalog.user == {"onTap"}


def test_missing_router_section_rejected(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[model.m1]\nkind = scripted\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_tier_routed_to_unknown_model_rejected(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[router]\nrecon = ghost\ntrace = ghost\nverdict = ghost\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_missing_config_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.ini")


def test_http_provider_needs_base_url(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("[router]\nrecon = m1\ntrace = m1\nverdict = m1\n[model.m1]\n")
    cfg = load_config(path)
    with pytest.raises(ConfigError):
        cfg.build_router("http")


def test_backend_mode_forces_scripted_everywhere(tmp_path):
    # a leftover `kind = http` key is ignored: the run picks the provider
    path = tmp_path / "cfg.ini"
    path.write_text(
        "[router]\nrecon = m1\ntrace = m1\nverdict = m1\n"
        "[model.m1]\nkind = http\nbase_url = http://127.0.0.1:9\n"
    )
    router = load_config(path).build_router("scripted")
    exchange = router.complete(
        "recon", [("user", '```json\n{"category":"x","permissions":[]}\n```')]
    )
    assert exchange.model_id == "m1"
    assert json.loads(exchange.response)["declared_intents"] == ["x"]


@pytest.mark.parametrize("key", ["price_inn", "base-url", "api_key"])
def test_model_section_unknown_key_rejected(tmp_path, key):
    # `price_inn = 0.10` beside `price_out` used to load with an input price of 0
    path = tmp_path / "cfg.ini"
    path.write_text(MINIMAL.replace("price_in =", f"{key} ="))
    with pytest.raises(ConfigError, match=rf"^\[model\.m1\] unknown key {key}$"):
        load_config(path)


@pytest.mark.parametrize("missing", ["price_in", "price_out"])
def test_model_section_with_one_price_rejected(tmp_path, missing):
    # `price_in` alone used to load with the output side priced at 0
    path = tmp_path / "cfg.ini"
    path.write_text(MINIMAL.replace(f"{missing} =", "# "))
    with pytest.raises(ConfigError, match=rf"^\[model\.m1\] {missing} missing"):
        load_config(path)


@pytest.mark.parametrize("mode", [None, "live", "Scripted"])
def test_build_router_takes_exactly_two_modes(mode):
    with pytest.raises(ConfigError):
        load_config().build_router(mode)


def test_floor_values_accepted(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(MINIMAL + "\n[budgets]\nmax_iterations = 1\ncandidate_cap = 1\n"
                    "[retry]\ncount = 0\nbackoff_s = 0\ntimeout_s = 0.01\n")
    cfg = load_config(path)
    assert cfg.budgets == PipelineBudgets(1, 1)
    assert cfg.router.retry == RetryPolicy(0, 0.0, 0.01)


def test_retry_waits_of_a_day_accepted(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text(MINIMAL + "\n[retry]\nbackoff_s = 86400\ntimeout_s = 86400\n")
    assert load_config(path).router.retry == RetryPolicy(2, 86400.0, 86400.0)


@pytest.mark.parametrize("key", ["backoff_s", "timeout_s"])
@pytest.mark.parametrize("value", ["inf", "1e12", "86400.5"])
def test_retry_wait_past_a_day_rejected(tmp_path, key, value):
    # each used to load, and every live exchange then raised OverflowError
    # from time.sleep or socket.settimeout
    path = tmp_path / "cfg.ini"
    path.write_text(MINIMAL + f"\n[retry]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=rf"^\[retry\] {key} must be at most 86400, got "):
        load_config(path)


@pytest.mark.parametrize("section,key", [
    # the tool ceilings, once [budgets] keys and now constants
    ("budgets", "taint_depth"),
    ("budgets", "trigger_depth"),
    ("budgets", "context_radius"),
    # misspellings, which used to be dropped so the run kept the default
    ("budgets", "max_iteration"),
    ("retry", "counts"),
    ("catalogs", "apis"),
])
def test_unknown_section_key_rejected(tmp_path, section, key):
    path = tmp_path / "cfg.ini"
    path.write_text(MINIMAL + f"\n[{section}]\n{key} = 1\n")
    with pytest.raises(ConfigError, match=rf"^\[{section}\] unknown key {key}$"):
        load_config(path)


@pytest.mark.parametrize("section", ["budget", "retries", "catalog", "models.m1"])
def test_unknown_section_rejected(tmp_path, section):
    # each used to load with its keys unread, so the defaults stayed in force
    path = tmp_path / "cfg.ini"
    path.write_text(MINIMAL + f"\n[{section}]\ncount = 9\n")
    with pytest.raises(ConfigError, match=rf"^unknown section \[{re.escape(section)}\]$"):
        load_config(path)


def test_router_key_that_is_no_tier_rejected(tmp_path):
    # it used to load as a fourth tier that nothing routes to
    path = tmp_path / "cfg.ini"
    path.write_text(MINIMAL.replace("verdict = m1\n", "verdict = m1\nverdikt = m1\n"))
    with pytest.raises(ConfigError, match=r"^\[router\] unknown key verdikt$"):
        load_config(path)


def test_default_key_is_not_a_router_tier(tmp_path):
    # it used to become a tier routed to the unconfigured model `x`
    path = tmp_path / "cfg.ini"
    path.write_text("[DEFAULT]\nnote = x\n" + MINIMAL)
    assert load_config(path).router.tier_models == {
        "recon": "m1", "trace": "m1", "verdict": "m1"}


def test_default_section_keys_are_not_section_keys(tmp_path):
    # configparser shows [DEFAULT] keys in every section; only a section's
    # own keys must name a field
    path = tmp_path / "cfg.ini"
    path.write_text("[DEFAULT]\ntrace = m1\n" + MINIMAL + "\n[budgets]\nmax_iterations = 3\n")
    assert load_config(path).budgets == PipelineBudgets(3, 15)


@pytest.mark.parametrize("text", ["no section header\n",
                                  MINIMAL + "base_url = http://h/%zz\n",
                                  MINIMAL + "[budgets]\n[budgets]\n"],
                         ids=["no-header", "bad-interpolation", "duplicate-section"])
def test_unparseable_ini_rejected(tmp_path, text):
    # each used to end in a configparser traceback
    path = tmp_path / "cfg.ini"
    path.write_text(text)
    with pytest.raises(ConfigError):
        load_config(path)
