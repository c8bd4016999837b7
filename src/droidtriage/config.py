"""One config file for routing, pricing, budgets and catalog paths.

INI sections (see data/default_config.ini for the shipped defaults):

    [router]   recon/trace/verdict = <model-id>
    [retry]    count, backoff_s, timeout_s
    [model.<id>]  base_url, api_key_env, price_in, price_out (USD per M tokens)
    [budgets]  max_iterations, candidate_cap
    [catalogs] api = builtin|<path>, entry = builtin|<path>

A bad value, a section or key not listed above, or only one of a model's two
prices is a ConfigError naming its section and key.  The run, not the file,
picks the provider, so a leftover `kind` in a [model.<id>] section is ignored.
Secrets never live in the file: `api_key_env` names the environment variable
holding the key.
"""

from __future__ import annotations

import configparser
from contextlib import contextmanager
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

from .agents import PipelineBudgets
from .backend import (
    TIERS,
    ModelConfig,
    ModelRouter,
    PricingTable,
    RetryPolicy,
    RouterConfig,
    HttpProvider,
)
from .catalog import ApiCatalog, EntryCatalog
from .errors import ConfigError
from .scripted import ScriptedProvider


@dataclass
class AppConfig:
    router: RouterConfig
    pricing: PricingTable
    budgets: PipelineBudgets
    api_catalog: ApiCatalog
    entry_catalog: EntryCatalog

    def build_router(self, mode: str) -> ModelRouter:
        """`mode="scripted"`: one shared scripted provider; `"http"`: a client per model."""
        if mode == "scripted":
            scripted = ScriptedProvider()
            providers: dict[str, object] = {m: scripted for m in self.router.models}
        elif mode == "http":
            providers = {}
            for model_id, mc in self.router.models.items():
                if not mc.base_url:
                    raise ConfigError(f"model {model_id}: http provider needs base_url")
                providers[model_id] = HttpProvider(mc, self.router.retry)
        else:
            raise ConfigError(f"unknown backend mode {mode!r}")
        return ModelRouter(self.router, providers)


def _builtin(name: str) -> str:
    return resources.files("droidtriage").joinpath(f"data/{name}").read_text("utf-8")


@contextmanager
def _section(name: str):
    """Prefix a ConfigError raised while reading `name` with the section."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"[{name}] {exc}") from None


def _known_keys(parser: configparser.ConfigParser, name: str, known) -> dict[str, str]:
    """Section `name`, or {}; a key of its own not in `known` is a ConfigError."""
    sec = parser[name] if name in parser else {}
    if unknown := set(sec) - set(parser.defaults()) - set(known):
        raise ConfigError(f"[{name}] unknown key {', '.join(sorted(unknown))}")
    return sec


def _read_section(parser: configparser.ConfigParser, name: str, cls):
    """`cls` with each key of section `name` parsed as the type of its default."""
    types = {f.name: type(f.default) for f in fields(cls)}
    sec = _known_keys(parser, name, types)
    values = {}
    with _section(name):
        for key, parse in types.items():
            if key in sec:
                try:
                    values[key] = parse(sec[key])
                except ValueError:
                    raise ConfigError(f"{key} must be {parse.__name__}, got {sec[key]!r}") from None
        return cls(**values)


def load_config(path: str | Path | None = None) -> AppConfig:
    """The shipped defaults, or the INI file at `path`."""
    base_dir = None
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        base_dir = path.parent
    parser = configparser.ConfigParser()
    try:
        parser.read_string(_builtin("default_config.ini") if path is None
                           else path.read_text("utf-8"))
        return _parse(parser, base_dir)
    except (configparser.Error, OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path or 'default config'}: {exc}") from None


def _parse(parser: configparser.ConfigParser, base_dir: Path | None) -> AppConfig:
    for name in parser.sections():
        if not name.startswith("model.") and name not in ("router", "retry", "budgets", "catalogs"):
            raise ConfigError(f"unknown section [{name}]")
    if "router" not in parser:
        raise ConfigError("config missing [router] section")
    tier_models = {t: v for t, v in _known_keys(parser, "router", TIERS).items() if t in TIERS}

    retry = _read_section(parser, "retry", RetryPolicy)

    models: dict[str, ModelConfig] = {}
    pricing = PricingTable()
    for section in parser.sections():
        if not section.startswith("model."):
            continue
        model_id = section[len("model."):]
        sec = _known_keys(parser, section, ("base_url", "api_key_env", "price_in", "price_out",
                                            "kind"))
        models[model_id] = ModelConfig(
            base_url=sec.get("base_url", ""),
            api_key_env=sec.get("api_key_env", ""),
        )
        if "price_in" in sec or "price_out" in sec:
            with _section(section):
                pricing.set(model_id, sec.get("price_in", "0"), sec.get("price_out", "0"))
                for key in ("price_in", "price_out"):
                    if key not in sec:  # a lone price would cost the other side at $0
                        raise ConfigError(f"{key} missing: prices come in pairs")

    budgets = _read_section(parser, "budgets", PipelineBudgets)

    catalogs = _known_keys(parser, "catalogs", ("api", "entry"))

    def _catalog_text(key: str, builtin_name: str) -> str:
        value = catalogs.get(key, "builtin")
        if value == "builtin":
            return _builtin(builtin_name)
        p = Path(value)
        if base_dir is not None and not p.is_absolute():
            p = base_dir / p
        if not p.is_file():
            raise ConfigError(f"catalog file not found: {p}")
        return p.read_text("utf-8")

    api_catalog = ApiCatalog.parse(_catalog_text("api", "system_apis.cat"))
    entry_catalog = EntryCatalog.parse(_catalog_text("entry", "entrypoints.epc"))

    router = RouterConfig(tier_models=tier_models, models=models, retry=retry)
    return AppConfig(router, pricing, budgets, api_catalog, entry_catalog)
