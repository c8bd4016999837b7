"""The program surface that the benchmark's tracer wraps.

`triagebench/tracer.py` is loaded as it is and installed over a scripted
pipeline run, so a change to what `ToolBox.dispatch` returns, or to the
observation fields the tracer reads, fails here instead of in a benchmark run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from droidtriage import agents
from droidtriage.backend import ModelConfig, ModelRouter, RouterConfig
from droidtriage.config import load_config
from droidtriage.ir import parse_bundle
from droidtriage.scripted import ScriptedProvider

ROOT = Path(__file__).resolve().parent.parent


def _tracer_module():
    spec = importlib.util.spec_from_file_location("triagebench_tracer",
                                                  ROOT / "triagebench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_observes_every_tool_on_fx_smsleak():
    cfg = load_config()
    app = ROOT / "fixtures" / "fx_smsleak"
    bundle = parse_bundle((app / "app.mmf").read_text(), (app / "app.mir").read_text(),
                          app_id="fx_smsleak")
    router = ModelRouter(
        RouterConfig(tier_models={"recon": "m", "trace": "m", "verdict": "m"},
                     models={"m": ModelConfig()}),
        {"m": ScriptedProvider()},
    )
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        report, _ledger = agents.run_pipeline(
            bundle, agents.Catalogs(cfg.api_catalog, cfg.entry_catalog), router)
    finally:
        tracer.uninstall()
    assert report.verdict == "Malicious"
    assert not [layer for layer in tracer.absent if layer.startswith("agents.dispatch")]
    for tool in agents.TOOLS:
        assert tracer.counts["obs." + tool] > 0, tool
    assert tracer.chain_counts and tracer.slices
