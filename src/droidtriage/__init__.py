"""Desk-scale app triage: static representation, screening, forensics, verdict."""

from .agents import Catalogs, PipelineBudgets, VerdictReport, run_pipeline
from .backend import CostLedger, Exchange, PricingTable, cost_of, tier_shares
from .catalog import ApiCatalog, EntryCatalog
from .harness import ConfusionCounts, DatasetManifest, MetricSet, compute_metrics
from .index import ApiIndex, CallGraph, CallSite, build_api_index, build_call_graph
from .ir import AppBundle, IrProgram, Manifest, MethodSig, parse_bundle, validate

__version__ = "0.1.0"

__all__ = [
    "ApiCatalog",
    "ApiIndex",
    "AppBundle",
    "CallGraph",
    "CallSite",
    "Catalogs",
    "ConfusionCounts",
    "CostLedger",
    "DatasetManifest",
    "EntryCatalog",
    "Exchange",
    "IrProgram",
    "Manifest",
    "MethodSig",
    "MetricSet",
    "PipelineBudgets",
    "PricingTable",
    "VerdictReport",
    "build_api_index",
    "build_call_graph",
    "compute_metrics",
    "cost_of",
    "parse_bundle",
    "run_pipeline",
    "tier_shares",
    "validate",
    "__version__",
]
