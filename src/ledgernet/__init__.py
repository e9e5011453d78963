"""Ledger transaction downloader and small-world network analyzer.

The pipeline has two halves: ingestion turns a block range (or time
interval) into durable transaction chunk files, and analysis turns those
into an undirected account-interaction graph, network metrics, and a
small-world verdict against an Erdős–Rényi baseline of the same size.

The public names load their module on first use (PEP 562), so a command
that needs no analysis, such as ``build``, loads no analysis code.
"""

import importlib

__version__ = "0.1.0"

_MODULE_OF = {
    **dict.fromkeys([
        "DEFAULT_ACC_THRESHOLD",
        "DEFAULT_ASPL_THRESHOLD",
        "ComparisonReport",
        "ErSpec",
        "SmallWorldVerdict",
        "compare",
        "generate_er_gnm",
        "small_world_verdict",
    ], "baseline"),
    **dict.fromkeys([
        "AddressError",
        "CheckpointError",
        "EmptyRangeError",
        "ErSpecError",
        "ExportError",
        "LedgerNetError",
        "ParseError",
        "ProviderError",
        "UndefinedMetricError",
        "UsageError",
    ], "errors"),
    **dict.fromkeys(["export_json", "export_pajek", "import_graph"], "formats"),
    **dict.fromkeys([
        "Chain",
        "InteractionGraph",
        "Transaction",
        "build_graph",
        "canonicalize_address",
    ], "graph"),
    **dict.fromkeys([
        "ComponentCensus",
        "DegreeReport",
        "MetricsReport",
        "analyze",
        "aspl",
        "average_clustering",
        "connected_components",
        "degree_distributions",
    ], "metrics"),
}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
