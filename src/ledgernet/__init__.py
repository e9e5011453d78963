"""Ledger transaction downloader and small-world network analyzer.

The pipeline has two halves: ingestion turns a block range (or time
interval) into durable transaction chunk files, and analysis turns those
into an undirected account-interaction graph, network metrics, and a
small-world verdict against an Erdős–Rényi baseline of the same size.
"""

__version__ = "0.1.0"

from .baseline import (
    DEFAULT_ACC_THRESHOLD,
    DEFAULT_ASPL_THRESHOLD,
    ComparisonReport,
    ErSpec,
    SmallWorldVerdict,
    compare,
    generate_er_gnm,
    small_world_verdict,
)
from .errors import (
    AddressError,
    CheckpointError,
    EmptyRangeError,
    ErSpecError,
    ExportError,
    LedgerNetError,
    ParseError,
    ProviderError,
    UndefinedMetricError,
    UsageError,
)
from .formats import export_json, export_pajek, import_graph
from .graph import (
    Chain,
    InteractionGraph,
    Transaction,
    build_graph,
    canonicalize_address,
)
from .metrics import (
    ComponentCensus,
    DegreeReport,
    MetricsReport,
    analyze,
    aspl,
    average_clustering,
    connected_components,
    degree_distributions,
    local_clustering,
)

__all__ = [
    "AddressError",
    "Chain",
    "CheckpointError",
    "ComparisonReport",
    "ComponentCensus",
    "DEFAULT_ACC_THRESHOLD",
    "DEFAULT_ASPL_THRESHOLD",
    "DegreeReport",
    "EmptyRangeError",
    "ErSpec",
    "ErSpecError",
    "ExportError",
    "InteractionGraph",
    "LedgerNetError",
    "MetricsReport",
    "ParseError",
    "ProviderError",
    "SmallWorldVerdict",
    "Transaction",
    "UndefinedMetricError",
    "UsageError",
    "analyze",
    "aspl",
    "average_clustering",
    "build_graph",
    "canonicalize_address",
    "compare",
    "connected_components",
    "degree_distributions",
    "export_json",
    "export_pajek",
    "generate_er_gnm",
    "import_graph",
    "local_clustering",
    "small_world_verdict",
    "__version__",
]
