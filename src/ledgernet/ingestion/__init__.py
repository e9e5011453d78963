"""Block download, transaction chunk files, and resumable checkpoints.

The public names load their module on first use (PEP 562), so code that
reads chunk files and checkpoints, such as ``build``, loads no download code.
"""

import importlib

_MODULE_OF = {
    "Checkpoint": "checkpoint",
    **dict.fromkeys([
        "chunk_filename",
        "decode_transaction",
        "fold_chunks",
        "iter_chunk_transactions",
        "list_chunk_files",
    ], "chunks"),
    **dict.fromkeys([
        "BlockRange",
        "DownloadSummary",
        "DownloadTask",
        "RetryPolicy",
        "RetryingProvider",
        "TimeInterval",
        "fetch_block_transactions",
        "plan_tasks",
        "resolve_block_range",
        "run_download",
    ], "download"),
    **dict.fromkeys([
        "BitcoinApiProvider",
        "BlockProvider",
        "EthereumRpcProvider",
        "FixtureProvider",
        "TokenBucket",
    ], "providers"),
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
