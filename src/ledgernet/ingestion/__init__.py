"""Block download, transaction chunk files, and resumable checkpoints."""

from .checkpoint import Checkpoint
from .chunks import (
    chunk_filename,
    decode_transaction,
    encode_transaction,
    fold_chunks,
    iter_chunk_transactions,
    list_chunk_files,
)
from .download import (
    BlockRange,
    DownloadSummary,
    DownloadTask,
    RetryPolicy,
    TimeInterval,
    call_with_retry,
    fetch_block_transactions,
    plan_tasks,
    resolve_block_range,
    run_download,
)
from .providers import (
    BitcoinApiProvider,
    BlockProvider,
    EthereumRpcProvider,
    FixtureProvider,
    ThrottledProvider,
    TokenBucket,
)

__all__ = [
    "BitcoinApiProvider",
    "BlockProvider",
    "BlockRange",
    "Checkpoint",
    "DownloadSummary",
    "DownloadTask",
    "EthereumRpcProvider",
    "FixtureProvider",
    "RetryPolicy",
    "ThrottledProvider",
    "TimeInterval",
    "TokenBucket",
    "call_with_retry",
    "chunk_filename",
    "decode_transaction",
    "encode_transaction",
    "fetch_block_transactions",
    "fold_chunks",
    "iter_chunk_transactions",
    "list_chunk_files",
    "plan_tasks",
    "resolve_block_range",
    "run_download",
]
