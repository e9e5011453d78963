"""Resumable block-range download.

A coordinator owns the task queue and the checkpoint.  Workers pull chunk
tasks, fetch block transactions through the provider (retrying transient
failures with exponential backoff), and write each finished chunk to a
private temp file.  The coordinator alone renames temp files into place and
persists the checkpoint.  It waits for the next chunk in task order, takes
it and every chunk right after it that has finished too, renames their
files into place, then saves the checkpoint once for the batch.  An
interruption at any instant therefore leaves a consistent state: every chunk
the checkpoint lists has its file, nothing half-written is visible.

Chunk contents depend only on (chain, block span), never on worker count or
scheduling, which is what makes interrupted-plus-resumed runs byte-identical
to single-shot ones.
"""

from __future__ import annotations

import math
import os
import random
import threading
import time
from bisect import bisect_left, bisect_right
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from ..errors import EmptyRangeError, ProviderError
from ..graph import Chain, Record
from .checkpoint import Checkpoint
from .chunks import chunk_filename, write_chunk
from .providers import BlockProvider

DEFAULT_CHUNK_SIZE = 100
DEFAULT_SLACK = 128


@dataclass(frozen=True)
class TimeInterval:
    """Inclusive unix-second interval."""

    start: int
    end: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"interval start {self.start} after end {self.end}")


@dataclass(frozen=True)
class BlockRange:
    """Inclusive block-height span."""

    first: int
    last: int

    def __post_init__(self):
        if self.first < 0 or self.first > self.last:
            raise ValueError(f"bad block range {self.first}..{self.last}")


@dataclass
class DownloadTask:
    """One chunk of contiguous blocks to fetch."""

    first: int
    last: int
    attempt_count: int = 0


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter.

    ``max_attempts`` None means retry forever; transient provider failures
    are repeated until the request is satisfied.  The delays must be finite
    and >= 0 and ``max_attempts`` >= 1, or construction raises ValueError.
    """

    base_delay: float = 0.5
    factor: float = 2.0
    jitter: float = 0.1
    max_delay: float = 60.0
    max_attempts: int | None = None

    def __post_init__(self):
        for name in ("base_delay", "factor", "jitter", "max_delay"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, "
                                 f"got {value!r}")
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def delay(self, attempt: int, rng: random.Random) -> float:
        base = min(self.max_delay, self.base_delay * self.factor ** (attempt - 1))
        return base * (1.0 + rng.uniform(0.0, self.jitter))


def call_with_retry(fn: Callable, policy: RetryPolicy | None = None, *,
                    sleep=time.sleep, rng: random.Random | None = None):
    """Call ``fn`` until it succeeds; returns (result, attempts).

    Permanent provider errors are raised immediately; transient ones are
    retried under the policy.  When the attempt cap is exhausted the raised
    ProviderError carries the attempt count.
    """
    policy = policy or RetryPolicy()
    rng = rng or random.Random()
    attempts = 0
    while True:
        attempts += 1
        try:
            return fn(), attempts
        except ProviderError as exc:
            if exc.permanent:
                raise
            if policy.max_attempts is not None and attempts >= policy.max_attempts:
                raise ProviderError(f"giving up: {exc}", attempts=attempts) from exc
            sleep(policy.delay(attempts, rng))


def fetch_block_transactions(provider: BlockProvider, height: int,
                             policy: RetryPolicy | None = None, *,
                             task: DownloadTask | None = None,
                             sleep=time.sleep,
                             rng: random.Random | None = None) -> list[Record]:
    """One block's transfer records (as ``BlockProvider.block_transactions``
    returns them, unchecked), retried until satisfied (or capped)."""
    records, attempts = call_with_retry(
        lambda: provider.block_transactions(height), policy, sleep=sleep, rng=rng)
    if task is not None:
        task.attempt_count += attempts
    return records


def resolve_block_range(interval: TimeInterval, provider: BlockProvider, *,
                        slack: int = DEFAULT_SLACK,
                        policy: RetryPolicy | None = None,
                        sleep=time.sleep) -> BlockRange:
    """Find the blocks whose timestamps fall inside the interval.

    Binary search over headers assumes timestamps are non-decreasing; chains
    exhibit small local inversions, so each boundary is corrected by a linear
    scan over ``slack`` neighboring blocks.
    """
    headers: dict[int, int] = {}

    def stamp(height: int) -> int:
        if height not in headers:
            headers[height], _ = call_with_retry(
                lambda: provider.block_header(height), policy, sleep=sleep)
        return headers[height]

    latest, _ = call_with_retry(provider.latest_height, policy, sleep=sleep)
    if stamp(latest) < interval.start or stamp(0) > interval.end:
        raise EmptyRangeError(
            f"no blocks in [{interval.start}, {interval.end}]")

    first = bisect_left(range(latest + 1), interval.start, key=stamp)
    for height in range(max(0, first - slack), first):
        if stamp(height) >= interval.start:
            first = height
            break

    last = bisect_right(range(latest + 1), interval.end, key=stamp) - 1
    for height in range(min(latest, last + slack), last, -1):
        if stamp(height) <= interval.end:
            last = height
            break

    if first > last:
        raise EmptyRangeError(
            f"no blocks in [{interval.start}, {interval.end}]")
    return BlockRange(first, last)


def plan_tasks(block_range: BlockRange, chunk_size: int,
               checkpoint: Checkpoint | None = None, *,
               chain: Chain | str | None = None) -> list[DownloadTask]:
    """Partition the range into chunk tasks, minus already-done chunks."""
    if chunk_size < 1:
        raise ValueError(f"chunk size must be >= 1, got {chunk_size}")
    done: set[int] = set()
    if checkpoint is not None:
        checkpoint.verify_matches(checkpoint.chain if chain is None else chain,
                                  block_range.first, block_range.last, chunk_size)
        done = checkpoint.done
    return [
        DownloadTask(first, min(first + chunk_size - 1, block_range.last))
        for first in range(block_range.first, block_range.last + 1, chunk_size)
        if first not in done
    ]


@dataclass
class DownloadSummary:
    blocks_fetched: int = 0
    transactions_written: int = 0
    chunks_completed: int = 0
    interrupted: bool = False
    checkpoint_saves: int = 0
    timings: dict = field(default_factory=dict, compare=False)


def run_download(tasks: Iterable[DownloadTask], provider: BlockProvider,
                 checkpoint: Checkpoint, *, chunk_dir, checkpoint_path,
                 worker_count: int = 1,
                 retry_policy: RetryPolicy | None = None,
                 stop_event: threading.Event | None = None,
                 on_chunk_complete: Callable[[DownloadTask], None] | None = None,
                 ) -> DownloadSummary:
    """Fetch every task's blocks into chunk files, checkpointing as it goes.

    ``stop_event`` requests a graceful stop: in-flight chunks finish and are
    recorded, pending ones stay pending for the next run.  On an unrecoverable
    provider error the remaining work is abandoned the same way and the error
    propagates with the checkpoint intact.  ``on_chunk_complete`` fires for a
    chunk once a saved checkpoint lists it.
    """
    if worker_count < 1:
        raise ValueError(f"worker count must be >= 1, got {worker_count}")
    chunk_dir = Path(chunk_dir)
    chunk_dir.mkdir(parents=True, exist_ok=True)
    for stale in chunk_dir.glob(".tmp-chunk_*"):
        stale.unlink()
    checkpoint.save(checkpoint_path)
    stop_event = stop_event or threading.Event()
    summary = DownloadSummary(checkpoint_saves=1)
    started = time.perf_counter()

    def fetch_chunk(task: DownloadTask):
        if stop_event.is_set():
            return task, None, 0, 0
        records: list[Record] = []
        blocks = 0
        for height in range(task.first, task.last + 1):
            records.extend(fetch_block_transactions(
                provider, height, retry_policy, task=task))
            blocks += 1
        temp = chunk_dir / f".tmp-{chunk_filename(task.first, task.last)}"
        lines = write_chunk(temp, records)
        return task, temp, blocks, lines

    failure: BaseException | None = None
    with ThreadPoolExecutor(max_workers=worker_count) as pool:
        futures = deque(pool.submit(fetch_chunk, task) for task in tasks)
        while futures:
            # The next chunk in task order and every done chunk right after it
            batch = [futures.popleft()]
            wait(batch)
            while futures and futures[0].done():
                batch.append(futures.popleft())
            finished = []
            for future in batch:
                try:
                    task, temp, blocks, lines = future.result()
                except BaseException as exc:
                    stop_event.set()
                    if failure is None:
                        failure = exc
                    continue
                if temp is None:  # skipped: a stop was requested first
                    continue
                os.replace(temp, chunk_dir / chunk_filename(task.first, task.last))
                checkpoint.mark_done(task.first)
                summary.chunks_completed += 1
                summary.blocks_fetched += blocks
                summary.transactions_written += lines
                finished.append(task)
            if finished:
                checkpoint.save(checkpoint_path)
                summary.checkpoint_saves += 1
            if on_chunk_complete is not None:
                for task in finished:
                    on_chunk_complete(task)
    if failure is not None:
        raise failure
    summary.interrupted = stop_event.is_set()
    summary.timings["download_seconds"] = time.perf_counter() - started
    return summary
