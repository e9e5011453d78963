"""Resumable block-range download.

A coordinator owns the task queue and the checkpoint.  Workers pull chunk
tasks, fetch block transactions through the provider (a RetryingProvider
retries transient failures), and write each finished chunk to a
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
from itertools import count
from pathlib import Path
from typing import Callable, Iterable

from ..errors import EmptyRangeError, ProviderError
from ..graph import Chain, Record, transfer_record
from .checkpoint import Checkpoint
from .chunks import chunk_filename, write_chunk
from .providers import BlockProvider, TokenBucket

DEFAULT_CHUNK_SIZE = 100
SLACK = 128


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


BACKOFF_FACTOR = 2.0
BACKOFF_JITTER = 0.1
MAX_BACKOFF = 60.0


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter from ``base_delay``.

    ``max_attempts`` None means retry forever; transient provider failures
    are repeated until the request is satisfied.  ``base_delay`` must be
    finite and >= 0 and ``max_attempts`` >= 1, or construction raises
    ValueError.
    """

    base_delay: float = 0.5
    max_attempts: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.base_delay) and self.base_delay >= 0):
            raise ValueError(f"base_delay must be a finite number >= 0, "
                             f"got {self.base_delay!r}")
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def delay(self, attempt: int, rng: random.Random) -> float:
        """``base_delay * BACKOFF_FACTOR ** (attempt - 1)``, at most
        ``MAX_BACKOFF`` (0 when ``base_delay`` is 0), plus jitter, for any
        attempt count."""
        try:
            growth = BACKOFF_FACTOR ** (attempt - 1)
        except OverflowError:  # past the largest float: the cap holds
            growth = math.inf
        base = min(MAX_BACKOFF, self.base_delay * growth) if self.base_delay else 0.0
        return base * (1.0 + rng.uniform(0.0, BACKOFF_JITTER))


class RetryingProvider(BlockProvider):
    """Wrap a provider so that every request is paced and retried here.

    Each attempt first takes a token from ``bucket``, if given.  A permanent
    ProviderError is raised at once; a transient one is retried after
    ``policy.delay`` seconds of ``stop.wait``, unless ``stop`` is set, which
    raises it, or ``policy.max_attempts`` attempts failed, which gives up.
    ``request_attempts`` counts ``block_transactions`` attempts, retries
    included, from every thread.
    """

    def __init__(self, provider: BlockProvider, policy: RetryPolicy | None = None,
                 bucket: TokenBucket | None = None, *,
                 stop: threading.Event | None = None,
                 rng: random.Random | None = None):
        self.provider = provider
        self.chain = provider.chain
        self.policy = policy or RetryPolicy()
        self.bucket = bucket
        self.stop = stop or threading.Event()
        self._rng = rng or random.Random()
        self._lock = threading.Lock()
        self.request_attempts = 0

    def latest_height(self) -> int:
        return self._call(self.provider.latest_height)

    def block_header(self, height: int) -> int:
        return self._call(self.provider.block_header, height)

    def block_transactions(self, height: int) -> list[tuple]:
        return self._call(self.provider.block_transactions, height, counted=True)

    def _call(self, request: Callable, *args, counted: bool = False):
        for attempt in count(1):
            if counted:
                with self._lock:
                    self.request_attempts += 1
            if self.bucket is not None:
                self.bucket.acquire()
            try:
                return request(*args)
            except ProviderError as exc:
                if exc.permanent:
                    raise
                cap = self.policy.max_attempts
                if cap is not None and attempt >= cap:
                    raise ProviderError(f"giving up: {exc}", attempts=attempt) from exc
                if self.stop.wait(self.policy.delay(attempt, self._rng)):
                    raise


def fetch_block_transactions(provider: BlockProvider, height: int) -> list[Record]:
    """One block's transfer records.

    Every record ``provider.block_transactions`` returns goes through
    ``graph.transfer_record``, which checks it and canonicalizes its keys; a
    record that is no valid transfer, or is for another block, raises a
    permanent ProviderError.
    """
    records = provider.block_transactions(height)
    chain = provider.chain
    try:
        checked = [transfer_record(chain, h, t, s, r, v) for h, t, s, r, v in records]
    except (TypeError, ValueError) as exc:
        raise ProviderError(f"block {height} has a malformed transfer: {exc}",
                            permanent=True) from exc
    for record in checked:
        if record[0] != height:
            raise ProviderError(f"block {height} returned a transfer of block "
                                f"{record[0]}", permanent=True)
    return checked


def resolve_block_range(interval: TimeInterval,
                        provider: BlockProvider) -> BlockRange:
    """Find the blocks whose timestamps fall inside the interval.

    Binary search over headers assumes timestamps are non-decreasing.  Bitcoin
    blocks show small local inversions, so there each boundary is corrected
    by a linear scan over ``SLACK`` neighboring blocks; Ethereum consensus
    makes timestamps strictly increase, so no scan could move a boundary.
    """
    headers: dict[int, int] = {}

    def stamp(height: int) -> int:
        if height not in headers:
            headers[height] = provider.block_header(height)
        return headers[height]

    latest = provider.latest_height()
    if stamp(latest) < interval.start or stamp(0) > interval.end:
        raise EmptyRangeError(
            f"no blocks in [{interval.start}, {interval.end}]")

    first = bisect_left(range(latest + 1), interval.start, key=stamp)
    last = bisect_right(range(latest + 1), interval.end, key=stamp) - 1
    if provider.chain is Chain.BITCOIN:
        for height in range(max(0, first - SLACK), first):
            if stamp(height) >= interval.start:
                first = height
                break
        for height in range(min(latest, last + SLACK), last, -1):
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
                 stop_event: threading.Event | None = None) -> DownloadSummary:
    """Fetch every task's blocks into chunk files, checkpointing as it goes.

    ``stop_event`` requests a graceful stop: in-flight chunks finish and are
    recorded; pending ones, and one whose request fails after the stop, stay
    pending for the next run.  On an unrecoverable provider error the
    remaining work is abandoned the same way and the error propagates with
    the checkpoint intact.  Wrap a network provider in a RetryingProvider
    that shares ``stop_event``; no request is retried here.
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
            return task, None, 0
        records: list[Record] = []
        for height in range(task.first, task.last + 1):
            try:
                records.extend(fetch_block_transactions(provider, height))
            except ProviderError:
                if stop_event.is_set():  # given up for the stop: stays pending
                    return task, None, 0
                raise
        temp = chunk_dir / f".tmp-{chunk_filename(task.first, task.last)}"
        lines = write_chunk(temp, records)
        return task, temp, lines

    failure: BaseException | None = None
    with ThreadPoolExecutor(max_workers=worker_count) as pool:
        futures = deque(pool.submit(fetch_chunk, task) for task in tasks)
        while futures:
            # The next chunk in task order and every done chunk right after it
            batch = [futures.popleft()]
            wait(batch)
            while futures and futures[0].done():
                batch.append(futures.popleft())
            completed = summary.chunks_completed
            for future in batch:
                try:
                    task, temp, lines = future.result()
                except BaseException as exc:
                    stop_event.set()
                    if failure is None:
                        failure = exc
                    continue
                if temp is None:  # skipped: a stop was requested
                    continue
                os.replace(temp, chunk_dir / chunk_filename(task.first, task.last))
                checkpoint.mark_done(task.first)
                summary.chunks_completed += 1
                summary.blocks_fetched += task.last - task.first + 1
                summary.transactions_written += lines
            if summary.chunks_completed > completed:
                checkpoint.save(checkpoint_path)
                summary.checkpoint_saves += 1
    if failure is not None:
        raise failure
    summary.interrupted = stop_event.is_set()
    summary.timings["download_seconds"] = time.perf_counter() - started
    return summary
