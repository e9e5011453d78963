"""Durable download progress.

The checkpoint records which chunks of a block range have been fully written,
so an interrupted download can resume without refetching.  Every save goes
through a temp file and an atomic rename; a crash at any instant leaves either
the previous or the next consistent state on disk, never a torn file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..errors import CheckpointError
from ..formats import atomic_write
from ..graph import Chain

FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    chain: Chain
    first: int
    last: int
    chunk_size: int
    done: set[int] = field(default_factory=set)
    version: int = FORMAT_VERSION

    def __post_init__(self):
        self.chain = Chain(self.chain)
        if self.version != FORMAT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {self.version}")
        if not 0 <= self.first <= self.last:
            raise CheckpointError(f"bad block range {self.first}..{self.last}")
        if self.chunk_size < 1:
            raise CheckpointError(f"bad chunk size {self.chunk_size}")
        planned = set(self.planned_firsts())
        stray = self.done - planned
        if stray:
            raise CheckpointError(f"done chunks outside the plan: {sorted(stray)}")

    def planned_firsts(self) -> range:
        return range(self.first, self.last + 1, self.chunk_size)

    @property
    def is_complete(self) -> bool:
        return len(self.done) == len(self.planned_firsts())

    def mark_done(self, chunk_first: int) -> None:
        if chunk_first not in self.planned_firsts():
            raise CheckpointError(f"chunk {chunk_first} is not in the plan")
        self.done.add(chunk_first)

    def verify_matches(self, chain, first: int, last: int, chunk_size: int) -> None:
        """Reject resuming with parameters that differ from the original run."""
        wanted = (Chain(chain), first, last, chunk_size)
        actual = (self.chain, self.first, self.last, self.chunk_size)
        if wanted != actual:
            raise CheckpointError(
                "checkpoint does not match the requested download: "
                f"checkpoint is {self._describe(actual)}, "
                f"requested {self._describe(wanted)}")

    @staticmethod
    def _describe(params) -> str:
        chain, first, last, chunk_size = params
        return f"{chain.value} blocks {first}..{last} in chunks of {chunk_size}"

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "chain": self.chain.value,
            "first": self.first,
            "last": self.last,
            "chunk_size": self.chunk_size,
            "done": sorted(self.done),
        }

    def save(self, path) -> None:
        atomic_write(path, json.dumps(self.to_json_dict(),
                                      separators=(",", ":")).encode(), b"\n")

    @classmethod
    def load(cls, path) -> "Checkpoint":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # bad JSON or not UTF-8
            raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise CheckpointError(f"corrupt checkpoint {path}: not an object")
        expected = {"version", "chain", "first", "last", "chunk_size", "done"}
        if set(doc) != expected:
            raise CheckpointError(
                f"corrupt checkpoint {path}: keys {sorted(doc)} != {sorted(expected)}")
        done = doc["done"]
        if (not isinstance(done, list)
                or any(type(x) is not int for x in done)
                or len(set(done)) != len(done)):
            raise CheckpointError(f"corrupt checkpoint {path}: bad done list")
        for key in ("version", "first", "last", "chunk_size"):
            if type(doc[key]) is not int:
                raise CheckpointError(f"corrupt checkpoint {path}: bad {key!r}")
        try:
            return cls(chain=Chain(doc["chain"]), first=doc["first"],
                       last=doc["last"], chunk_size=doc["chunk_size"],
                       done=set(done), version=doc["version"])
        except ValueError as exc:
            raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
