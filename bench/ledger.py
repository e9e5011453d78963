"""Seeded synthetic Ethereum-style ledgers for the benchmark.

A ledger is a fixture directory (``meta.json`` plus one ``block_<h>.json``
per block) written through ledgernet's public ``write_fixture_meta`` and
``write_fixture_block``, so ``ledgernet download --fixture`` reads it like
any other source.

Each endpoint of a transaction is drawn either by Pareto(``PARETO_ALPHA``)
rank, which gives a few heavy hubs, or uniformly over the address pool;
``PARETO_SHARE`` is the share drawn by rank.  This is the mix of the
reference ledger in ROADMAP.md.  Ranks map to addresses through a seeded
permutation so the hubs are spread over the address space.

The generator keeps its own bookkeeping of the graph the pipeline must
build from the ledger: the set of addresses seen (nodes) and the set of
distinct unordered pairs of distinct addresses (edges).  The output checks
compare the pipeline's artifacts against it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ledgernet.ingestion.providers import write_fixture_block, write_fixture_meta

GENESIS_TIME = 1_600_000_000
BLOCK_SECONDS = 13
PARETO_ALPHA = 1.1
PARETO_SHARE = 0.5


@dataclass(frozen=True)
class LedgerShape:
    blocks: int
    tx_per_block: int
    addresses: int

    @property
    def transactions(self) -> int:
        return self.blocks * self.tx_per_block


@dataclass
class Ledger:
    """What the generator wrote, in the graph's canonical key form."""

    shape: LedgerShape
    seed: int
    nodes: set[str]
    pairs: set[tuple[str, str]]

    @property
    def transactions(self) -> int:
        return self.shape.transactions

    @property
    def last_block(self) -> int:
        return self.shape.blocks - 1


def _endpoint_picker(shape: LedgerShape, rng: random.Random):
    pool = ["0x%040x" % rng.getrandbits(160) for _ in range(shape.addresses)]
    by_rank = pool[:]
    rng.shuffle(by_rank)
    n = shape.addresses
    draw = rng.random
    pareto = rng.paretovariate
    below = rng.randrange

    def pick() -> str:
        if draw() < PARETO_SHARE:
            while True:
                rank = int(pareto(PARETO_ALPHA)) - 1
                if rank < n:
                    return by_rank[rank]
        return pool[below(n)]

    return pick


def generate(root, shape: LedgerShape, seed: int) -> Ledger:
    """Write the ledger for ``seed`` under ``root``; same seed, same bytes."""
    rng = random.Random(seed)
    pick = _endpoint_picker(shape, rng)
    amount = rng.randrange
    nodes: set[str] = set()
    pairs: set[tuple[str, str]] = set()
    write_fixture_meta(root, "ethereum")
    for height in range(shape.blocks):
        txs = []
        for _ in range(shape.tx_per_block):
            sender = pick()
            recipient = pick()
            nodes.add(sender)
            nodes.add(recipient)
            if sender != recipient:
                pairs.add((sender, recipient) if sender < recipient
                          else (recipient, sender))
            txs.append({"sender": sender, "recipient": recipient,
                        "amount": amount(1, 10**18)})
        write_fixture_block(root, height, GENESIS_TIME + BLOCK_SECONDS * height, txs)
    return Ledger(shape=shape, seed=seed, nodes=nodes, pairs=pairs)
