"""Domain model: addresses, transactions, and the account-interaction graph.

An address is its canonical key, a plain ``str`` from ``canonicalize_address``;
the chain is known from the provider, the checkpoint or the graph.

The graph is undirected and simple.  Every transaction between two distinct
accounts contributes to exactly one edge; repeat transactions on the same
pair increase that edge's transfer total and transaction count instead of
adding parallel edges.  Directed activity (how many transactions a node sent
or received) is kept in per-node counters, separate from the undirected
structure.

Edges live in one store: ``adj[a]`` maps each neighbour ``b`` to the pair's
``EdgeData``, and both ends hold the same object (``adj[a][b] is adj[b][a]``).
Per-pair views (``edges``, ``edge_triples``) are built from it on request.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .errors import AddressError


class Chain(str, Enum):
    BITCOIN = "bitcoin"
    ETHEREUM = "ethereum"


# The shape of a canonical key, by chain: canonicalize_address returns such
# a key unchanged and maps any other key to one or rejects it.
_CANONICAL_KEY = {
    Chain.ETHEREUM: re.compile(r"0x[0-9a-f]{40}").fullmatch,
    Chain.BITCOIN: re.compile(r"[^\s\ud800-\udfff]+").fullmatch,
}


def canonicalize_address(raw: str, chain: Chain | str) -> str:
    """The canonical key of a raw address, so one account maps to one node.

    Ethereum addresses become lowercase ``0x``-prefixed 40-digit hex (the
    prefix may be missing on input).  Bitcoin addresses are kept verbatim
    apart from trimming surrounding whitespace; one with a lone surrogate,
    which no graph file can encode, is rejected.
    """
    if not isinstance(chain, Chain):
        try:
            chain = Chain(chain)
        except ValueError as exc:
            raise AddressError(f"unknown chain: {chain!r}") from exc
    canonical = _CANONICAL_KEY[chain]
    if isinstance(raw, str) and canonical(raw):
        return raw
    if not isinstance(raw, str) or not raw.strip():
        raise AddressError(f"empty {chain.value} address")
    key = raw.strip()
    if chain is Chain.ETHEREUM:
        key = key.lower()
        key = key if key.startswith("0x") else "0x" + key
    if not canonical(key):
        raise AddressError(f"malformed {chain.value} address: {raw!r}")
    return key


# A transfer as a chunk line holds it: (block height, timestamp, sender or
# None, recipient, amount), with canonical keys.
Record = tuple[int, int, str | None, str, int]


def transfer_record(height, timestamp, sender, recipient, amount) -> Record:
    """The record of one transfer; fields that make no valid ``Transaction``
    raise ValueError."""
    if not (type(amount) is type(height) is type(timestamp) is int):
        raise ValueError("amount, block height and timestamp must be integers, "
                         f"got {amount!r}, {height!r}, {timestamp!r}")
    if amount < 0:
        raise ValueError(f"negative amount: {amount}")
    if height < 0:
        raise ValueError(f"negative block height: {height}")
    return height, timestamp, sender, recipient, amount


@dataclass(frozen=True)
class Transaction:
    """One directed value transfer recorded on the ledger.

    ``sender`` and ``recipient`` are canonical keys; ``sender`` is None for
    block rewards and other transactions without a sending account.  Amounts
    are integers in the chain's base unit (wei / satoshi); amount, height and
    timestamp must be exact ``int``s.
    """

    sender: str | None
    recipient: str
    amount: int
    block_height: int
    timestamp: int

    def __post_init__(self):
        transfer_record(self.block_height, self.timestamp, self.sender,
                        self.recipient, self.amount)


@dataclass(slots=True)
class EdgeData:
    """Aggregate of all transactions between one unordered pair of nodes."""

    amount: int = 0
    tx_count: int = 0


class InteractionGraph:
    """Undirected simple graph over addresses, with directed activity counters.

    Nodes carry dense 1-based integer IDs assigned in first-seen order (the
    Pajek convention).  Internally the index 0 slot of every per-node list is
    an unused placeholder so public IDs index directly.
    """

    def __init__(self, chain: Chain | str | None = None):
        self.chain = Chain(chain) if chain is not None else None
        self._ids: dict[str, int] = {}
        self.keys: list[str | None] = [None]
        self.adj: list[dict[int, EdgeData]] = [{}]
        self.in_tx: list[int] = [0]
        self.out_tx: list[int] = [0]

    @property
    def node_count(self) -> int:
        return len(self.keys) - 1

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.adj)) // 2

    @property
    def edges(self) -> dict[tuple[int, int], EdgeData]:
        """``{(low, high): EdgeData}`` sorted by pair, built on each access:
        bind it once rather than reading it in a loop."""
        adj = self.adj
        return {(a, b): adj[a][b] for a, b, _ in self.edge_triples()}

    def node_ids(self) -> range:
        return range(1, self.node_count + 1)

    def intern_node(self, key: str) -> int:
        """Return the node ID for ``key``, registering it if unseen."""
        node = self._ids.get(key)
        if node is None:
            node = len(self.keys)
            self._ids[key] = node
            self.keys.append(key)
            self.adj.append({})
            self.in_tx.append(0)
            self.out_tx.append(0)
        return node

    def node_id(self, key: str) -> int:
        return self._ids[key]

    def degree(self, node: int) -> int:
        if not 1 <= node <= self.node_count:
            raise LookupError(f"node {node} not in graph")
        return len(self.adj[node])

    def record_edge(self, a: int, b: int, amount: int = 0, tx_count: int = 0) -> None:
        """Add the unordered edge {a, b} or fold more volume into it."""
        if a == b:
            raise ValueError(f"self-loop on node {a}")
        data = self.adj[a].get(b)
        if data is None:
            data = self.adj[a][b] = self.adj[b][a] = EdgeData()
        data.amount += amount
        data.tx_count += tx_count

    def insert_edge(self, a: int, b: int, amount: int = 0, tx_count: int = 0) -> bool:
        """Add {a, b}, a != b, as a new edge; return False and change nothing
        if the pair already has one.  One dict lookup, for bulk loaders."""
        row = self.adj[a]
        if b in row:
            return False
        row[b] = self.adj[b][a] = EdgeData(amount, tx_count)
        return True

    def add_transaction(self, tx: Transaction) -> None:
        """Apply one transaction (see ``add_transfer``)."""
        self.add_transfer(tx.sender, tx.recipient, tx.amount)

    def add_transfer(self, sender: str | None, recipient: str, amount: int) -> None:
        """Apply one transfer between canonical keys: register endpoints,
        update counters and edge.

        The sender is interned first, matching the sender-recipient reading
        order of the raw triples.  Self-transfers and senderless transfers
        register nodes and bump counters but contribute no edge, keeping the
        graph simple.
        """
        if sender is None:
            self.in_tx[self.intern_node(recipient)] += 1
            return
        source = self.intern_node(sender)
        target = self.intern_node(recipient)
        self.out_tx[source] += 1
        self.in_tx[target] += 1
        if source != target:
            self.record_edge(source, target, amount, 1)

    def node_keys(self) -> list[str]:
        """Canonical keys in ID order."""
        return self.keys[1:]

    def edge_triples(self) -> list[tuple[int, int, int]]:
        """Edges as (low_id, high_id, aggregated_amount), sorted by ID pair."""
        return [(a, b, row[b].amount) for a, row in enumerate(self.adj)
                for b in sorted(row) if a < b]


def build_graph(transactions: Iterable[Transaction],
                chain: Chain | str | None = None) -> InteractionGraph:
    """Fold a transaction stream into a fresh interaction graph."""
    graph = InteractionGraph(chain)
    for tx in transactions:
        graph.add_transaction(tx)
    return graph
