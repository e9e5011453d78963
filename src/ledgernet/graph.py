"""Domain model: addresses, transactions, and the account-interaction graph.

An address is its canonical key, a plain ``str`` from ``canonicalize_address``;
the chain is known from the provider, the checkpoint or the graph.

The graph is undirected and simple.  Every transaction between two distinct
accounts contributes to exactly one edge; repeat transactions on the same
pair add to that edge's transfer total instead of adding parallel edges.
Directed activity (how many transactions a node sent or received) is kept in
per-node counters, separate from the undirected structure.  One method,
``InteractionGraph.fold``, applies this rule to transfers, for chunk files
and ``Transaction`` streams alike.

Edges live in one store: ``adj[a]`` maps each neighbour ``b`` to the pair's
total amount, an ``int`` that both ends hold (``adj[a][b] == adj[b][a]``).
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


def _check_numbers(height, timestamp, amount) -> None:
    """Raise ValueError, naming the first fault, unless amount, block height
    and timestamp are exact ``int``s and amount and height are not negative."""
    if (type(amount) is type(height) is type(timestamp) is int
            and amount >= 0 and height >= 0):
        return
    for label, value in (("block height", height), ("timestamp", timestamp),
                         ("amount", amount)):
        if type(value) is not int:
            raise ValueError(f"{label} must be an integer, got {value!r}")
    raise ValueError(f"negative amount: {amount}" if amount < 0
                     else f"negative block height: {height}")


def transfer_record(chain: Chain | str, height, timestamp, sender, recipient,
                    amount) -> Record:
    """The record of one transfer on ``chain``, keys canonicalized: the one
    definition of a valid transfer, for provider records and chunk lines
    alike.  Each fault raises ValueError with one message."""
    _check_numbers(height, timestamp, amount)
    if sender is not None:
        if not isinstance(sender, str):
            raise ValueError(f"sender must be a string or null, got {sender!r}")
        sender = canonicalize_address(sender, chain)
    if not isinstance(recipient, str):
        raise ValueError(f"recipient must be a string, got {recipient!r}")
    return height, timestamp, sender, canonicalize_address(recipient, chain), amount


@dataclass(frozen=True)
class Transaction:
    """One directed value transfer recorded on the ledger.

    ``sender`` and ``recipient`` are canonical keys; ``sender`` is None for
    block rewards and other transactions without a sending account.  Amounts
    are integers in the chain's base unit (wei / satoshi); amount, height and
    timestamp must be exact ``int``s (keys are not checked: there is no chain).
    """

    sender: str | None
    recipient: str
    amount: int
    block_height: int
    timestamp: int

    def __post_init__(self):
        _check_numbers(self.block_height, self.timestamp, self.amount)


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
        self.adj: list[dict[int, int]] = [{}]
        self.in_tx: list[int] = [0]
        self.out_tx: list[int] = [0]

    @property
    def node_count(self) -> int:
        return len(self.keys) - 1

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.adj)) // 2

    @property
    def edges(self) -> dict[tuple[int, int], int]:
        """``{(low, high): amount}`` sorted by pair, built on each access:
        bind it once rather than reading it in a loop."""
        return {(a, b): amount for a, b, amount in self.edge_triples()}

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

    def degree(self, node: int) -> int:
        if not 1 <= node <= self.node_count:
            raise LookupError(f"node {node} not in graph")
        return len(self.adj[node])

    def fold(self, records: Iterable[tuple]) -> None:
        """Apply transfers ``(height, timestamp, sender, recipient, amount)``
        in order (``Record``'s shape; height and timestamp are ignored).

        Keys must be canonical.  A sender of None or "" means there is none.
        The amount goes through ``int()``, so it may be an ``int`` or its
        decimal string.  Each endpoint is interned on first sight, sender
        before recipient, and its counter raised.  A transfer without a
        sender, or to its own sender, adds no edge; any other adds its amount
        to the pair's one edge.
        """
        get, intern, adj = self._ids.get, self.intern_node, self.adj
        in_tx, out_tx = self.in_tx, self.out_tx
        for _, _, s, r, v in records:
            a = s and (get(s) or intern(s))
            b = get(r) or intern(r)
            in_tx[b] += 1
            if a:
                out_tx[a] += 1
                if a != b:
                    adj[a][b] = adj[b][a] = adj[a].get(b, 0) + int(v)

    def record_edge(self, a: int, b: int, amount: int = 0, tx_count: int = 0) -> None:
        """Add the unordered edge {a, b} or fold more volume into it.
        ``tx_count`` is accepted and ignored: edges keep no transaction count."""
        if a == b:
            raise ValueError(f"self-loop on node {a}")
        row = self.adj[a]
        row[b] = self.adj[b][a] = row.get(b, 0) + amount

    def insert_edge(self, a: int, b: int, amount: int = 0) -> bool:
        """Add {a, b}, a != b, as a new edge; return False and change nothing
        if the pair already has one.  One dict lookup, for bulk loaders."""
        row = self.adj[a]
        if b in row:
            return False
        row[b] = self.adj[b][a] = amount
        return True

    def node_keys(self) -> list[str]:
        """Canonical keys in ID order."""
        return self.keys[1:]

    def edge_triples(self) -> list[tuple[int, int, int]]:
        """Edges as (low_id, high_id, aggregated_amount), sorted by ID pair."""
        return [(a, b, row[b]) for a, row in enumerate(self.adj)
                for b in sorted(row) if a < b]


def build_graph(transactions: Iterable[Transaction],
                chain: Chain | str | None = None) -> InteractionGraph:
    """Fold a transaction stream into a fresh interaction graph."""
    graph = InteractionGraph(chain)
    graph.fold((tx.block_height, tx.timestamp, tx.sender, tx.recipient, tx.amount)
               for tx in transactions)
    return graph
