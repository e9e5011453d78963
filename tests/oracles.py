"""Naive reference implementations and graph builders for the test suite.

Everything here recomputes results from first principles (dict adjacency,
double loops, Floyd-Warshall) without touching the package's metric code, so
agreement between the two is meaningful.
"""

from __future__ import annotations

import random

from ledgernet.graph import (
    Chain,
    InteractionGraph,
    Transaction,
    canonicalize_address,
)


def adjacency(graph: InteractionGraph) -> dict[int, set[int]]:
    """Rebuild adjacency from the pair list alone (``graph.edges`` is built
    on each access, so it is read once per call)."""
    adj: dict[int, set[int]] = {v: set() for v in graph.node_ids()}
    for a, b in graph.edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def dfs_components(graph: InteractionGraph) -> list[set[int]]:
    adj = adjacency(graph)
    seen: set[int] = set()
    components = []
    for start in graph.node_ids():
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        component = set()
        while stack:
            v = stack.pop()
            component.add(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        components.append(component)
    return components


def main_component(graph: InteractionGraph) -> set[int]:
    return max(dfs_components(graph), key=lambda c: (len(c), -min(c)))


def naive_local_clustering(adj: dict[int, set[int]], node: int) -> float:
    neighbors = sorted(adj[node])
    d = len(neighbors)
    if d < 2:
        return 0.0
    links = 0
    for i in range(d):
        for j in range(i + 1, d):
            if neighbors[j] in adj[neighbors[i]]:
                links += 1
    return links / (d * (d - 1) / 2)


def naive_average_clustering(graph: InteractionGraph, nodes=None) -> float:
    nodes = list(graph.node_ids()) if nodes is None else list(nodes)
    adj = adjacency(graph)
    return sum(naive_local_clustering(adj, v) for v in nodes) / len(nodes)


def bfs_distances(adj: dict[int, set[int]], source: int) -> dict[int, int]:
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def naive_aspl_bfs(graph: InteractionGraph, nodes) -> float:
    adj = adjacency(graph)
    nodes = sorted(nodes)
    total = 0
    pairs = 0
    for u in nodes:
        dist = bfs_distances(adj, u)
        for v in nodes:
            if v != u:
                total += dist[v]
                pairs += 1
    return total / pairs


def floyd_warshall_aspl(graph: InteractionGraph, nodes) -> float:
    nodes = sorted(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    inf = float("inf")
    dist = [[inf] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for a, b in graph.edges:
        if a in index and b in index:
            dist[index[a]][index[b]] = 1
            dist[index[b]][index[a]] = 1
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            di = dist[i]
            via = di[k]
            if via == inf:
                continue
            for j in range(n):
                if via + dk[j] < di[j]:
                    di[j] = via + dk[j]
    total = sum(dist[i][j] for i in range(n) for j in range(n) if i != j)
    return total / (n * (n - 1))


def recount_degrees(transactions) -> tuple[dict[str, int], dict[str, int]]:
    """Directed activity per canonical key, recounted from the raw list."""
    in_counts: dict[str, int] = {}
    out_counts: dict[str, int] = {}
    for tx in transactions:
        in_counts[tx.recipient] = in_counts.get(tx.recipient, 0) + 1
        out_counts.setdefault(tx.recipient, 0)
        if tx.sender is not None:
            out_counts[tx.sender] = out_counts.get(tx.sender, 0) + 1
            in_counts.setdefault(tx.sender, 0)
    return in_counts, out_counts


# -- graph builders ---------------------------------------------------------

def graph_from_edges(n: int, pairs) -> InteractionGraph:
    """Graph on nodes n1..n<n> with the given 0-based edge pairs."""
    graph = InteractionGraph()
    for i in range(1, n + 1):
        graph.intern_node(f"n{i}")
    for a, b in sorted(pairs):
        graph.record_edge(a + 1, b + 1, amount=1, tx_count=1)
    return graph


def complete_graph(n: int) -> InteractionGraph:
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> InteractionGraph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> InteractionGraph:
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def ring_edge_set(n: int, k: int) -> set[tuple[int, int]]:
    """Ring lattice: each node linked to its k nearest neighbors (k even)."""
    edges = set()
    for i in range(n):
        for step in range(1, k // 2 + 1):
            j = (i + step) % n
            edges.add((min(i, j), max(i, j)))
    return edges


def ring_lattice(n: int, k: int) -> InteractionGraph:
    return graph_from_edges(n, ring_edge_set(n, k))


def rewired_ring(n: int = 30, k: int = 4, fraction: float = 0.1,
                 seed: int = 0) -> InteractionGraph:
    """Ring lattice with a fraction of edges rewired to random shortcuts.

    High clustering survives the light rewiring while the shortcuts crush
    path lengths: the classic small-world test shape.
    """
    rng = random.Random(seed)
    edges = sorted(ring_edge_set(n, k))
    final = set(edges)
    for idx in sorted(rng.sample(range(len(edges)), round(fraction * len(edges)))):
        final.discard(edges[idx])
        while True:
            a, b = rng.randrange(n), rng.randrange(n)
            pair = (min(a, b), max(a, b))
            if a != b and pair not in final:
                final.add(pair)
                break
    return graph_from_edges(n, final)


def er_gnm_draws(n: int, m: int, seed: int) -> list[tuple[int, int]]:
    """The pairs ``generate_er_gnm`` must accept, as drawn, in draw order:
    rejection sampling on a pair set of its own."""
    rng = random.Random(seed)
    pairs: set[tuple[int, int]] = set()
    draws = []
    while len(pairs) < m:
        a = rng.randrange(1, n + 1)
        b = rng.randrange(1, n + 1)
        pair = (min(a, b), max(a, b))
        if a != b and pair not in pairs:
            pairs.add(pair)
            draws.append((a, b))
    return draws


def er_gnm_reference(n: int, m: int, seed: int) -> InteractionGraph:
    """``generate_er_gnm`` written as ``er_gnm_draws`` then ``record_edge``:
    the draws, node keys and adjacency insertion order that the generator
    must keep."""
    graph = InteractionGraph()
    for i in range(1, n + 1):
        graph.intern_node(f"v{i}")
    for a, b in er_gnm_draws(n, m, seed):
        graph.record_edge(a, b, amount=1, tx_count=1)
    return graph


def random_gnm_edge_set(rng: random.Random, n: int, m: int) -> set[tuple[int, int]]:
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return edges


def random_graph(rng: random.Random, max_nodes: int = 200) -> InteractionGraph:
    """Mixed test-corpus sampler: G(n,m), ring lattices, and rewired rings."""
    shape = rng.randrange(3)
    if shape == 0:
        n = rng.randrange(2, max_nodes + 1)
        cap = min(3 * n, n * (n - 1) // 2)
        return graph_from_edges(n, random_gnm_edge_set(rng, n, rng.randrange(cap + 1)))
    n = rng.randrange(5, min(60, max_nodes) + 1)
    k = rng.choice([2, 4])
    if shape == 1:
        return ring_lattice(n, k)
    return rewired_ring(n, k, fraction=rng.choice([0.1, 0.2]),
                        seed=rng.randrange(10 ** 6))


ETH = Chain.ETHEREUM


def random_address(rng: random.Random, chain: Chain = ETH) -> str:
    if chain is Chain.ETHEREUM:
        return "0x%040x" % rng.getrandbits(160)
    alphabet = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
    return "1" + "".join(rng.choice(alphabet) for _ in range(33))


def canonical_key(raw, chain: Chain) -> str:
    """``canonicalize_address(raw, chain)`` by the rules alone: strip,
    then for Ethereum lowercase, drop a ``0x`` and require 40 hex digits,
    for Bitcoin require no inner whitespace and no lone surrogate.  Raises
    ValueError with ``canonicalize_address``'s message for a key it rejects."""
    chain = Chain(chain)
    if not isinstance(raw, str) or not raw.strip():
        raise ValueError(f"empty {chain.value} address")
    text = raw.strip()
    if chain is Chain.ETHEREUM:
        text = text.lower().removeprefix("0x")
        if len(text) != 40 or any(c not in "0123456789abcdef" for c in text):
            raise ValueError(f"malformed ethereum address: {raw!r}")
        return "0x" + text
    if any(c.isspace() or "\ud800" <= c <= "\udfff" for c in text):
        raise ValueError(f"malformed bitcoin address: {raw!r}")
    return text


def random_raw_address(rng: random.Random, chain: Chain) -> str:
    """An address as a source might send it: canonical, case-mangled,
    without its prefix, padded with whitespace, or malformed."""
    space = [" ", "\t", "\n", "\x1c", "\u00a0", "\u2003"]
    if chain is Chain.ETHEREUM:
        digits = "".join(rng.choice("0123456789abcdefABCDEF")
                         for _ in range(rng.choice([40, 40, 40, 39, 41])))
        text = rng.choice(["0x", "0x", "0X", "", "0x0x"]) + digits
        if rng.random() < 0.2:
            text = text.lower()
        if rng.random() < 0.1:
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice("gxZ.é ") + text[i:]
    else:
        alphabet = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz\"é\\"
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 34)))
        if rng.random() < 0.1 and text:
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(space + ["\ud800", "\udfff"]) + text[i:]
    if rng.random() < 0.3:
        text = rng.choice(space) + text + rng.choice(space + [""])
    return text


def random_transactions(rng: random.Random, chain: Chain = ETH,
                        address_count: int = 12, count: int = 60,
                        ) -> list[Transaction]:
    """Transaction stream with duplicates, self-transfers, and coinbases."""
    addresses = [random_address(rng, chain) for _ in range(address_count)]
    txs = []
    for i in range(count):
        recipient = rng.choice(addresses)
        roll = rng.random()
        if roll < 0.08:
            sender = None
        elif roll < 0.14:
            sender = recipient
        else:
            sender = rng.choice(addresses)
        txs.append(Transaction(
            sender=None if sender is None else canonicalize_address(sender, chain),
            recipient=canonicalize_address(recipient, chain),
            amount=rng.randrange(0, 10 ** 19),
            block_height=i // 5,
            timestamp=1000 + 60 * (i // 5),
        ))
    return txs
