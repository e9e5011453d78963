"""Network diagnostics: degrees, components, clustering, shortest paths.

All metrics live on the undirected simple graph; in/out activity histograms
come from the per-node transaction counters.  Shortest paths use BFS because
the graph is unweighted for metric purposes (transfer amounts are not
distances).  Every metric reads plain adjacency (see ``Adjacency``).

Analysis runs on one thread: it is pure-Python graph walking, which the GIL
would serialise across threads anyway.  Clustering means still sum in fixed
runs of ``_NODE_CHUNK`` values, because that reduction order fixes the bits of
every report.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
import time
from array import array
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import reduce
from itertools import chain, compress
from operator import or_
from typing import Iterable, NamedTuple, Sequence

from .errors import UndefinedMetricError
from .graph import InteractionGraph

_NODE_CHUNK = 256
# Memory budget of one multi-source BFS batch, in bits: sources per batch
# times component nodes, each node holding up to three bitsets of the batch
# width (1,024 sources on 50k nodes add about 40 MB).  A smaller component
# runs fewer, wider batches, which is faster: a level costs about the same
# number of Python steps at any width.
_BATCH_BITS = 1024 * 50_000
# The narrowest batch, used from 50k component nodes up.
_BATCH_WIDTH = 1024


@dataclass
class DegreeReport:
    """Histograms over all nodes: degree value -> node count."""

    in_histogram: dict[int, int] = field(default_factory=dict)
    out_histogram: dict[int, int] = field(default_factory=dict)
    total_histogram: dict[int, int] = field(default_factory=dict)
    zero_in_fraction: float = 0.0
    zero_out_fraction: float = 0.0
    max_degree: int = 0
    max_degree_fraction_of_nodes: float = 0.0


@dataclass
class ComponentCensus:
    count: int = 0
    sizes: list[int] = field(default_factory=list)
    main_component_size: int = 0
    main_component_fraction: float = 0.0


@dataclass
class MetricsReport:
    """Everything the analyzer knows about one graph.  Metrics undefined on
    it (clustering of an empty graph, path length of a singleton component)
    are None rather than fake zeros."""

    node_count: int = 0
    edge_count: int = 0
    avg_degree: float = 0.0
    degrees: DegreeReport = field(default_factory=DegreeReport)
    components: ComponentCensus = field(default_factory=ComponentCensus)
    graph_acc: float | None = None
    main_component_acc: float | None = None
    main_component_aspl: float | None = None
    max_degree_fraction_of_main_component: float = 0.0
    aspl_method: str = "exact"
    aspl_sample_sources: int | None = None
    timings: dict = field(default_factory=dict, compare=False)

    def to_json_dict(self) -> dict:
        # "degrees": the histograms as sorted [degree, count] pairs, then
        # the other DegreeReport fields and one field of the report's own
        scalars = asdict(self.degrees)
        degrees = {kind: sorted(map(list, scalars.pop(f"{kind}_histogram").items()))
                   for kind in ("in", "out", "total")}
        degrees.update(scalars, max_degree_fraction_of_main_component=(
            self.max_degree_fraction_of_main_component))
        return {
            "node_count": self.node_count,
            "edge_count": self.edge_count,
            "avg_degree": self.avg_degree,
            "degrees": degrees,
            "components": asdict(self.components),
            "graph_acc": self.graph_acc,
            "main_component_acc": self.main_component_acc,
            "main_component_aspl": self.main_component_aspl,
            "aspl_method": self.aspl_method,
            "aspl_sample_sources": self.aspl_sample_sources,
            "timings_seconds": self.timings,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> MetricsReport:
        """The report whose ``to_json_dict`` gave ``doc`` (other keys are
        ignored).  A document of any other shape raises ValueError, KeyError
        or TypeError."""
        degrees, components = doc["degrees"], doc["components"]

        def histogram(pairs) -> dict[int, int]:
            return {_typed(d, int): _typed(c, int) for d, c in _typed(pairs, list)}

        report = cls(
            node_count=_typed(doc["node_count"], int),
            edge_count=_typed(doc["edge_count"], int),
            avg_degree=_typed(doc["avg_degree"], float),
            degrees=DegreeReport(
                in_histogram=histogram(degrees["in"]),
                out_histogram=histogram(degrees["out"]),
                total_histogram=histogram(degrees["total"]),
                zero_in_fraction=_typed(degrees["zero_in_fraction"], float),
                zero_out_fraction=_typed(degrees["zero_out_fraction"], float),
                max_degree=_typed(degrees["max_degree"], int),
                max_degree_fraction_of_nodes=_typed(
                    degrees["max_degree_fraction_of_nodes"], float)),
            components=ComponentCensus(
                count=_typed(components["count"], int),
                sizes=[_typed(size, int)
                       for size in _typed(components["sizes"], list)],
                main_component_size=_typed(components["main_component_size"], int),
                main_component_fraction=_typed(
                    components["main_component_fraction"], float)),
            graph_acc=_typed(doc["graph_acc"], float, nullable=True),
            main_component_acc=_typed(doc["main_component_acc"], float, True),
            main_component_aspl=_typed(doc["main_component_aspl"], float, True),
            max_degree_fraction_of_main_component=_typed(
                degrees["max_degree_fraction_of_main_component"], float),
            aspl_method=_typed(doc["aspl_method"], str),
            aspl_sample_sources=_typed(doc["aspl_sample_sources"], int, nullable=True),
            timings=_typed(doc["timings_seconds"], dict),
        )
        if report.aspl_method not in ("exact", "sampled"):
            raise ValueError(f"unknown aspl_method {report.aspl_method!r}")
        return report


def _typed(value, kind: type, nullable: bool = False):
    """``value`` if its type is exactly ``kind`` (so no bool for an int), or
    if it is None and ``nullable``; ValueError otherwise."""
    if type(value) is not kind and not (nullable and value is None):
        raise ValueError(f"expected {kind.__name__}, got {value!r}")
    return value


class Adjacency(NamedTuple):
    """A graph as the metrics read it: ``adj[v]`` holds node v's neighbours
    (index 0 unused) as a set, where an ``InteractionGraph`` has a dict."""

    adj: list[set[int]]
    in_tx: list[int]
    out_tx: list[int]


def _neighbour_sets(graph: InteractionGraph | Adjacency) -> list[set[int]]:
    """``graph.adj``, with an ``InteractionGraph``'s rows copied into sets."""
    return graph.adj if isinstance(graph, Adjacency) else list(map(set, graph.adj))


def degree_distributions(graph: InteractionGraph | Adjacency) -> DegreeReport:
    """Histogram the directed activity counters and the undirected degree."""
    n = len(graph.adj) - 1
    report = DegreeReport(
        in_histogram=dict(Counter(graph.in_tx[1:])),
        out_histogram=dict(Counter(graph.out_tx[1:])),
        total_histogram=dict(Counter(map(len, graph.adj[1:]))),
    )
    if n:
        report.zero_in_fraction = report.in_histogram.get(0, 0) / n
        report.zero_out_fraction = report.out_histogram.get(0, 0) / n
        report.max_degree = max(report.total_histogram)
        report.max_degree_fraction_of_nodes = report.max_degree / n
    return report


def connected_components(graph: InteractionGraph | Adjacency,
                         ) -> tuple[ComponentCensus, list[int | None]]:
    """Breadth-first search from each node not yet reached, in ID order.

    Returns the census and a per-node label list (index 0 unused); labels
    number components 0, 1, ... in decreasing size, ties broken by smallest
    member ID, so label 0 is always the main component.
    """
    adj = graph.adj
    n = len(adj) - 1
    root = [0] * (n + 1)  # a node's root is its component's smallest ID
    size: dict[int, int] = {}
    for v in range(1, n + 1):
        if not root[v]:
            root[v] = v
            queue = [v]
            for u in queue:  # the loop also visits what it appends
                for w in adj[u]:
                    if not root[w]:
                        root[w] = v
                        queue.append(w)
            size[v] = len(queue)
    ordered = sorted(size, key=lambda r: (-size[r], r))
    label_of_root = {r: i for i, r in enumerate(ordered)}
    labels = [None] + [label_of_root[root[v]] for v in range(1, n + 1)]

    sizes = [size[r] for r in ordered]
    census = ComponentCensus(count=len(sizes), sizes=sizes)
    if sizes:
        census.main_component_size = sizes[0]
        census.main_component_fraction = sizes[0] / n
    return census, labels


def _clustering(adj, nodes: Iterable[int]) -> list[float]:
    """Local clustering of each of ``nodes``, where ``adj[v]`` is the set of
    v's neighbours: the linked share of its neighbour pairs, 0 below degree 2."""
    values = []
    for v in nodes:
        neighbours = adj[v]
        d = len(neighbours)  # the sum counts each linked pair twice
        values.append(sum(len(adj[u] & neighbours) for u in neighbours)
                      / (d * (d - 1)) if d > 1 else 0.0)
    return values


def local_clustering(graph: InteractionGraph | Adjacency, node: int) -> float:
    """Fraction of the node's neighbor pairs that are themselves linked;
    nodes of degree < 2 have no neighbor pairs and count as 0."""
    adj = graph.adj
    if not 0 < node < len(adj):
        raise LookupError(f"node {node} not in graph")
    return _clustering({v: set(adj[v]) for v in (node, *adj[node])}, [node])[0]


def _mean_clustering(values: list[float]) -> float:
    """Mean of local clustering values.  The reduction is part of every
    report's bits: ``math.fsum`` over each run of ``_NODE_CHUNK`` values,
    then over those sums."""
    if not values:
        raise UndefinedMetricError("clustering is undefined on an empty node set")
    return math.fsum(math.fsum(values[i:i + _NODE_CHUNK])
                     for i in range(0, len(values), _NODE_CHUNK)) / len(values)


def average_clustering(graph: InteractionGraph | Adjacency,
                       nodes: Sequence[int] | None = None) -> float:
    """Mean local clustering over ``nodes`` (default: every node)."""
    adj = _neighbour_sets(graph)
    return _mean_clustering(_clustering(
        adj, range(1, len(adj)) if nodes is None else nodes))


def _bottom_up(frontier_size: int, pending_size: int) -> bool:
    """Whether a BFS level runs bottom-up: when the frontier has at least a
    third as many nodes as the pending list (the nodes some source had not
    reached at the last filtering).  Tuned on ledger and G(n, m) graphs of
    1.2k to 50k nodes, at full width and at 32 sources: on average within
    4 % of picking the faster direction at every level."""
    return 3 * frontier_size >= pending_size


def _distance_sum(adj: Sequence[Iterable[int]], sources: Sequence[int],
                  nodes: Sequence[int] | None = None) -> int:
    """Sum of BFS distances from the distinct ``sources`` to all they reach.
    ``nodes`` must hold every node they can reach, such as their component;
    None stands for every index of ``adj``.  Multi-source BFS (Then et al.,
    VLDB 2014): bit i of a node's bitsets stands for ``sources[i]``, so one
    sweep moves every source's BFS one level on.  A level runs top-down
    (each frontier node hands its bits to its neighbours) or, once the
    frontier is large (see ``_bottom_up``), bottom-up (each node that still
    misses some source ORs together its neighbours' frontier bits, in C):
    Beamer, Asanović & Patterson, SC 2012.  Both reach the same bits, so the
    sum does not depend on the choice."""
    frontier = {source: 1 << i for i, source in enumerate(sources)}
    unseen = [(1 << len(sources)) - 1] * len(adj)
    for source, bit in frontier.items():
        unseen[source] ^= bit
    pending = range(len(adj)) if nodes is None else nodes
    total = level = 0
    while frontier:
        level += 1
        reached: dict[int, int] = {}
        if _bottom_up(len(frontier), len(pending)):
            # Only a bottom-up level walks the pending nodes, so only it
            # drops those that have no unseen bit left.
            pending = list(compress(pending, map(unseen.__getitem__, pending)))
            frontier_bits = [0] * len(adj)
            for u, bits in frontier.items():
                frontier_bits[u] = bits
            bits_of = frontier_bits.__getitem__
            for w in pending:
                new = unseen[w] & reduce(or_, map(bits_of, adj[w]), 0)
                if new:
                    unseen[w] ^= new
                    reached[w] = new
        else:
            for u, bits in frontier.items():
                for w in adj[u]:
                    new = bits & unseen[w]
                    if new:
                        unseen[w] ^= new
                        reached[w] = reached.get(w, 0) | new
        total += level * sum(map(int.bit_count, reached.values()))
        frontier = reached
    return total


def aspl(graph: InteractionGraph | Adjacency, component_nodes: Sequence[int], *,
         sample_sources: int | None = None, seed: int = 0) -> float:
    """Mean shortest-path length over node pairs of one connected component.

    Exact by default (a BFS from every node).  With ``sample_sources``
    k < |C| the mean is estimated from k seeded-random BFS sources, each
    against all other nodes.  Sources run in multi-source BFS batches of
    ``max(_BATCH_WIDTH, _BATCH_BITS // |C|)``, the same memory at every
    component size: exact ASPL on up to about 7k nodes is one batch."""
    if sample_sources is not None and sample_sources < 1:
        raise ValueError(f"sample_sources must be >= 1, got {sample_sources}")
    nodes = sorted(component_nodes)
    k = len(nodes)
    if k < 2:
        raise UndefinedMetricError(
            "path length is undefined on components of fewer than 2 nodes")
    if sample_sources is not None and sample_sources < k:
        sources = random.Random(seed).sample(nodes, sample_sources)
    else:
        sources = nodes

    width = max(_BATCH_WIDTH, _BATCH_BITS // k)
    rows = list(map(list, graph.adj))  # BFS walks lists faster than sets
    total = sum(_distance_sum(rows, sources[i:i + width], nodes)
                for i in range(0, len(sources), width))
    return total / (len(sources) * (k - 1))


def graph_fingerprint(graph: InteractionGraph) -> str:
    """SHA-256 of everything ``analyze`` reads: the node count, the
    ``in_tx``/``out_tx`` counters, each node's degree and its neighbour IDs
    in adjacency order, as little-endian 64-bit integers.  Keys, chain and
    amounts are left out, since no metric depends on them.

    Both graph file readers list neighbours in ascending order, so a graph's
    JSON and Pajek files give one fingerprint; graphs that differ only in
    neighbour order may not, which costs a recomputation, never a wrong
    report."""
    ints = array("q", [graph.node_count])
    ints.extend(graph.in_tx)
    ints.extend(graph.out_tx)
    ints.extend(map(len, graph.adj))
    ints.extend(chain.from_iterable(graph.adj))
    if sys.byteorder == "big":
        ints.byteswap()
    return hashlib.sha256(ints).hexdigest()


def analyze(graph: InteractionGraph | Adjacency, worker_count: int = 1, *,
            sample_sources: int | None = None, seed: int = 0) -> MetricsReport:
    """Full metric sweep over one graph.

    The result is a pure function of what ``graph_fingerprint`` hashes (plus
    the sampling knobs), which is how ``compare`` on the CLI knows it may
    reuse a report instead of running this again.  Main-component ASPL takes
    most of the time; see ``aspl``.  ``worker_count`` has no effect, since
    analysis runs on one thread; existing callers may still pass it."""
    if worker_count < 1:
        raise ValueError(f"worker count must be >= 1, got {worker_count}")
    if sample_sources is not None and sample_sources < 1:
        raise ValueError(f"sample_sources must be >= 1, got {sample_sources}")
    n = len(graph.adj) - 1
    m = sum(map(len, graph.adj)) // 2
    report = MetricsReport(node_count=n, edge_count=m,
                           avg_degree=(2.0 * m / n) if n else 0.0)

    clock = time.perf_counter
    start = clock()
    report.degrees = degree_distributions(graph)
    report.timings["degrees"] = clock() - start

    start = clock()
    census, labels = connected_components(graph)
    report.components = census
    report.timings["components"] = clock() - start
    main = [v for v in range(1, n + 1) if labels[v] == 0]
    if census.main_component_size:
        report.max_degree_fraction_of_main_component = (
            report.degrees.max_degree / census.main_component_size)

    start = clock()
    if n:
        # One value per node, at index node - 1, serves both means.
        local = _clustering(_neighbour_sets(graph), range(1, n + 1))
        report.graph_acc = _mean_clustering(local)
        report.main_component_acc = _mean_clustering([local[v - 1] for v in main])
    report.timings["clustering"] = clock() - start

    start = clock()
    if len(main) >= 2:
        sampled = sample_sources is not None and sample_sources < len(main)
        report.aspl_method = "sampled" if sampled else "exact"
        report.aspl_sample_sources = sample_sources if sampled else None
        report.main_component_aspl = aspl(graph, main,
                                          sample_sources=sample_sources, seed=seed)
    report.timings["aspl"] = clock() - start
    return report
