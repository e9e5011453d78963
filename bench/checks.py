"""Output checks for the benchmark, run outside the timed region.

Each check raises ``CheckFailed`` with one line saying what is wrong.  The
first pipeline run of a measured run is checked in full against the
generator's bookkeeping (and, for workloads that ask for it, against
networkx and scipy); later pipeline runs must reproduce the first one's
graph files byte for byte and its reports value for value.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

from ledger import Ledger

_PAJEK_VERTEX = re.compile(r'^(\d+) "(.*)"$')


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _load(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _stable(doc):
    """The report without fields that differ between identical runs."""
    if isinstance(doc, dict):
        return {k: _stable(v) for k, v in doc.items()
                if k not in ("generated_at", "graph_file", "timings_seconds")}
    if isinstance(doc, list):
        return [_stable(v) for v in doc]
    return doc


def read_json_graph(path: Path) -> tuple[set[str], set[tuple[str, str]]]:
    doc = _load(path)
    pairs = {(a, b) if a < b else (b, a) for a, b, _ in doc["edges"]}
    _require(len(pairs) == len(doc["edges"]), f"{path.name}: repeated edges")
    return set(doc["vertices"]), pairs


def read_pajek_graph(path: Path) -> tuple[set[str], set[tuple[str, str]]]:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    count = int(lines[0].split()[1])
    keys = [None]
    for line in lines[1:count + 1]:
        match = _PAJEK_VERTEX.match(line)
        _require(match is not None, f"{path.name}: bad vertex line {line!r}")
        keys.append(match.group(2))
    _require(lines[count + 1] == "*Edges", f"{path.name}: no *Edges section")
    pairs = set()
    for line in lines[count + 2:]:
        a, b, _ = (int(x) for x in line.split())
        ka, kb = keys[a], keys[b]
        pairs.add((ka, kb) if ka < kb else (kb, ka))
    _require(len(pairs) == len(lines) - count - 2, f"{path.name}: repeated edges")
    return set(keys[1:]), pairs


class Reference:
    """Exact values of the subject graph and its first G(n, m) baseline,
    computed once per seed without ledgernet's metrics code."""

    def __init__(self, ledger: Ledger, baseline_seed: int):
        import networkx as nx
        import numpy as np
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import shortest_path

        from ledgernet.baseline import ErSpec, generate_er_gnm

        subject = nx.Graph()
        subject.add_nodes_from(ledger.nodes)
        subject.add_edges_from(ledger.pairs)
        components = sorted(nx.connected_components(subject), key=len, reverse=True)
        self.component_sizes = [len(c) for c in components]
        main = sorted(components[0])
        self.main_acc = nx.average_clustering(subject, nodes=main)

        index = {key: i for i, key in enumerate(main)}
        rows = [index[a] for a, b in ledger.pairs if a in index]
        cols = [index[b] for a, b in ledger.pairs if a in index]
        k = len(main)
        adjacency = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(k, k))
        distances = shortest_path(adjacency, method="D", directed=False,
                                  unweighted=True)
        self.main_aspl = int(distances.sum()) / (k * (k - 1))

        er = generate_er_gnm(ErSpec(len(ledger.nodes), len(ledger.pairs),
                                    baseline_seed))
        er_graph = nx.Graph()
        er_graph.add_nodes_from(er.node_ids())
        er_graph.add_edges_from(er.edges)
        self.baseline_component_sizes = sorted(
            (len(c) for c in nx.connected_components(er_graph)), reverse=True)


class Checker:
    """Checks the artifacts of successive pipeline runs on one ledger."""

    def __init__(self, ledger: Ledger, reference: Reference | None = None):
        self.ledger = ledger
        self.reference = reference
        self.first: dict[str, object] = {}

    def _same_as_first(self, key: str, value, what: str) -> None:
        if key not in self.first:
            self.first[key] = value
        else:
            _require(value == self.first[key],
                     f"{what} differs from the first pipeline run")

    def download(self, out: Path) -> None:
        doc = _load(out / "download_summary.json")
        shape = self.ledger.shape
        _require(doc["blocks_fetched"] == shape.blocks,
                 f"fetched {doc['blocks_fetched']} blocks, expected {shape.blocks}")
        _require(doc["transactions_written"] == shape.transactions,
                 f"wrote {doc['transactions_written']} transactions, "
                 f"expected {shape.transactions}")
        _require(doc["chunks_done"] == doc["chunks_total"] and not doc["interrupted"],
                 "download is incomplete")

    def build(self, out: Path) -> None:
        files = {"json": out / "graph.json", "pajek": out / "graph.pajek"}
        digests = {fmt: _sha256(path) for fmt, path in files.items()}
        if "graph" not in self.first:
            readers = {"json": read_json_graph, "pajek": read_pajek_graph}
            for fmt, path in files.items():
                nodes, pairs = readers[fmt](path)
                _require(len(nodes) == len(self.ledger.nodes)
                         and len(pairs) == len(self.ledger.pairs),
                         f"{path.name} has {len(nodes)} nodes and {len(pairs)} "
                         f"edges, expected {len(self.ledger.nodes)} and "
                         f"{len(self.ledger.pairs)}")
                _require(nodes == self.ledger.nodes, f"{path.name}: wrong vertex set")
                _require(pairs == self.ledger.pairs, f"{path.name}: wrong edge set")
        self._same_as_first("graph", digests, "graph file bytes")

    def _subject(self, report: dict, what: str) -> None:
        _require(report["node_count"] == len(self.ledger.nodes)
                 and report["edge_count"] == len(self.ledger.pairs),
                 f"{what}: {report['node_count']} nodes and {report['edge_count']} "
                 f"edges, expected {len(self.ledger.nodes)} and "
                 f"{len(self.ledger.pairs)}")
        ref = self.reference
        if ref is None:
            return
        _require(report["components"]["sizes"] == ref.component_sizes,
                 f"{what}: component sizes differ from networkx")
        _require(math.isclose(report["main_component_acc"], ref.main_acc,
                              rel_tol=1e-12),
                 f"{what}: main-component ACC {report['main_component_acc']} "
                 f"!= networkx {ref.main_acc}")
        if report["aspl_method"] == "exact":
            _require(math.isclose(report["main_component_aspl"], ref.main_aspl,
                                  rel_tol=1e-12),
                     f"{what}: exact ASPL {report['main_component_aspl']} "
                     f"!= scipy all-pairs BFS {ref.main_aspl}")

    def analyze(self, out: Path) -> None:
        doc = _load(out / "metrics.json")
        self._subject(doc, "metrics.json")
        self._same_as_first("metrics", _stable(doc), "metrics.json")

    def compare(self, out: Path) -> None:
        doc = _load(out / "comparison.json")
        self._subject(doc["subject"], "comparison.json subject")
        base = doc["baseline"]
        _require(base["n"] == len(self.ledger.nodes)
                 and base["m"] == len(self.ledger.pairs)
                 and len(base["reports"]) == 1,
                 "comparison.json: baseline does not match the subject's size")
        if self.reference is not None:
            _require(base["reports"][0]["components"]["sizes"]
                     == self.reference.baseline_component_sizes,
                     "comparison.json: baseline component sizes differ from networkx")
        _require(isinstance(doc["verdict"]["is_small_world"], bool),
                 "comparison.json: no verdict")
        self._same_as_first("comparison", _stable(doc), "comparison.json")
