"""Small-world classification against an Erdős–Rényi baseline.

A network is small-world when it clusters far more than a random graph of
the same size while keeping paths about as short.  The baseline is G(n, m)
with n and m taken from the subject graph; ratios use main-component ACC and
ASPL on both sides, because that is where path lengths are defined and where
the published reference values come from.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import asdict, dataclass

from .errors import ErSpecError, UndefinedMetricError
from .graph import InteractionGraph
from .metrics import Adjacency, MetricsReport, analyze

DEFAULT_ACC_THRESHOLD = 2.0
DEFAULT_ASPL_THRESHOLD = 1.5


@dataclass(frozen=True)
class ErSpec:
    """Parameters of one G(n, m) draw."""

    n: int
    m: int
    seed: int = 0
    samples: int = 1

    def __post_init__(self):
        if self.n < 0:
            raise ErSpecError(f"node count must be >= 0, got {self.n}")
        pairs = self.n * (self.n - 1) // 2
        if not 0 <= self.m <= pairs:
            raise ErSpecError(f"edge count {self.m} outside 0..{pairs} for n={self.n}")
        if self.samples < 1:
            raise ErSpecError(f"samples must be >= 1, got {self.samples}")


class _OrderedRow(dict):
    def add(self, b: int) -> None:  # an ordered neighbour set, each amount 1
        self[b] = 1


def _draw(n: int, m: int, seed: int, row: type = set) -> list:
    """The seeded G(n, m) draw as neighbour rows (index 0 unused): rejection
    sampling of pairs, each end ``randrange(1, n + 1)`` spelt out as the
    ``getrandbits`` loop ``randrange`` runs, which gives the same draws faster."""
    adj = [row() for _ in range(n + 1)]
    bits = random.Random(seed).getrandbits
    k = n.bit_length()
    added = 0
    while added < m:
        while (a := bits(k) + 1) > n:
            pass
        while (b := bits(k) + 1) > n:
            pass
        if a != b and b not in adj[a]:
            adj[a].add(b)
            adj[b].add(a)
            added += 1
    return adj


def generate_er_gnm(spec: ErSpec) -> InteractionGraph:
    """Uniform random simple graph with exactly n nodes and m edges: the
    draw ``compare`` analyses, as nodes ``v1``..``vn`` with neighbours in
    draw order and amount 1 on every edge.  The seed fixes the result."""
    graph = InteractionGraph()
    for i in range(1, spec.n + 1):
        graph.intern_node(f"v{i}")
    graph.adj = _draw(spec.n, spec.m, spec.seed, _OrderedRow)
    return graph


@dataclass
class SmallWorldVerdict:
    acc_ratio: float
    aspl_ratio: float
    acc_threshold: float
    aspl_threshold: float
    is_small_world: bool
    baseline_acc_stats: dict | None = None
    baseline_aspl_stats: dict | None = None

    def to_json_dict(self) -> dict:
        """Strict JSON: an infinite ACC ratio is null plus ``acc_ratio_infinite``."""
        doc = asdict(self)
        if math.isinf(self.acc_ratio):
            doc["acc_ratio"] = None
            doc["acc_ratio_infinite"] = True
        return doc


def _stats(values: list[float]) -> dict:
    return {"mean": sum(values) / len(values),
            "min": min(values), "max": max(values)}


def small_world_verdict(subject: MetricsReport,
                        baselines: MetricsReport | list[MetricsReport],
                        acc_threshold: float = DEFAULT_ACC_THRESHOLD,
                        aspl_threshold: float = DEFAULT_ASPL_THRESHOLD,
                        ) -> SmallWorldVerdict:
    """Classify from main-component ACC and ASPL ratios.

    With several baseline samples the ratios use the sample means.  A
    baseline that happens to have zero clustering gives an infinite ACC
    ratio, which passes the "far above random" condition vacuously."""
    if isinstance(baselines, MetricsReport):
        baselines = [baselines]
    if not baselines:
        raise UndefinedMetricError("no baseline reports given")
    for report, side in [(subject, "subject")] + [(b, "baseline") for b in baselines]:
        if report.main_component_acc is None or report.main_component_aspl is None:
            raise UndefinedMetricError(
                f"{side} lacks a defined main-component ACC/ASPL")

    accs = [b.main_component_acc for b in baselines]
    aspls = [b.main_component_aspl for b in baselines]
    acc_base = sum(accs) / len(accs)
    aspl_base = sum(aspls) / len(aspls)
    acc_ratio = (float("inf") if acc_base == 0
                 else subject.main_component_acc / acc_base)
    aspl_ratio = subject.main_component_aspl / aspl_base
    verdict = SmallWorldVerdict(
        acc_ratio, aspl_ratio, acc_threshold, aspl_threshold,
        is_small_world=acc_ratio >= acc_threshold and aspl_ratio <= aspl_threshold)
    if len(baselines) > 1:
        verdict.baseline_acc_stats = _stats(accs)
        verdict.baseline_aspl_stats = _stats(aspls)
    return verdict


@dataclass
class ComparisonReport:
    subject: MetricsReport
    baseline_spec: ErSpec
    baseline_seeds: list[int]
    baselines: list[MetricsReport]
    verdict: SmallWorldVerdict

    def to_json_dict(self) -> dict:
        return {
            "subject": self.subject.to_json_dict(),
            "baseline": {
                "model": "erdos-renyi-gnm",
                **asdict(self.baseline_spec),
                "sample_seeds": self.baseline_seeds,
                "reports": [b.to_json_dict() for b in self.baselines],
            },
            "verdict": self.verdict.to_json_dict(),
        }


def compare(subject_graph: InteractionGraph | None, *, seed: int = 0, samples: int = 1,
            acc_threshold: float = DEFAULT_ACC_THRESHOLD,
            aspl_threshold: float = DEFAULT_ASPL_THRESHOLD,
            sample_sources: int | None = None,
            subject: MetricsReport | None = None) -> ComparisonReport:
    """Analyze the subject, its size-matched ER baseline(s), and classify.

    ``subject``, when given, must be ``analyze(subject_graph,
    sample_sources=sample_sources, seed=seed)`` computed earlier; it is used
    instead of analysing the subject again, and ``subject_graph`` may be
    None.  Baseline sample i uses seed + i, so multi-sample runs stay
    reproducible from the one recorded seed.  A
    baseline is analysed as an ``Adjacency`` with zero activity counters,
    and its report's timings add the draw's as ``"generate"``."""
    if subject is None:
        subject = analyze(subject_graph, sample_sources=sample_sources, seed=seed)
    spec = ErSpec(n=subject.node_count, m=subject.edge_count,
                  seed=seed, samples=samples)
    seeds = [seed + i for i in range(samples)]
    counters = [0] * (spec.n + 1)
    baselines = []
    for sample_seed in seeds:
        start = time.perf_counter()
        adj = _draw(spec.n, spec.m, sample_seed)
        drawn = time.perf_counter() - start
        report = analyze(Adjacency(adj, counters, counters),
                         sample_sources=sample_sources, seed=sample_seed)
        report.timings = {"generate": drawn, **report.timings}
        baselines.append(report)
    verdict = small_world_verdict(subject, baselines, acc_threshold, aspl_threshold)
    return ComparisonReport(subject=subject, baseline_spec=spec,
                            baseline_seeds=seeds, baselines=baselines,
                            verdict=verdict)
