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
from dataclasses import dataclass

from .errors import ErSpecError, UndefinedMetricError
from .graph import InteractionGraph
from .metrics import MetricsReport, analyze

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
            raise ErSpecError(
                f"edge count {self.m} outside 0..{pairs} for n={self.n}")
        if self.samples < 1:
            raise ErSpecError(f"samples must be >= 1, got {self.samples}")


def generate_er_gnm(spec: ErSpec) -> InteractionGraph:
    """Uniform random simple graph with exactly n nodes and m edges.

    Edges are drawn by rejection sampling over unordered pairs; the result is
    fully determined by the seed.
    """
    graph = InteractionGraph()
    for i in range(1, spec.n + 1):
        graph.intern_node(f"v{i}")
    draw = random.Random(spec.seed).randrange
    insert = graph.insert_edge
    added = 0
    while added < spec.m:
        a = draw(1, spec.n + 1)
        b = draw(1, spec.n + 1)
        if a != b:
            added += insert(a, b, 1, 1)
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
        """Strict JSON: an infinite ACC ratio is written as null plus
        ``"acc_ratio_infinite": true``."""
        infinite = math.isinf(self.acc_ratio)
        doc = {
            "acc_ratio": None if infinite else self.acc_ratio,
            "aspl_ratio": self.aspl_ratio,
            "acc_threshold": self.acc_threshold,
            "aspl_threshold": self.aspl_threshold,
            "is_small_world": self.is_small_world,
            "baseline_acc_stats": self.baseline_acc_stats,
            "baseline_aspl_stats": self.baseline_aspl_stats,
        }
        if infinite:
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
    ratio, which passes the "far above random" condition vacuously.
    """
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
        acc_ratio=acc_ratio,
        aspl_ratio=aspl_ratio,
        acc_threshold=acc_threshold,
        aspl_threshold=aspl_threshold,
        is_small_world=(acc_ratio >= acc_threshold
                        and aspl_ratio <= aspl_threshold),
    )
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
                "n": self.baseline_spec.n,
                "m": self.baseline_spec.m,
                "seed": self.baseline_spec.seed,
                "samples": self.baseline_spec.samples,
                "sample_seeds": self.baseline_seeds,
                "reports": [b.to_json_dict() for b in self.baselines],
            },
            "verdict": self.verdict.to_json_dict(),
        }


def compare(subject_graph: InteractionGraph, *, seed: int = 0, samples: int = 1,
            acc_threshold: float = DEFAULT_ACC_THRESHOLD,
            aspl_threshold: float = DEFAULT_ASPL_THRESHOLD,
            sample_sources: int | None = None,
            subject: MetricsReport | None = None) -> ComparisonReport:
    """Analyze the subject, its size-matched ER baseline(s), and classify.

    ``subject``, when given, must be ``analyze(subject_graph,
    sample_sources=sample_sources, seed=seed)`` computed earlier; it is used
    instead of analysing the subject again.  Baseline sample i uses seed + i,
    so multi-sample runs stay reproducible from the one recorded seed.
    """
    if subject is None:
        subject = analyze(subject_graph, sample_sources=sample_sources, seed=seed)
    spec = ErSpec(n=subject.node_count, m=subject.edge_count,
                  seed=seed, samples=samples)
    seeds = [seed + i for i in range(samples)]
    baselines = []
    for sample_seed in seeds:
        er_graph = generate_er_gnm(ErSpec(spec.n, spec.m, sample_seed))
        baselines.append(analyze(er_graph, sample_sources=sample_sources,
                                 seed=sample_seed))
    verdict = small_world_verdict(subject, baselines, acc_threshold, aspl_threshold)
    return ComparisonReport(subject=subject, baseline_spec=spec,
                            baseline_seeds=seeds, baselines=baselines,
                            verdict=verdict)
