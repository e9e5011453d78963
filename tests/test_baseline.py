import functools
import math
import random

import pytest

from ledgernet import (
    ErSpec,
    ErSpecError,
    InteractionGraph,
    MetricsReport,
    UndefinedMetricError,
    analyze,
    average_clustering,
    compare,
    export_pajek,
    generate_er_gnm,
    small_world_verdict,
)
from ledgernet import baseline
from ledgernet.baseline import DEFAULT_ACC_THRESHOLD, DEFAULT_ASPL_THRESHOLD

import oracles


def report(acc, aspl):
    return MetricsReport(main_component_acc=acc, main_component_aspl=aspl)


class TestErSpec:
    def test_accepts_boundary_edge_counts(self):
        ErSpec(5, 0)
        ErSpec(5, 10)

    @pytest.mark.parametrize("n, m, samples", [
        (-1, 0, 1), (5, -1, 1), (5, 11, 1), (1, 1, 1), (5, 3, 0),
    ])
    def test_rejects_bad_parameters(self, n, m, samples):
        with pytest.raises(ErSpecError):
            ErSpec(n, m, samples=samples)


class TestGenerateErGnm:
    def test_saturation_forces_complete_graph(self):
        g = generate_er_gnm(ErSpec(5, 10))
        assert g.edge_count == 10
        assert all(g.degree(v) == 4 for v in g.node_ids())

    def test_zero_edges(self):
        g = generate_er_gnm(ErSpec(100, 0))
        assert g.node_count == 100
        assert g.edge_count == 0

    def test_exact_count_and_seed_determinism(self, tmp_path):
        spec = ErSpec(1000, 2000, seed=99)
        g = generate_er_gnm(spec)
        assert g.edge_count == 2000
        assert 2 * g.edge_count / g.node_count == 4.0
        again = generate_er_gnm(spec)
        assert again.edge_triples() == g.edge_triples()
        first, second = tmp_path / "a.pajek", tmp_path / "b.pajek"
        export_pajek(g, first)
        export_pajek(again, second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("n, m, seed", [
        (0, 0, 0), (2, 1, 3), (5, 10, 0), (40, 780, 11), (40, 770, 12),
        (300, 1200, 7), (1000, 2000, 99),
    ])
    def test_matches_the_record_edge_loop(self, n, m, seed):
        g = generate_er_gnm(ErSpec(n, m, seed))
        ref = oracles.er_gnm_reference(n, m, seed)
        assert g.keys == ref.keys
        assert g._ids == ref._ids
        assert list(g.edges.items()) == list(ref.edges.items())
        # Equal neighbour maps can iterate in different orders, since a dict
        # keeps insertion order; BFS and clustering walk these maps, so the
        # order must match too.
        assert [list(s) for s in g.adj] == [list(s) for s in ref.adj]

    def test_different_seeds_differ(self):
        a = generate_er_gnm(ErSpec(50, 100, seed=1))
        b = generate_er_gnm(ErSpec(50, 100, seed=2))
        assert a.edge_triples() != b.edge_triples()

    def test_no_self_loops_or_duplicates(self):
        rng = random.Random(6)
        for _ in range(50):
            n = rng.randrange(2, 40)
            m = rng.randrange(0, n * (n - 1) // 2 + 1)
            g = generate_er_gnm(ErSpec(n, m, seed=rng.getrandbits(32)))
            assert g.edge_count == m
            assert all(a < b for a, b in g.edges)

    def test_clustering_concentrates_near_edge_density(self):
        # for G(n, m) the expected local clustering is the edge density p
        n = 500
        m = round(0.05 * n * (n - 1) / 2)
        p = 2 * m / (n * (n - 1))
        accs = [average_clustering(generate_er_gnm(ErSpec(n, m, seed=s)))
                for s in range(20)]
        mean = sum(accs) / len(accs)
        assert abs(mean - p) / p < 0.30


class TestSmallWorldVerdict:
    def test_published_small_world_case(self):
        verdict = small_world_verdict(report(0.02134, 1.4256),
                                      report(0.000015, 10.3584))
        assert 1400 <= verdict.acc_ratio <= 1550
        assert abs(verdict.aspl_ratio - 0.1376) <= 0.005
        assert verdict.is_small_world

    def test_published_non_small_world_case(self):
        verdict = small_world_verdict(report(0.024, 190.4879),
                                      report(0.000029, 6.461))
        assert abs(verdict.acc_ratio - 827.6) <= 1
        assert abs(verdict.aspl_ratio - 29.48) <= 0.05
        assert not verdict.is_small_world

    def test_self_comparison_is_not_small_world(self):
        subject = report(0.31, 2.7)
        verdict = small_world_verdict(subject, report(0.31, 2.7))
        assert verdict.acc_ratio == 1.0
        assert verdict.aspl_ratio == 1.0
        assert not verdict.is_small_world
        assert DEFAULT_ACC_THRESHOLD > 1

    def test_zero_baseline_clustering_passes_vacuously(self):
        verdict = small_world_verdict(report(0.4, 2.0), report(0.0, 2.1))
        assert verdict.acc_ratio == float("inf")
        assert verdict.is_small_world

    def test_undefined_metrics_raise(self):
        with pytest.raises(UndefinedMetricError):
            small_world_verdict(MetricsReport(), report(0.1, 2.0))
        with pytest.raises(UndefinedMetricError):
            small_world_verdict(report(0.1, 2.0), MetricsReport())
        with pytest.raises(UndefinedMetricError):
            small_world_verdict(report(0.1, 2.0), [])

    def test_threshold_monotonicity(self):
        rng = random.Random(8)
        thresholds = [0.5, 1.0, 1.1, 2.0, 5.0, 10.0, 100.0]
        for _ in range(50):
            subject = report(rng.uniform(0.001, 0.5), rng.uniform(1.0, 30.0))
            base = report(rng.uniform(0.001, 0.5), rng.uniform(1.0, 30.0))
            for aspl_threshold in thresholds:
                flags = [small_world_verdict(subject, base, t, aspl_threshold)
                         .is_small_world for t in thresholds]
                # raising the ACC bar can only turn verdicts off
                assert flags == sorted(flags, reverse=True)
            for acc_threshold in thresholds:
                flags = [small_world_verdict(subject, base, acc_threshold, t)
                         .is_small_world for t in thresholds]
                # relaxing the ASPL bar can only turn verdicts on
                assert flags == sorted(flags)

    def test_multi_sample_ratios_use_the_mean(self):
        baselines = [report(0.01, 2.0), report(0.03, 4.0)]
        verdict = small_world_verdict(report(0.10, 3.0), baselines)
        assert math.isclose(verdict.acc_ratio, 0.10 / 0.02)
        assert math.isclose(verdict.aspl_ratio, 1.0)
        assert verdict.baseline_acc_stats == {"mean": 0.02, "min": 0.01, "max": 0.03}
        assert verdict.baseline_aspl_stats == {"mean": 3.0, "min": 2.0, "max": 4.0}

    def test_single_sample_has_no_stats(self):
        verdict = small_world_verdict(report(0.1, 2.0), report(0.05, 2.0))
        assert verdict.baseline_acc_stats is None
        assert verdict.baseline_aspl_stats is None


class TestCompare:
    def test_rewired_ring_is_small_world(self):
        result = compare(oracles.rewired_ring(30, 4, 0.1, seed=0), seed=0)
        assert result.verdict.is_small_world
        assert result.verdict.acc_ratio >= DEFAULT_ACC_THRESHOLD
        assert result.verdict.aspl_ratio <= DEFAULT_ASPL_THRESHOLD

    def test_random_graph_is_not_small_world(self):
        subject = generate_er_gnm(ErSpec(30, 60, seed=0))
        result = compare(subject, seed=2)
        assert not result.verdict.is_small_world

    def test_complete_k10_compares_to_itself(self):
        result = compare(oracles.complete_graph(10), seed=5)
        assert result.baseline_spec.n == 10
        assert result.baseline_spec.m == 45
        assert result.verdict.acc_ratio == 1.0
        assert result.verdict.aspl_ratio == 1.0
        assert not result.verdict.is_small_world

    def test_baseline_matches_subject_size(self):
        subject = oracles.rewired_ring(20, 4, 0.1, seed=3)
        result = compare(subject, seed=11, samples=3)
        assert result.baseline_spec.n == subject.node_count
        assert result.baseline_spec.m == subject.edge_count
        assert result.baseline_seeds == [11, 12, 13]
        assert len(result.baselines) == 3
        for baseline in result.baselines:
            assert baseline.node_count == subject.node_count
            assert baseline.edge_count == subject.edge_count
        assert result.verdict.baseline_acc_stats is not None


def complete_edge_count(n):
    return n * (n - 1) // 2


# m from 0 up to the complete graph, for each n
BASELINE_CASES = [(n, m) for n, ms in [
    (2, [0, 1]), (3, [0, 1, 2, 3]), (30, [0, 1, 29, 60, 200, 435]),
    (200, [0, 150, 400, 2000, 19900])] for m in ms]


class TestCompareBaselines:
    """``compare`` draws each baseline into neighbour sets; its reports must
    be those of the reference G(n, m) graph of the same seed."""

    @pytest.mark.parametrize("n, m", BASELINE_CASES)
    def test_reports_equal_the_reference_graphs(self, monkeypatch, n, m):
        # the verdict needs defined main-component metrics, which small or
        # empty draws lack; only the baseline reports are checked here
        monkeypatch.setattr(baseline, "small_world_verdict", lambda *args: None)
        cheap = m < complete_edge_count(200)
        reference = functools.cache(lambda s: oracles.er_gnm_reference(n, m, s))
        expected = functools.cache(lambda s, sources: analyze(
            reference(s), sample_sources=sources, seed=s))
        subject = MetricsReport(node_count=n, edge_count=m)
        for seed in (0, 7, 123) if cheap else (5,):
            for samples in (1, 3) if cheap else (1,):
                for sources in (None, 5):  # exact, and sampled above 5 nodes
                    result = compare(None, seed=seed, samples=samples,
                                     sample_sources=sources, subject=subject)
                    assert result.baseline_seeds == list(range(seed, seed + samples))
                    assert [(r.node_count, r.edge_count) for r in result.baselines] \
                        == [(n, m)] * samples
                    for report, s in zip(result.baselines, result.baseline_seeds):
                        assert report == expected(s, sources)  # timings aside

    def test_builds_no_graph_for_a_baseline(self, monkeypatch):
        subject = oracles.rewired_ring(30, 4, 0.1, seed=0)
        built = []
        init = InteractionGraph.__init__

        def counted(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)
        monkeypatch.setattr(InteractionGraph, "__init__", counted)
        result = compare(subject, seed=3, samples=2)
        assert len(result.baselines) == 2
        assert built == []
        generate_er_gnm(ErSpec(4, 2))  # the counter does see a graph
        assert built == ["InteractionGraph"]

    def test_baseline_timings_add_the_draw(self):
        result = compare(oracles.rewired_ring(30, 4, 0.1, seed=0), samples=2)
        assert list(result.subject.timings) == [
            "degrees", "components", "clustering", "aspl"]
        for report in result.baselines:
            assert list(report.timings) == [
                "generate", "degrees", "components", "clustering", "aspl"]
            assert all(t >= 0 for t in report.timings.values())
