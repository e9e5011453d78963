import itertools
import json
import math
import random
import tracemalloc

import pytest

from ledgernet import (
    Chain,
    InteractionGraph,
    MetricsReport,
    Transaction,
    UndefinedMetricError,
    analyze,
    aspl,
    average_clustering,
    build_graph,
    canonicalize_address,
    connected_components,
    degree_distributions,
)
from ledgernet import metrics
from ledgernet.metrics import Adjacency

import oracles


def triangle_with_pendant():
    # triangle A,B,C plus pendant D hanging off A
    return oracles.graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])


def star(leaves):
    return oracles.graph_from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def assert_close(actual, expected):
    assert math.isclose(actual, expected, rel_tol=1e-12, abs_tol=1e-12), \
        f"{actual} != {expected}"


class TestDegreeDistributions:
    def test_hand_counted_example(self):
        a, b, c = ("0x" + d * 40 for d in "abc")
        eth = Chain.ETHEREUM
        txs = [
            Transaction(canonicalize_address(a, eth), canonicalize_address(b, eth),
                        1, 0, 0),
            Transaction(canonicalize_address(a, eth), canonicalize_address(c, eth),
                        1, 0, 0),
        ]
        report = degree_distributions(build_graph(txs, eth))
        assert report.out_histogram == {0: 2, 2: 1}
        assert report.in_histogram == {0: 1, 1: 2}
        assert report.total_histogram == {1: 2, 2: 1}
        assert_close(report.zero_in_fraction, 1 / 3)
        assert_close(report.zero_out_fraction, 2 / 3)
        assert report.max_degree == 2
        assert_close(report.max_degree_fraction_of_nodes, 2 / 3)

    def test_empty_graph(self):
        report = degree_distributions(InteractionGraph())
        assert report.in_histogram == {}
        assert report.out_histogram == {}
        assert report.total_histogram == {}
        assert report.max_degree == 0

    def test_histograms_sum_to_node_count(self):
        rng = random.Random(3)
        for _ in range(10):
            g = build_graph(oracles.random_transactions(rng), Chain.ETHEREUM)
            report = degree_distributions(g)
            for hist in (report.in_histogram, report.out_histogram,
                         report.total_histogram):
                assert sum(hist.values()) == g.node_count

    def test_matches_naive_recount(self):
        rng = random.Random(17)
        txs = oracles.random_transactions(rng, count=100)
        g = build_graph(txs, Chain.ETHEREUM)
        in_counts, out_counts = oracles.recount_degrees(txs)
        report = degree_distributions(g)
        in_hist = {}
        for count in in_counts.values():
            in_hist[count] = in_hist.get(count, 0) + 1
        out_hist = {}
        for count in out_counts.values():
            out_hist[count] = out_hist.get(count, 0) + 1
        assert report.in_histogram == in_hist
        assert report.out_histogram == out_hist


class TestConnectedComponents:
    def test_two_disjoint_edges(self):
        g = oracles.graph_from_edges(4, [(0, 1), (2, 3)])
        census, _ = connected_components(g)
        assert census.sizes == [2, 2]
        assert census.count == 2
        assert_close(census.main_component_fraction, 0.5)

    def test_path_is_one_component(self):
        census, labels = connected_components(oracles.path_graph(3))
        assert census.sizes == [3]
        assert labels[1:] == [0, 0, 0]

    def test_matches_dfs_oracle(self):
        rng = random.Random(23)
        g = oracles.graph_from_edges(200, oracles.random_gnm_edge_set(rng, 200, 100))
        census, labels = connected_components(g)
        expected = oracles.dfs_components(g)
        assert census.count == len(expected)
        assert census.sizes == sorted((len(c) for c in expected), reverse=True)
        assert census.main_component_size == max(len(c) for c in expected)
        # the labeling must induce exactly the oracle's partition
        by_label = {}
        for v in g.node_ids():
            by_label.setdefault(labels[v], set()).add(v)
        assert sorted(by_label.values(), key=sorted) == sorted(expected, key=sorted)
        assert len(by_label[0]) == census.main_component_size

    def test_empty_graph(self):
        census, labels = connected_components(InteractionGraph())
        assert census.count == 0
        assert census.sizes == []
        assert labels == [None]


class TestLocalClustering:
    """A node's local clustering is ``average_clustering`` over that node."""

    def test_triangle_vertex(self):
        g = oracles.complete_graph(3)
        assert average_clustering(g, [1]) == 1.0

    def test_star_center(self):
        assert average_clustering(star(3), [1]) == 0.0

    def test_triangle_with_pendant_by_node(self):
        g = triangle_with_pendant()
        assert_close(average_clustering(g, [1]), 1 / 3)
        assert average_clustering(g, [2]) == 1.0
        assert average_clustering(g, [3]) == 1.0
        assert average_clustering(g, [4]) == 0.0

    def test_unknown_node(self):
        with pytest.raises(LookupError):
            average_clustering(oracles.path_graph(2), [5])

    def test_bounds_on_random_graphs(self):
        rng = random.Random(31)
        g = oracles.random_graph(rng, max_nodes=80)
        for v in g.node_ids():
            assert 0.0 <= average_clustering(g, [v]) <= 1.0


class TestAverageClustering:
    def test_triangle(self):
        assert average_clustering(oracles.complete_graph(3)) == 1.0

    def test_triangle_with_pendant(self):
        assert_close(average_clustering(triangle_with_pendant()), 7 / 12)

    def test_empty_node_set_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            average_clustering(InteractionGraph())

    def test_tree_has_zero_clustering(self):
        assert average_clustering(star(6)) == 0.0
        assert average_clustering(oracles.path_graph(12)) == 0.0

    def test_matches_triple_loop_oracle(self):
        rng = random.Random(37)
        m = round(0.1 * 100 * 99 / 2)
        g = oracles.graph_from_edges(100, oracles.random_gnm_edge_set(rng, 100, m))
        assert_close(average_clustering(g), oracles.naive_average_clustering(g))


class TestAspl:
    def test_three_node_path(self):
        g = oracles.path_graph(3)
        assert_close(aspl(g, [1, 2, 3]), 4 / 3)

    def test_complete_k4(self):
        assert aspl(oracles.complete_graph(4), [1, 2, 3, 4]) == 1.0

    def test_five_cycle(self):
        g = oracles.cycle_graph(5)
        assert aspl(g, list(g.node_ids())) == 1.5

    def test_singleton_component_is_undefined(self):
        g = InteractionGraph()
        g.intern_node("A")
        with pytest.raises(UndefinedMetricError):
            aspl(g, [1])

    def test_matches_bfs_and_floyd_warshall_oracles(self):
        rng = random.Random(41)
        for _ in range(5):
            g = oracles.random_graph(rng, max_nodes=60)
            nodes = sorted(oracles.main_component(g))
            if len(nodes) < 2:
                continue
            mine = aspl(g, nodes)
            assert_close(mine, oracles.naive_aspl_bfs(g, nodes))
            assert_close(mine, oracles.floyd_warshall_aspl(g, nodes))

    def test_sampling_is_seeded_and_labeled_as_estimate(self):
        g = oracles.rewired_ring(40, 4, 0.1, seed=9)
        nodes = sorted(oracles.main_component(g))
        exact = aspl(g, nodes)
        one = aspl(g, nodes, sample_sources=10, seed=5)
        two = aspl(g, nodes, sample_sources=10, seed=5)
        other = aspl(g, nodes, sample_sources=10, seed=6)
        assert one == two
        assert one != exact or other != exact
        assert abs(one - exact) < 1.0
        # asking for at least as many sources as nodes falls back to exact
        assert aspl(g, nodes, sample_sources=len(nodes)) == exact

    @pytest.mark.parametrize("bad", [0, -3])
    def test_sample_sources_below_one_is_rejected(self, bad):
        g = oracles.path_graph(4)
        with pytest.raises(ValueError, match="sample_sources"):
            aspl(g, [1, 2, 3, 4], sample_sources=bad)
        with pytest.raises(ValueError, match="sample_sources"):
            analyze(g, sample_sources=bad)


def bfs_distance_sum(g, sources):
    adj = oracles.adjacency(g)
    return sum(sum(oracles.bfs_distances(adj, s).values()) for s in sources)


class TestMultiSourceBfs:
    """Batched BFS against one plain BFS per source, across batch edges."""

    def test_distance_sum_matches_per_source_bfs(self, monkeypatch):
        monkeypatch.setattr(metrics, "_BATCH_WIDTH", 7)
        monkeypatch.setattr(metrics, "_BATCH_BITS", 0)
        rng = random.Random(59)
        for _ in range(8):
            # sparse draws leave several components, so BFS from some sources
            # never reaches most nodes
            g = oracles.random_graph(rng, max_nodes=90)
            sources = list(g.node_ids())
            rng.shuffle(sources)
            for width in (1, 7, 8, len(sources)):
                batch = sources[:width]
                assert metrics._distance_sum(g.adj, batch) == \
                    bfs_distance_sum(g, batch)

    def test_exact_and_sampled_aspl_match_oracle_across_batches(self,
                                                                monkeypatch):
        monkeypatch.setattr(metrics, "_BATCH_WIDTH", 7)
        monkeypatch.setattr(metrics, "_BATCH_BITS", 0)
        rng = random.Random(61)
        for _ in range(6):
            g = oracles.random_graph(rng, max_nodes=120)
            nodes = sorted(oracles.main_component(g))
            if len(nodes) < 2:
                continue
            assert aspl(g, nodes) == oracles.naive_aspl_bfs(g, nodes)
            for k in (1, 7, 15):
                if k >= len(nodes):
                    continue
                sources = random.Random(3).sample(nodes, k)
                expected = bfs_distance_sum(g, sources) / (k * (len(nodes) - 1))
                assert aspl(g, nodes, sample_sources=k, seed=3) == expected

    def test_cycle_wider_than_one_batch_matches_closed_form(self, monkeypatch):
        # odd cycle C_n: every node sees distances 1..(n-1)/2 twice, so the
        # mean is (n + 1) / 4
        monkeypatch.setattr(metrics, "_BATCH_BITS", 0)
        n = metrics._BATCH_WIDTH + 3
        g = oracles.cycle_graph(n)
        assert aspl(g, list(g.node_ids())) == (n + 1) / 4

    @pytest.mark.parametrize("mode", ["top-down", "bottom-up", "mixed"])
    def test_forced_level_directions_match_per_source_bfs(self, monkeypatch,
                                                          mode):
        rng = random.Random(67)
        picks = {"top-down": itertools.repeat(False),
                 "bottom-up": itertools.repeat(True),
                 "mixed": iter(lambda: rng.random() < 0.5, None)}[mode]
        chosen = []

        def forced(frontier_size, pending_size):
            chosen.append(next(picks))
            return chosen[-1]

        monkeypatch.setattr(metrics, "_bottom_up", forced)
        for _ in range(10):
            n = rng.randrange(2, 120)
            # about one edge per node leaves several components
            g = oracles.graph_from_edges(
                n, oracles.random_gnm_edge_set(rng, n, rng.randrange(n + 1)))
            sources = list(g.node_ids())
            rng.shuffle(sources)
            for width in (1, 5, len(sources)):
                batch = sources[:width]
                assert metrics._distance_sum(g.adj, batch) == \
                    bfs_distance_sum(g, batch)
            for component in oracles.dfs_components(g):
                nodes = sorted(component)
                batch = rng.sample(nodes, rng.randrange(1, len(nodes) + 1))
                assert metrics._distance_sum(g.adj, batch, nodes) == \
                    bfs_distance_sum(g, batch)
        assert set(chosen) == {"top-down": {False}, "bottom-up": {True},
                               "mixed": {False, True}}[mode]

    def test_batch_width_follows_the_memory_budget(self, monkeypatch):
        widths = []
        distance_sum = metrics._distance_sum

        def spy(adj, sources, nodes=None):
            widths.append(len(sources))
            return distance_sum(adj, sources, nodes)

        monkeypatch.setattr(metrics, "_distance_sum", spy)
        monkeypatch.setattr(metrics, "_BATCH_WIDTH", 4)
        monkeypatch.setattr(metrics, "_BATCH_BITS", 100)
        # width = max(4, 100 // component size)
        for n, expected in [(10, [10]), (20, [5, 5, 5, 5]), (30, [4] * 7 + [2])]:
            widths.clear()
            g = oracles.cycle_graph(n)
            aspl(g, list(g.node_ids()))
            assert widths == expected
        widths.clear()
        aspl(oracles.cycle_graph(30), list(range(1, 31)), sample_sources=3)
        assert widths == [3]

    def test_exact_aspl_memory_stays_within_the_batch_budget(self):
        # One exact batch of all ~5k sources on G(5000, 18000): three bitsets
        # of 5k bits per node come to about 10 MB.
        rng = random.Random(71)
        g = oracles.graph_from_edges(
            5000, oracles.random_gnm_edge_set(rng, 5000, 18000))
        nodes = sorted(oracles.main_component(g))
        tracemalloc.start()
        try:
            aspl(g, nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestAdjacency:
    """Every metric reads an ``InteractionGraph`` and the ``Adjacency`` of its
    neighbour sets alike."""

    @staticmethod
    def graphs():
        rng = random.Random(79)
        for i in range(12):
            if i % 2:
                yield oracles.random_graph(rng, max_nodes=90)
            else:  # with activity counters, self-transfers and coinbases
                yield build_graph(oracles.random_transactions(rng, count=120),
                                  Chain.ETHEREUM)

    def test_every_metric_agrees(self):
        for g in self.graphs():
            plain = Adjacency([set(row) for row in g.adj], g.in_tx, g.out_tx)
            assert degree_distributions(plain) == degree_distributions(g)
            assert connected_components(plain) == connected_components(g)
            for v in g.node_ids():
                assert average_clustering(plain, [v]) == average_clustering(g, [v])
            assert average_clustering(plain) == average_clustering(g)
            main = sorted(oracles.main_component(g))
            assert average_clustering(plain, main) == average_clustering(g, main)
            if len(main) > 1:
                assert aspl(plain, main) == aspl(g, main)
                assert aspl(plain, main, sample_sources=3, seed=4) == \
                    aspl(g, main, sample_sources=3, seed=4)
            for sources in (None, 4):
                assert analyze(plain, sample_sources=sources, seed=1) == \
                    analyze(g, sample_sources=sources, seed=1)

    @pytest.mark.parametrize("node", [0, -1, 5])
    def test_unknown_node(self, node):
        g = oracles.path_graph(4)
        plain = Adjacency([set(row) for row in g.adj], g.in_tx, g.out_tx)
        for graph in (g, plain):
            with pytest.raises(LookupError, match=f"^node {node} not in graph$"):
                average_clustering(graph, [node])


class TestAnalyze:
    def test_worker_count_does_not_change_the_report(self):
        g = triangle_with_pendant()
        reports = [analyze(g, workers) for workers in (1, 2, 4)]
        assert reports[0] == reports[1] == reports[2]

    def test_empty_graph_report(self):
        report = analyze(InteractionGraph())
        assert report.node_count == 0
        assert report.edge_count == 0
        assert report.avg_degree == 0.0
        assert report.graph_acc is None
        assert report.main_component_acc is None
        assert report.main_component_aspl is None
        assert report.components.count == 0

    def test_report_fields_match_serial_oracle(self):
        rng = random.Random(47)
        g = oracles.graph_from_edges(200, oracles.random_gnm_edge_set(rng, 200, 400))
        report = analyze(g, 4)
        assert report.node_count == 200
        assert report.edge_count == 400
        assert_close(report.avg_degree, 4.0)
        expected_components = oracles.dfs_components(g)
        assert report.components.sizes == sorted(
            (len(c) for c in expected_components), reverse=True)
        assert_close(report.graph_acc, oracles.naive_average_clustering(g))
        main = sorted(oracles.main_component(g))
        assert_close(report.main_component_acc,
                     oracles.naive_average_clustering(g, main))
        assert_close(report.main_component_aspl, oracles.naive_aspl_bfs(g, main))
        assert report.aspl_method == "exact"
        assert report.aspl_sample_sources is None

    def test_relabeling_nodes_changes_nothing(self):
        rng = random.Random(53)
        g = build_graph(oracles.random_transactions(rng, count=150), Chain.ETHEREUM)
        order = list(g.node_ids())
        rng.shuffle(order)
        mapping = {old: new for new, old in enumerate(order, start=1)}
        permuted = InteractionGraph(g.chain)
        for old in order:
            permuted.intern_node(g.keys[old])
        for (a, b), amount in g.edges.items():
            permuted.record_edge(mapping[a], mapping[b], amount)
        for old in g.node_ids():
            permuted.in_tx[mapping[old]] = g.in_tx[old]
            permuted.out_tx[mapping[old]] = g.out_tx[old]
        left, right = analyze(g), analyze(permuted)
        assert left.degrees == right.degrees
        assert left.components == right.components
        assert_close(left.graph_acc, right.graph_acc)
        assert_close(left.main_component_aspl, right.main_component_aspl)

    def test_local_clustering_runs_once_per_node(self, monkeypatch):
        rng = random.Random(59)
        # Two halves of 300 nodes, so each mean spans more than one chunk.
        g = oracles.graph_from_edges(
            600, list(oracles.random_gnm_edge_set(rng, 300, 700))
            + [(a + 300, b + 300)
               for a, b in oracles.random_gnm_edge_set(rng, 300, 500)])
        labels = connected_components(g)[1]
        main = [v for v in g.node_ids() if labels[v] == 0]
        calls = []
        clustering = metrics._clustering

        def counted(adj, nodes):
            calls.extend(nodes)
            return clustering(adj, nodes)

        monkeypatch.setattr(metrics, "_clustering", counted)
        report = analyze(g)
        assert sorted(calls) == list(g.node_ids())
        monkeypatch.undo()
        assert report.graph_acc == average_clustering(g)
        assert report.main_component_acc == average_clustering(g, main)

    def test_timings_are_recorded(self):
        report = analyze(oracles.path_graph(5))
        assert set(report.timings) == {"degrees", "components", "clustering", "aspl"}

    def test_to_json_dict_shape(self):
        doc = analyze(triangle_with_pendant()).to_json_dict()
        assert doc["degrees"]["total"] == [[1, 1], [2, 2], [3, 1]]
        assert doc["components"]["main_component_size"] == 4
        assert doc["node_count"] == 4
        assert isinstance(doc["timings_seconds"], dict)


class TestReportRoundTrip:
    def test_from_json_dict_inverts_to_json_dict(self):
        rng = random.Random(73)
        for i in range(12):
            g = build_graph(oracles.random_transactions(rng, count=rng.randrange(80)),
                            Chain.ETHEREUM)
            report = analyze(g, sample_sources=rng.choice([None, 1, 3]), seed=i)
            doc = json.loads(json.dumps(report.to_json_dict()))
            back = MetricsReport.from_json_dict(doc)
            assert back == report
            assert back.timings == report.timings
            assert back.to_json_dict() == report.to_json_dict()

    def test_empty_graph_report_round_trips(self):
        report = analyze(InteractionGraph())
        assert MetricsReport.from_json_dict(report.to_json_dict()) == report

    @pytest.mark.parametrize("path, value", [
        (("node_count",), 6.0), (("node_count",), True), (("graph_acc",), "0.5"),
        (("main_component_aspl",), 2), (("aspl_method",), "guessed"),
        (("aspl_sample_sources",), 2.5), (("degrees", "in"), [[0, 1, 2]]),
        (("degrees", "total"), {"1": 2}), (("components", "sizes"), [4.0]),
        (("timings_seconds",), [])])
    def test_wrong_field_types_are_rejected(self, path, value):
        doc = analyze(triangle_with_pendant()).to_json_dict()
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises((ValueError, TypeError)):
            MetricsReport.from_json_dict(doc)

    def test_missing_field_is_rejected(self):
        doc = analyze(triangle_with_pendant()).to_json_dict()
        del doc["components"]["count"]
        with pytest.raises(KeyError):
            MetricsReport.from_json_dict(doc)
