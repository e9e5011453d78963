import json
import random
import tracemalloc

import pytest

from ledgernet import (
    AddressError,
    Chain,
    ErSpec,
    InteractionGraph,
    Transaction,
    build_graph,
    canonicalize_address,
    generate_er_gnm,
    import_graph,
)

import oracles


def eth(raw):
    return canonicalize_address(raw, Chain.ETHEREUM)


def btc(raw):
    return canonicalize_address(raw, Chain.BITCOIN)


A = "0x" + "a1" * 20
B = "0x" + "b2" * 20
C = "0x" + "c3" * 20


def tx(sender, recipient, amount=1, height=0, timestamp=1000):
    return Transaction(
        sender=None if sender is None else eth(sender),
        recipient=eth(recipient),
        amount=amount,
        block_height=height,
        timestamp=timestamp,
    )


class TestCanonicalizeAddress:
    def test_ethereum_case_folding(self):
        mixed = "0xAbCdEf0123456789aBcDeF0123456789ABCDEF00"
        key = eth(mixed)
        assert key == "0xabcdef0123456789abcdef0123456789abcdef00"

    @pytest.mark.parametrize("chain, raw, expected", [
        (Chain.ETHEREUM, A, A),
        (Chain.ETHEREUM, " " + A.upper().replace("0X", ""), A),
        (Chain.BITCOIN, "1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa",
         "1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa"),
        (Chain.BITCOIN, "\t1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa ",
         "1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa"),
    ])
    def test_returns_the_canonical_str(self, chain, raw, expected):
        for given in (chain, chain.value):
            key = canonicalize_address(raw, given)
            assert type(key) is str
            assert key == expected

    def test_ethereum_accepts_missing_prefix(self):
        bare = "abcdef0123456789abcdef0123456789abcdef00"
        assert eth(bare) == "0x" + bare

    def test_bitcoin_passthrough(self):
        raw = "1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa"
        assert btc(raw) == raw

    def test_bitcoin_trims_surrounding_whitespace(self):
        assert btc("  1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa\n") == \
            "1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa"

    @pytest.mark.parametrize("raw", ["", "   ", "0x", "0x" + "a" * 39,
                                     "0x" + "a" * 41, "0x" + "g" * 40,
                                     "0X" + "Z" * 40])
    def test_ethereum_rejects_malformed(self, raw):
        with pytest.raises(AddressError):
            eth(raw)

    @pytest.mark.parametrize("raw", ["", "  ", "1A1z P1eP", "a\tb"])
    def test_bitcoin_rejects_empty_or_spaced(self, raw):
        with pytest.raises(AddressError):
            btc(raw)

    @pytest.mark.parametrize("raw", ["a\ud800", "\udfff", "\ud83d\ude00"])
    def test_bitcoin_rejects_lone_surrogates(self, raw):
        with pytest.raises(AddressError, match="malformed bitcoin address"):
            btc(raw)

    def test_unknown_chain_rejected(self):
        with pytest.raises(AddressError):
            canonicalize_address(A, "dogecoin")

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(50):
            raw = oracles.random_address(rng)
            once = eth(raw)
            assert eth(once) == once
        for _ in range(50):
            raw = oracles.random_address(rng, Chain.BITCOIN)
            once = btc(raw)
            assert btc(once) == once

    @pytest.mark.parametrize("chain", [Chain.ETHEREUM, Chain.BITCOIN])
    def test_matches_the_rules_on_random_input(self, chain):
        rng = random.Random(41)
        accepted = 0
        for _ in range(3000):
            raw = oracles.random_raw_address(rng, chain)
            try:
                expected = oracles.canonical_key(raw, chain)
            except ValueError as exc:
                with pytest.raises(AddressError) as info:
                    canonicalize_address(raw, chain)
                assert str(info.value) == str(exc)
                continue
            accepted += 1
            for given in (chain, chain.value):
                key = canonicalize_address(raw, given)
                assert key == expected
                assert type(key) is str
        assert 1000 < accepted < 2900

    @pytest.mark.parametrize("raw", [None, 12, b"0x" + b"a" * 40])
    def test_rejects_non_strings(self, raw):
        for chain in Chain:
            with pytest.raises(AddressError, match=f"empty {chain.value} address"):
                canonicalize_address(raw, chain)


class TestTransaction:
    @pytest.mark.parametrize("field", ["amount", "height", "timestamp"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, "7", None])
    def test_rejects_fields_that_are_not_ints(self, field, value):
        with pytest.raises(ValueError, match="must be integers"):
            tx(A, B, **{field: value})

    def test_rejects_negative_amount(self):
        with pytest.raises(ValueError):
            tx(A, B, amount=-1)

    def test_rejects_negative_height(self):
        with pytest.raises(ValueError):
            tx(A, B, height=-3)


class TestAddTransaction:
    def test_single_insertion(self):
        g = InteractionGraph(Chain.ETHEREUM)
        g.add_transaction(tx(A, B, 5))
        assert g.node_count == 2
        assert g.edge_count == 1
        a, b = g.node_id(eth(A)), g.node_id(eth(B))
        data = g.edges[(min(a, b), max(a, b))]
        assert (data.amount, data.tx_count) == (5, 1)
        assert g.out_tx[a] == 1 and g.in_tx[a] == 0
        assert g.in_tx[b] == 1 and g.out_tx[b] == 0

    def test_duplicate_pair_folds_into_one_edge(self):
        g = InteractionGraph(Chain.ETHEREUM)
        g.add_transaction(tx(A, B, 5))
        g.add_transaction(tx(A, B, 3))
        assert g.edge_count == 1
        data = g.edges[(1, 2)]
        assert (data.amount, data.tx_count) == (8, 2)
        assert g.out_tx[1] == 2

    def test_self_transfer_counts_but_adds_no_edge(self):
        g = InteractionGraph(Chain.ETHEREUM)
        g.add_transaction(tx(A, B, 5))
        g.add_transaction(tx(A, B, 3))
        g.add_transaction(tx(A, A, 1))
        assert g.node_count == 2
        assert g.edge_count == 1
        assert g.out_tx[1] == 3
        assert g.in_tx[1] == 1

    def test_reverse_direction_shares_the_edge(self):
        g = InteractionGraph(Chain.ETHEREUM)
        g.add_transaction(tx(A, B, 5))
        g.add_transaction(tx(B, A, 2))
        assert g.edge_count == 1
        data = g.edges[(1, 2)]
        assert (data.amount, data.tx_count) == (7, 2)

    def test_senderless_registers_recipient_only(self):
        g = InteractionGraph(Chain.ETHEREUM)
        g.add_transaction(tx(None, C, 50))
        assert g.node_count == 1
        assert g.edge_count == 0
        assert g.in_tx[1] == 1 and g.out_tx[1] == 0

    def test_ids_follow_first_seen_order(self):
        g = InteractionGraph(Chain.ETHEREUM)
        g.add_transaction(tx(A, B))
        g.add_transaction(tx(C, A))
        assert g.node_id(eth(A)) == 1
        assert g.node_id(eth(B)) == 2
        assert g.node_id(eth(C)) == 3

    def test_mixed_case_addresses_share_one_node(self):
        g = InteractionGraph(Chain.ETHEREUM)
        g.add_transaction(tx(A.upper().replace("0X", "0x"), B))
        g.add_transaction(tx(A, C))
        assert g.node_count == 3
        assert g.degree(1) == 2


class TestInteractionGraph:
    def test_record_edge_rejects_self_loop(self):
        g = InteractionGraph()
        g.intern_node("A")
        with pytest.raises(ValueError):
            g.record_edge(1, 1)

    @pytest.mark.parametrize("method", ["degree", "neighbors", "key_of"])
    def test_unknown_node_raises(self, method):
        g = InteractionGraph()
        g.intern_node("A")
        with pytest.raises(LookupError):
            getattr(g, method)(2)

    def test_edge_triples_sorted_by_id_pair(self):
        g = InteractionGraph()
        for key in "ABCD":
            g.intern_node(key)
        g.record_edge(4, 3, amount=1)
        g.record_edge(2, 1, amount=2)
        g.record_edge(3, 1, amount=3)
        assert g.edge_triples() == [(1, 2, 2), (1, 3, 3), (3, 4, 1)]

    def test_degree_sum_is_twice_edge_count(self):
        rng = random.Random(11)
        for _ in range(20):
            g = build_graph(oracles.random_transactions(rng), Chain.ETHEREUM)
            degree_sum = sum(g.degree(v) for v in g.node_ids())
            assert degree_sum == 2 * g.edge_count

    def test_counters_match_a_naive_recount(self):
        rng = random.Random(13)
        txs = oracles.random_transactions(rng, count=120)
        g = build_graph(txs, Chain.ETHEREUM)
        in_counts, out_counts = oracles.recount_degrees(txs)
        assert g.node_count == len(in_counts)
        for key, expected in in_counts.items():
            assert g.in_tx[g.node_id(key)] == expected
        for key, expected in out_counts.items():
            assert g.out_tx[g.node_id(key)] == expected

    def test_build_graph_records_chain(self):
        g = build_graph([tx(A, B)], "ethereum")
        assert g.chain is Chain.ETHEREUM


def random_draws(rng, n, count):
    """Node pairs in 1..n, either orientation, with repeats and self-loops."""
    return [(rng.randrange(1, n + 1), rng.randrange(1, n + 1)) for _ in range(count)]


def pair_set(draws):
    return {(min(a, b), max(a, b)) for a, b in draws if a != b}


def from_transfers(rng, tmp_path):
    keys = [f"k{i}" for i in range(rng.randrange(2, 40))]
    ids = {}
    pairs = set()
    graph = InteractionGraph()
    for _ in range(rng.randrange(150)):
        sender = None if rng.random() < 0.1 else rng.choice(keys)
        recipient = rng.choice(keys)
        graph.add_transfer(sender, recipient, rng.randrange(100))
        for key in (sender, recipient):
            if key is not None:
                ids.setdefault(key, len(ids) + 1)
        if sender not in (None, recipient):
            pairs.add(tuple(sorted((ids[sender], ids[recipient]))))
    return graph, pairs


def from_record_edge(rng, tmp_path):
    n = rng.randrange(2, 40)
    graph = InteractionGraph()
    for i in range(n):
        graph.intern_node(f"n{i}")
    draws = random_draws(rng, n, rng.randrange(150))
    for a, b in draws:
        if a != b:
            graph.record_edge(a, b, rng.randrange(100), 1)
    return graph, pair_set(draws)


def from_insert_edge(rng, tmp_path):
    n = rng.randrange(2, 40)
    graph = InteractionGraph()
    for i in range(n):
        graph.intern_node(f"n{i}")
    draws = random_draws(rng, n, rng.randrange(150))
    seen = set()
    for a, b in draws:
        if a != b:
            pair = (min(a, b), max(a, b))
            assert graph.insert_edge(a, b, rng.randrange(100)) is (pair not in seen)
            seen.add(pair)
    return graph, pair_set(draws)


def from_json(rng, tmp_path):
    n = rng.randrange(2, 40)
    pairs = pair_set(random_draws(rng, n, rng.randrange(150)))
    edges = [[f"n{b}", f"n{a}", 7] if rng.random() < 0.5 else [f"n{a}", f"n{b}", 7]
             for a, b in pairs]
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"vertices": [f"n{i}" for i in range(1, n + 1)],
                                "edges": edges}))
    return import_graph(path), pairs


def from_pajek(rng, tmp_path):
    n = rng.randrange(2, 40)
    pairs = pair_set(random_draws(rng, n, rng.randrange(150)))
    lines = [f"*Vertices {n}"] + [f'{i} "n{i}"' for i in range(1, n + 1)]
    lines.append("*Edges")
    lines += [f"{b} {a} 7" if rng.random() < 0.5 else f"{a} {b} 7" for a, b in pairs]
    path = tmp_path / "g.pajek"
    path.write_text("\n".join(lines) + "\n")
    return import_graph(path), pairs


def from_er_gnm(rng, tmp_path):
    n = rng.randrange(0, 40)
    m = rng.randrange(0, n * (n - 1) // 2 + 1)
    seed = rng.randrange(10 ** 6)
    return (generate_er_gnm(ErSpec(n, m, seed)),
            pair_set(oracles.er_gnm_draws(n, m, seed)))


class TestOneStore:
    """``adj`` is the graph's only per-pair store, whatever produced it."""

    @pytest.mark.parametrize("produce", [from_transfers, from_record_edge,
                                         from_insert_edge, from_json, from_pajek,
                                         from_er_gnm])
    @pytest.mark.parametrize("seed", range(5))
    def test_both_ends_share_one_edge_and_views_agree(self, tmp_path, produce, seed):
        graph, pairs = produce(random.Random(seed), tmp_path)
        adj = graph.adj
        for a, row in enumerate(adj):
            assert a not in row
            for b, data in row.items():
                assert adj[b][a] is data
        assert graph.edge_count == len(graph.edge_triples()) == len(pairs)
        edges = graph.edges
        assert list(edges) == sorted(pairs)
        assert [(a, b, data.amount) for (a, b), data in edges.items()] == \
            graph.edge_triples()

    @staticmethod
    def traced_bytes_per_edge(build):
        tracemalloc.start()
        try:
            graph = build()
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return size / graph.edge_count

    def test_ledger_graph_costs_at_most_260_bytes_per_edge(self):
        rng = random.Random(5)
        keys = ["0x%040x" % rng.getrandbits(160) for _ in range(2000)]
        transfers = [(rng.choice(keys), rng.choice(keys), rng.randrange(10 ** 18))
                     for _ in range(12000)]

        def build():
            graph = InteractionGraph(Chain.ETHEREUM)
            for sender, recipient, amount in transfers:
                graph.add_transfer(sender, recipient, amount)
            assert graph.edge_count > 11_000
            return graph

        assert self.traced_bytes_per_edge(build) <= 260

    def test_er_graph_costs_at_most_260_bytes_per_edge(self):
        assert self.traced_bytes_per_edge(
            lambda: generate_er_gnm(ErSpec(2000, 8000, seed=3))) <= 260
