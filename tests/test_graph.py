import json
import random
import re
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
        label = "block height" if field == "height" else field
        with pytest.raises(ValueError, match=f"^{label} must be an integer, "
                                             f"got {re.escape(repr(value))}$"):
            tx(A, B, **{field: value})

    def test_rejects_negative_amount(self):
        with pytest.raises(ValueError):
            tx(A, B, amount=-1)

    def test_rejects_negative_height(self):
        with pytest.raises(ValueError):
            tx(A, B, height=-3)


class TestAddTransaction:
    """Transactions folded by ``build_graph``, one ``InteractionGraph.fold``."""

    def test_single_insertion(self):
        g = build_graph([tx(A, B, 5)], Chain.ETHEREUM)
        assert g.node_count == 2
        assert g.edge_count == 1
        a, b = g.keys.index(eth(A)), g.keys.index(eth(B))
        assert g.edges[(min(a, b), max(a, b))] == 5
        assert g.out_tx[a] == 1 and g.in_tx[a] == 0
        assert g.in_tx[b] == 1 and g.out_tx[b] == 0

    def test_duplicate_pair_folds_into_one_edge(self):
        g = build_graph([tx(A, B, 5), tx(A, B, 3)], Chain.ETHEREUM)
        assert g.edge_count == 1
        assert g.edges[(1, 2)] == 8
        assert g.out_tx[1] == 2

    def test_self_transfer_counts_but_adds_no_edge(self):
        g = build_graph([tx(A, B, 5), tx(A, B, 3), tx(A, A, 1)], Chain.ETHEREUM)
        assert g.node_count == 2
        assert g.edge_count == 1
        assert g.out_tx[1] == 3
        assert g.in_tx[1] == 1

    def test_reverse_direction_shares_the_edge(self):
        g = build_graph([tx(A, B, 5), tx(B, A, 2)], Chain.ETHEREUM)
        assert g.edge_count == 1
        assert g.edges[(1, 2)] == 7

    def test_senderless_registers_recipient_only(self):
        g = build_graph([tx(None, C, 50)], Chain.ETHEREUM)
        assert g.node_count == 1
        assert g.edge_count == 0
        assert g.in_tx[1] == 1 and g.out_tx[1] == 0

    def test_ids_follow_first_seen_order(self):
        g = build_graph([tx(A, B), tx(C, A)], Chain.ETHEREUM)
        assert g.keys.index(eth(A)) == 1
        assert g.keys.index(eth(B)) == 2
        assert g.keys.index(eth(C)) == 3

    def test_mixed_case_addresses_share_one_node(self):
        g = build_graph([tx(A.upper().replace("0X", "0x"), B), tx(A, C)],
                        Chain.ETHEREUM)
        assert g.node_count == 3
        assert g.degree(1) == 2


def random_rows(rng):
    """Transfers as chunk files hand them to ``fold``: int records mixed with
    the matched strings of written lines (sender "" for null, the amount in
    decimal), among them senderless, self, repeated and reversed ones."""
    keys = [oracles.random_address(rng) for _ in range(rng.randrange(1, 12))]
    pairs, rows = [], []
    for _ in range(rng.randrange(200)):
        roll = rng.random()
        if pairs and roll < 0.3:
            sender, recipient = rng.choice(pairs)[::rng.choice([1, -1])]
        else:
            recipient = rng.choice(keys)
            sender = (None if roll < 0.4 else recipient if roll < 0.5
                      else rng.choice(keys))
            if sender is not None:
                pairs.append((sender, recipient))
        height = rng.randrange(100)
        amount = rng.randrange(rng.choice([2, 2**64, 10**78]))
        if rng.random() < 0.5:
            rows.append((str(height), str(1000 + height), sender or "", recipient,
                         str(amount)))
        else:
            rows.append((height, 1000 + height, sender, recipient, amount))
    return rows


def fold_state(graph):
    return (graph.keys, list(graph._ids.items()),
            [list(row.items()) for row in graph.adj], graph.in_tx, graph.out_tx)


class TestFold:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_reference_fold(self, seed):
        rng = random.Random(seed)
        rows = random_rows(rng)
        graph = InteractionGraph(Chain.ETHEREUM)
        split = rng.randrange(len(rows) + 1)  # a fold adds to the graph it is given
        graph.fold(iter(rows[:split]))
        graph.fold(iter(rows[split:]))
        assert fold_state(graph) == \
            fold_state(oracles.reference_fold(rows, Chain.ETHEREUM))

    def test_rows_cover_every_kind_of_transfer(self):
        rows = [row for seed in range(40) for row in random_rows(random.Random(seed))]
        assert {type(row[4]) for row in rows} == {int, str}
        assert {row[2] for row in rows} >= {None, ""}
        assert any(row[2] == row[3] for row in rows)
        pairs = [(row[2], row[3]) for row in rows if row[2] and row[2] != row[3]]
        assert len(set(pairs)) < len(pairs)
        assert any((b, a) in set(pairs) for a, b in pairs)


class TestInteractionGraph:
    def test_record_edge_rejects_self_loop(self):
        g = InteractionGraph()
        g.intern_node("A")
        with pytest.raises(ValueError):
            g.record_edge(1, 1)

    def test_unknown_node_raises(self):
        g = InteractionGraph()
        g.intern_node("A")
        with pytest.raises(LookupError):
            g.degree(2)

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
            assert g.in_tx[g.keys.index(key)] == expected
        for key, expected in out_counts.items():
            assert g.out_tx[g.keys.index(key)] == expected

    def test_build_graph_records_chain(self):
        g = build_graph([tx(A, B)], "ethereum")
        assert g.chain is Chain.ETHEREUM


def random_draws(rng, n, count):
    """Node pairs in 1..n, either orientation, with repeats and self-loops."""
    return [(rng.randrange(1, n + 1), rng.randrange(1, n + 1)) for _ in range(count)]


def pair_set(draws):
    return {(min(a, b), max(a, b)) for a, b in draws if a != b}


def random_amount(rng):
    """Half small amounts, half past 2**64, so a pair's total is never a
    cached small int when both directions fold into it."""
    return rng.randrange(100) if rng.random() < 0.5 else 2 ** 64 + rng.randrange(2 ** 64)


def from_transfers(rng, tmp_path):
    keys = [f"k{i}" for i in range(rng.randrange(2, 40))]
    ids = {}
    totals = {}
    graph = InteractionGraph()
    for _ in range(rng.randrange(150)):
        sender = None if rng.random() < 0.1 else rng.choice(keys)
        recipient = rng.choice(keys)
        amount = random_amount(rng)
        graph.fold([(0, 0, sender, recipient, amount)])
        for key in (sender, recipient):
            if key is not None:
                ids.setdefault(key, len(ids) + 1)
        if sender not in (None, recipient):
            pair = tuple(sorted((ids[sender], ids[recipient])))
            totals[pair] = totals.get(pair, 0) + amount
    return graph, totals


def from_record_edge(rng, tmp_path):
    n = rng.randrange(2, 40)
    graph = InteractionGraph()
    for i in range(n):
        graph.intern_node(f"n{i}")
    totals = {}
    for a, b in random_draws(rng, n, rng.randrange(150)):
        if a != b:
            amount = random_amount(rng)
            graph.record_edge(a, b, amount)
            pair = (min(a, b), max(a, b))
            totals[pair] = totals.get(pair, 0) + amount
    return graph, totals


def from_insert_edge(rng, tmp_path):
    n = rng.randrange(2, 40)
    graph = InteractionGraph()
    for i in range(n):
        graph.intern_node(f"n{i}")
    firsts = {}
    for a, b in random_draws(rng, n, rng.randrange(150)):
        if a != b:
            pair = (min(a, b), max(a, b))
            amount = rng.randrange(100)
            assert graph.insert_edge(a, b, amount) is (pair not in firsts)
            firsts.setdefault(pair, amount)
    return graph, firsts


def from_json(rng, tmp_path):
    n = rng.randrange(2, 40)
    pairs = pair_set(random_draws(rng, n, rng.randrange(150)))
    edges = [[f"n{b}", f"n{a}", 7] if rng.random() < 0.5 else [f"n{a}", f"n{b}", 7]
             for a, b in pairs]
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"vertices": [f"n{i}" for i in range(1, n + 1)],
                                "edges": edges}))
    return import_graph(path), dict.fromkeys(pairs, 7)


def from_pajek(rng, tmp_path):
    n = rng.randrange(2, 40)
    pairs = pair_set(random_draws(rng, n, rng.randrange(150)))
    lines = [f"*Vertices {n}"] + [f'{i} "n{i}"' for i in range(1, n + 1)]
    lines.append("*Edges")
    lines += [f"{b} {a} 7" if rng.random() < 0.5 else f"{a} {b} 7" for a, b in pairs]
    path = tmp_path / "g.pajek"
    path.write_text("\n".join(lines) + "\n")
    return import_graph(path), dict.fromkeys(pairs, 7)


def from_er_gnm(rng, tmp_path):
    n = rng.randrange(0, 40)
    m = rng.randrange(0, n * (n - 1) // 2 + 1)
    seed = rng.randrange(10 ** 6)
    return (generate_er_gnm(ErSpec(n, m, seed)),
            dict.fromkeys(pair_set(oracles.er_gnm_draws(n, m, seed)), 1))


class TestOneStore:
    """``adj`` is the graph's only per-pair store, whatever produced it: each
    producer also returns the ``{(low, high): amount}`` it should hold."""

    @pytest.mark.parametrize("produce", [from_transfers, from_record_edge,
                                         from_insert_edge, from_json, from_pajek,
                                         from_er_gnm])
    @pytest.mark.parametrize("seed", range(5))
    def test_both_ends_share_one_edge_and_views_agree(self, tmp_path, produce, seed):
        graph, expected = produce(random.Random(seed), tmp_path)
        adj = graph.adj
        for a, row in enumerate(adj):
            assert a not in row
            for b, amount in row.items():
                assert adj[b][a] == amount
        assert graph.edge_count == len(graph.edge_triples()) == len(expected)
        edges = graph.edges
        assert list(edges) == sorted(expected)
        assert edges == expected
        assert [(a, b, amount) for (a, b), amount in edges.items()] == \
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

    def test_ledger_graph_costs_at_most_160_bytes_per_edge(self):
        rng = random.Random(5)
        keys = ["0x%040x" % rng.getrandbits(160) for _ in range(2000)]
        transfers = [(rng.choice(keys), rng.choice(keys), rng.randrange(10 ** 18))
                     for _ in range(12000)]

        def build():
            graph = InteractionGraph(Chain.ETHEREUM)
            graph.fold((0, 0, sender, recipient, amount)
                       for sender, recipient, amount in transfers)
            assert graph.edge_count > 11_000
            return graph

        assert self.traced_bytes_per_edge(build) <= 160  # 139 measured

    def test_er_graph_costs_at_most_220_bytes_per_edge(self):
        assert self.traced_bytes_per_edge(
            lambda: generate_er_gnm(ErSpec(2000, 8000, seed=3))) <= 220  # 191 measured
