import random

import pytest

from ledgernet import (
    AddressError,
    Chain,
    InteractionGraph,
    Transaction,
    build_graph,
    canonicalize_address,
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
        assert key.key == "0xabcdef0123456789abcdef0123456789abcdef00"
        assert key.chain is Chain.ETHEREUM

    def test_ethereum_accepts_missing_prefix(self):
        bare = "abcdef0123456789abcdef0123456789abcdef00"
        assert eth(bare).key == "0x" + bare

    def test_bitcoin_passthrough(self):
        raw = "1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa"
        assert btc(raw).key == raw

    def test_bitcoin_trims_surrounding_whitespace(self):
        assert btc("  1A1zP1eP5QGefi2DMPTfTL5SLmv7DivfNa\n").key == \
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

    def test_unknown_chain_rejected(self):
        with pytest.raises(AddressError):
            canonicalize_address(A, "dogecoin")

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(50):
            raw = oracles.random_address(rng)
            once = eth(raw)
            assert eth(once.key) == once
        for _ in range(50):
            raw = oracles.random_address(rng, Chain.BITCOIN)
            once = btc(raw)
            assert btc(once.key) == once

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
                assert (key.chain, key.key) == (chain, expected)
                assert type(key.chain) is Chain and type(key.key) is str
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
        a, b = g.node_id(eth(A).key), g.node_id(eth(B).key)
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
        assert g.node_id(eth(A).key) == 1
        assert g.node_id(eth(B).key) == 2
        assert g.node_id(eth(C).key) == 3

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
