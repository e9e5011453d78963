import contextlib
import json
import random
import re
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
import requests

from ledgernet import (
    Chain,
    CheckpointError,
    EmptyRangeError,
    ParseError,
    ProviderError,
    Transaction,
    build_graph,
    canonicalize_address,
    cli,
    export_json,
)
from ledgernet.graph import InteractionGraph
from ledgernet.ingestion import (
    BitcoinApiProvider,
    BlockRange,
    Checkpoint,
    EthereumRpcProvider,
    FixtureProvider,
    RetryingProvider,
    RetryPolicy,
    TimeInterval,
    TokenBucket,
    chunk_filename,
    decode_transaction,
    fetch_block_transactions,
    fold_chunks,
    iter_chunk_transactions,
    list_chunk_files,
    plan_tasks,
    resolve_block_range,
    run_download,
)
from ledgernet.ingestion import chunks
from ledgernet.ingestion.chunks import _decode_record, write_chunk
from ledgernet.ingestion.providers import write_fixture_block, write_fixture_meta

import oracles
from conftest import ADDR, StopAfterBlocks, make_fixture

ETH = Chain.ETHEREUM
MINI = Path(__file__).parent / "fixtures" / "mini"


def line_of(h, t, s, r, v):
    """The chunk line ``write_chunk`` must write for one record."""
    return json.dumps({"h": h, "t": t, "s": s, "r": r, "v": v},
                      separators=(",", ":")) + "\n"


def record_of(tx):
    return tx.block_height, tx.timestamp, tx.sender, tx.recipient, tx.amount


class FlakyProvider:
    """Scripted provider: fails ``failures`` times per call site, then works."""

    chain = ETH

    def __init__(self, failures=0, permanent=False):
        self.failures = failures
        self.permanent = permanent
        self.calls = 0

    def latest_height(self):
        return 9

    def block_header(self, height):
        return height * 100

    def block_transactions(self, height):
        self.calls += 1
        if self.calls <= self.failures:
            raise ProviderError("scripted failure", permanent=self.permanent)
        return [(height, height * 100, ADDR[0], ADDR[1], height + 1)]


class NoJitter:
    """An rng whose ``uniform`` draws its lower bound: backoff without jitter."""

    @staticmethod
    def uniform(low, high):
        return low


class RecordedWaits(threading.Event):
    """A stop event that is never set: ``wait`` returns at once and records
    each backoff wait in ``waits``."""

    def __init__(self):
        super().__init__()
        self.waits = []

    def wait(self, timeout=None):
        self.waits.append(timeout)
        return False


def retrying(provider, policy=None, bucket=None):
    """``provider`` wrapped to retry without jitter, recording its waits in
    ``stop.waits`` instead of waiting."""
    return RetryingProvider(provider, policy, bucket, stop=RecordedWaits(),
                            rng=NoJitter())


class TestFixtureProvider:
    def test_reads_chain_from_meta(self, tmp_path):
        make_fixture(tmp_path, chain="bitcoin", txs_per_block=0)
        assert FixtureProvider(tmp_path).chain is Chain.BITCOIN

    def test_rejects_chain_mismatch_with_meta(self, tmp_path):
        make_fixture(tmp_path, chain="bitcoin", txs_per_block=0)
        with pytest.raises(ProviderError):
            FixtureProvider(tmp_path, "ethereum")

    def test_requires_meta_or_explicit_chain(self, tmp_path):
        tmp_path.mkdir(exist_ok=True)
        with pytest.raises(ProviderError):
            FixtureProvider(tmp_path)

    def test_latest_height_and_header(self, tmp_path):
        make_fixture(tmp_path, block_count=7)
        provider = FixtureProvider(tmp_path)
        assert provider.latest_height() == 6
        assert provider.block_header(3) == 300

    def test_transactions_are_normalized(self, tmp_path):
        write_fixture_meta(tmp_path, "ethereum")
        write_fixture_block(tmp_path, 0, 1234, [
            {"sender": ADDR[0].upper().replace("0X", "0x"),
             "recipient": ADDR[1], "amount": 5},
            {"sender": None, "recipient": ADDR[2], "amount": 9},
        ])
        records = fetch_block_transactions(FixtureProvider(tmp_path), 0)
        assert records == [(0, 1234, ADDR[0], ADDR[1], 5),
                           (0, 1234, None, ADDR[2], 9)]

    @pytest.mark.parametrize("amount, timestamp", [(1.5, 0), (True, 0), ("5", 0),
                                                   (5, 10.0)])
    def test_non_integer_fields_are_permanent_errors(self, tmp_path, amount,
                                                     timestamp):
        write_fixture_meta(tmp_path, "ethereum")
        write_fixture_block(tmp_path, 0, timestamp, [
            {"sender": ADDR[0], "recipient": ADDR[1], "amount": amount}])
        if timestamp == 0:  # the transfer check finds it
            message = ("block 0 has a malformed transfer: "
                       f"amount must be an integer, got {amount!r}")
        else:  # the fixture's header check finds it first
            message = f"fixture block 0 malformed: timestamp {timestamp!r} is not an integer"
        with pytest.raises(ProviderError, match=f"^{re.escape(message)}$") as info:
            fetch_block_transactions(FixtureProvider(tmp_path), 0)
        assert info.value.permanent

    def test_missing_block_is_permanent_error(self, tmp_path):
        make_fixture(tmp_path, block_count=2)
        with pytest.raises(ProviderError) as info:
            FixtureProvider(tmp_path).block_transactions(5)
        assert info.value.permanent

    def test_fixture_without_block_files_has_no_tip(self, tmp_path):
        write_fixture_meta(tmp_path, "ethereum")
        (tmp_path / "block_notes.json").write_text("{}")
        with pytest.raises(ProviderError, match=f"^fixture {re.escape(str(tmp_path))} "
                                                "holds no blocks$") as info:
            FixtureProvider(tmp_path).latest_height()
        assert info.value.permanent

    @pytest.mark.parametrize("call", ["block_header", "block_transactions"])
    def test_block_claiming_another_height_is_permanent(self, tmp_path, call):
        make_fixture(tmp_path, block_count=2)
        (tmp_path / "block_00000001.json").write_bytes(
            (tmp_path / "block_00000000.json").read_bytes())
        with pytest.raises(ProviderError, match="^fixture block file "
                           r"block_00000001\.json claims height 0$") as info:
            getattr(FixtureProvider(tmp_path), call)(1)
        assert info.value.permanent

    def test_transaction_without_amount_is_permanent(self, tmp_path):
        write_fixture_meta(tmp_path, "ethereum")
        (tmp_path / "block_00000000.json").write_text(json.dumps(
            {"height": 0, "timestamp": 5,
             "transactions": [{"sender": ADDR[0], "recipient": ADDR[1]}]}))
        with pytest.raises(ProviderError, match="^fixture block 0 malformed: "
                                                "'amount'$") as info:
            FixtureProvider(tmp_path).block_transactions(0)
        assert info.value.permanent

    @pytest.mark.parametrize("meta, problem", [
        ("[" * 100_000, "maximum recursion depth"),
        ("[]", "not a JSON object"),
        ('{"chain": NaN}', "NaN is not a JSON number"),
    ], ids=["deeply-nested", "not-an-object", "nan"])
    def test_broken_meta_is_a_permanent_error(self, tmp_path, meta, problem):
        make_fixture(tmp_path, txs_per_block=0)
        (tmp_path / "meta.json").write_text(meta)
        with pytest.raises(ProviderError,
                           match=f"^fixture {re.escape(str(tmp_path))} has a "
                                 f"broken meta.json: {problem}") as info:
            FixtureProvider(tmp_path, "ethereum")
        assert info.value.permanent

    @pytest.mark.parametrize("body, problem", [
        ("[" * 100_000, "unreadable: maximum recursion depth"),
        ('{"height": 1, "timestamp": NaN, "transactions": []}',
         "unreadable: NaN is not a JSON number"),
        ("[]", "malformed: not a JSON object"),
    ], ids=["deeply-nested", "nan", "not-an-object"])
    @pytest.mark.parametrize("call", ["block_header", "block_transactions"])
    def test_unreadable_block_is_a_permanent_error(self, tmp_path, body, problem,
                                                   call):
        make_fixture(tmp_path, block_count=2)
        (tmp_path / "block_00000001.json").write_text(body)
        with pytest.raises(ProviderError,
                           match=f"^fixture block 1 {problem}") as info:
            getattr(FixtureProvider(tmp_path), call)(1)
        assert info.value.permanent


# {field} is "sender must be a string or null" or "recipient must be a string"
BAD_KEYS = [
    ("ethereum", "0x123", "malformed ethereum address: '0x123'"),
    ("ethereum", 12, "{field}, got 12"),
    ("ethereum", [ADDR[0]], "{field}, got ['%s']" % ADDR[0]),
    ("ethereum", {"key": ADDR[0]}, "{field}, got {{'key': '%s'}}" % ADDR[0]),
    ("ethereum", "", "empty ethereum address"),
    ("bitcoin", "a\ud800", "malformed bitcoin address: 'a\\ud800'"),
    ("bitcoin", ["1Boat"], "{field}, got ['1Boat']"),
]
TYPE_RULE = {"sender": "sender must be a string or null",
             "recipient": "recipient must be a string"}


class TestProviderKeys:
    """What a provider returns and rejects must not depend on which keys
    came before."""

    @pytest.mark.parametrize("field", ["sender", "recipient"])
    @pytest.mark.parametrize("chain, raw, problem", BAD_KEYS,
                             ids=lambda value: repr(value)[:20])
    def test_bad_key_after_valid_ones_keeps_its_message(self, tmp_path, field,
                                                        chain, raw, problem):
        keys = ADDR if chain == "ethereum" else ["1Boat", "1Bo\u00e9t", "1Bo\"at"]
        write_fixture_meta(tmp_path, chain)
        write_fixture_block(tmp_path, 0, 0, [
            {"sender": a, "recipient": b, "amount": 1} for a in keys for b in keys])
        bad = {"sender": keys[0], "recipient": keys[1], "amount": 1, field: raw}
        write_fixture_block(tmp_path, 1, 10, [
            {"sender": keys[1], "recipient": keys[0], "amount": 2}, bad])
        provider = FixtureProvider(tmp_path)
        assert len(fetch_block_transactions(provider, 0)) == len(keys) ** 2
        with pytest.raises(ProviderError) as info:
            fetch_block_transactions(provider, 1)
        assert str(info.value) == ("block 1 has a malformed transfer: "
                                   + problem.format(field=TYPE_RULE[field]))
        assert info.value.permanent

    def test_spellings_of_one_ethereum_key_map_to_one_node(self, tmp_path):
        spellings = [ADDR[0], ADDR[0].upper().replace("0X", "0x"), ADDR[0][2:],
                     ADDR[0].upper(), f" {ADDR[0]}\t", ADDR[0][2:].upper()]
        write_fixture_meta(tmp_path, "ethereum")
        for height in range(2):
            write_fixture_block(tmp_path, height, height, [
                {"sender": raw, "recipient": ADDR[1], "amount": 3}
                for raw in spellings])
        provider = FixtureProvider(tmp_path)
        graph = InteractionGraph(ETH)
        for height in range(2):
            for record in fetch_block_transactions(provider, height):
                assert record == (height, height, ADDR[0], ADDR[1], 3)
                graph.fold([record])
        assert graph.node_keys() == [ADDR[0], ADDR[1]]


class TestRetry:
    def test_retries_until_satisfied(self):
        provider = retrying(FlakyProvider(failures=2), RetryPolicy())
        txs = fetch_block_transactions(provider, 0)
        assert len(txs) == 1
        assert provider.request_attempts == 3
        assert provider.stop.waits == [0.5, 1.0]

    def test_attempt_cap(self):
        flaky = FlakyProvider(failures=100)
        with pytest.raises(ProviderError) as info:
            fetch_block_transactions(retrying(flaky, RetryPolicy(max_attempts=5)), 0)
        assert info.value.attempts == 5
        assert "after 5 attempts" in str(info.value)
        assert flaky.calls == 5

    def test_permanent_error_is_not_retried(self):
        flaky = FlakyProvider(failures=100, permanent=True)
        provider = retrying(flaky)
        with pytest.raises(ProviderError):
            fetch_block_transactions(provider, 0)
        assert flaky.calls == 1
        assert provider.stop.waits == []

    def test_happy_path_is_one_attempt(self):
        provider = retrying(FlakyProvider())
        fetch_block_transactions(provider, 0)
        assert provider.request_attempts == 1
        assert provider.stop.waits == []

    def test_tip_and_header_requests_are_retried_but_not_counted(self):
        class FlakyTipAndHeaders(FlakyProvider):
            def __init__(self):
                super().__init__()
                self.failed = set()

            def fail_once(self, request):
                if request not in self.failed:
                    self.failed.add(request)
                    raise ProviderError(f"{request} failed")

            def latest_height(self):
                self.fail_once("tip")
                return super().latest_height()

            def block_header(self, height):
                self.fail_once(height)
                return super().block_header(height)

        provider = retrying(FlakyTipAndHeaders())
        assert provider.latest_height() == 9
        assert provider.block_header(3) == 300
        assert provider.stop.waits == [0.5, 0.5]
        assert provider.request_attempts == 0

    @pytest.mark.parametrize("failures", range(7))
    def test_eventual_success_never_errors_without_cap(self, failures):
        provider = retrying(FlakyProvider(failures=failures), RetryPolicy())
        provider.block_transactions(0)
        assert provider.request_attempts == failures + 1

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=0.5)
        delays = [policy.delay(a, NoJitter()) for a in range(1, 11)]
        assert delays == [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 60.0, 60.0, 60.0]

    def test_jitter_stays_within_band(self):
        policy = RetryPolicy(base_delay=1.0)
        rng = random.Random(1)
        for attempt in range(1, 30):
            low = min(60.0, 2.0 ** (attempt - 1))
            assert low <= policy.delay(attempt, rng) <= low * 1.1

    def test_negative_base_delay_is_rejected_before_any_sleep(self):
        provider = FlakyProvider(failures=1)
        with pytest.raises(ValueError,
                           match="base_delay must be a finite number >= 0, got -1"):
            RetryingProvider(provider, RetryPolicy(base_delay=-1)).block_transactions(0)
        assert provider.calls == 0

    def test_nan_base_delay_is_rejected(self):
        # min(MAX_BACKOFF, nan) is MAX_BACKOFF, so every retry would wait 60 s
        with pytest.raises(ValueError, match="base_delay .* got nan"):
            RetryPolicy(base_delay=float("nan"))

    def test_zero_max_attempts_is_rejected(self):
        with pytest.raises(ValueError, match="max_attempts must be >= 1, got 0"):
            RetryPolicy(max_attempts=0)

    @pytest.mark.parametrize("value", [-0.5, float("inf"), float("-inf")])
    def test_negative_or_infinite_field_is_rejected(self, value):
        with pytest.raises(ValueError, match="base_delay must be a finite number"):
            RetryPolicy(base_delay=value)

    def test_delay_saturates_for_any_attempt_count(self):
        # 2.0 ** 4999 is past the largest float
        rng = random.Random(0)
        assert RetryPolicy().delay(5000, NoJitter()) == 60.0
        assert RetryPolicy().delay(5000, rng) <= 66.0
        assert RetryPolicy(base_delay=0).delay(5000, rng) == 0.0

    @pytest.mark.parametrize("base_delay", [0, 0.5])
    def test_retry_forever_outlasts_the_float_range(self, base_delay):
        stop = RecordedWaits()
        provider = RetryingProvider(FlakyProvider(failures=2000),
                                    RetryPolicy(base_delay=base_delay), stop=stop)
        provider.block_transactions(0)
        assert provider.request_attempts == 2001 and len(stop.waits) == 2000
        if base_delay:
            assert max(stop.waits) <= 66.0
        else:
            assert set(stop.waits) == {0.0}

    def test_zero_delays_and_one_attempt_are_accepted(self):
        policy = RetryPolicy(base_delay=0, max_attempts=1)
        assert policy.delay(3, random.Random(0)) == 0


class TestResolveBlockRange:
    def test_interval_inside_fixture(self, tmp_path):
        make_fixture(tmp_path)
        provider = FixtureProvider(tmp_path)
        assert resolve_block_range(TimeInterval(250, 650), provider) == \
            BlockRange(3, 6)

    def test_full_cover(self, tmp_path):
        make_fixture(tmp_path)
        provider = FixtureProvider(tmp_path)
        assert resolve_block_range(TimeInterval(0, 900), provider) == \
            BlockRange(0, 9)

    def test_beyond_tip_is_empty(self, tmp_path):
        make_fixture(tmp_path)
        with pytest.raises(EmptyRangeError):
            resolve_block_range(TimeInterval(950, 999), FixtureProvider(tmp_path))

    def test_before_genesis_is_empty(self, tmp_path):
        make_fixture(tmp_path, timestamps=[100 + h * 100 for h in range(10)])
        with pytest.raises(EmptyRangeError):
            resolve_block_range(TimeInterval(0, 50), FixtureProvider(tmp_path))

    def test_gap_between_blocks_is_empty(self, tmp_path):
        make_fixture(tmp_path)
        with pytest.raises(EmptyRangeError):
            resolve_block_range(TimeInterval(101, 199), FixtureProvider(tmp_path))

    def test_local_timestamp_inversion_is_corrected(self, tmp_path):
        # only Bitcoin blocks can be out of timestamp order
        make_fixture(tmp_path, chain="bitcoin", txs_per_block=0,
                     timestamps=[0, 100, 90, 200, 300, 400, 500, 600, 700, 800])
        provider = FixtureProvider(tmp_path)
        assert resolve_block_range(TimeInterval(95, 450), provider) == \
            BlockRange(1, 5)

    def test_matches_linear_scan_oracle(self, tmp_path):
        rng = random.Random(77)
        stamps = []
        t = 0
        for _ in range(40):
            t += rng.randrange(10, 50)
            stamps.append(t)
        make_fixture(tmp_path, block_count=40, txs_per_block=0, timestamps=stamps)
        provider = FixtureProvider(tmp_path)
        for _ in range(25):
            start = rng.randrange(0, t + 100)
            end = start + rng.randrange(0, 400)
            inside = [h for h, ts in enumerate(stamps) if start <= ts <= end]
            if inside:
                got = resolve_block_range(TimeInterval(start, end), provider)
                assert got == BlockRange(min(inside), max(inside))
            else:
                with pytest.raises(EmptyRangeError):
                    resolve_block_range(TimeInterval(start, end), provider)

    def test_ethereum_window_reads_no_boundary_scan_headers(self, monkeypatch):
        # Ethereum timestamps strictly increase: two binary searches suffice
        read = []
        header = FixtureProvider.block_header
        monkeypatch.setattr(FixtureProvider, "block_header",
                            lambda self, height: read.append(height)
                            or header(self, height))
        provider = FixtureProvider(MINI)
        assert resolve_block_range(TimeInterval(2800, 4600), provider) == \
            BlockRange(30, 60)
        assert len(read) == len(set(read)) == 15

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            TimeInterval(10, 5)


class TestPlanTasks:
    def test_arithmetic_partition(self):
        tasks = plan_tasks(BlockRange(0, 99), 10)
        assert [(t.first, t.last) for t in tasks] == \
            [(i, i + 9) for i in range(0, 100, 10)]

    def test_checkpoint_subtracts_done_chunks(self):
        checkpoint = Checkpoint(ETH, 0, 99, 10, done={0, 10, 20, 30, 40})
        tasks = plan_tasks(BlockRange(0, 99), 10, checkpoint)
        assert [(t.first, t.last) for t in tasks] == \
            [(50, 59), (60, 69), (70, 79), (80, 89), (90, 99)]

    def test_finished_job_plans_nothing(self):
        checkpoint = Checkpoint(ETH, 0, 99, 10, done=set(range(0, 100, 10)))
        assert plan_tasks(BlockRange(0, 99), 10, checkpoint) == []

    def test_ragged_tail_chunk(self):
        tasks = plan_tasks(BlockRange(5, 17), 5)
        assert [(t.first, t.last) for t in tasks] == [(5, 9), (10, 14), (15, 17)]

    @pytest.mark.parametrize("block_range, chunk_size, chain", [
        (BlockRange(0, 89), 10, None),
        (BlockRange(0, 99), 5, None),
        (BlockRange(0, 99), 10, "bitcoin"),
    ])
    def test_mismatched_checkpoint_rejected(self, block_range, chunk_size, chain):
        checkpoint = Checkpoint(ETH, 0, 99, 10)
        with pytest.raises(CheckpointError):
            plan_tasks(block_range, chunk_size, checkpoint, chain=chain)

    def test_bad_chunk_size(self):
        with pytest.raises(ValueError):
            plan_tasks(BlockRange(0, 9), 0)


class TestCheckpoint:
    def test_save_is_exact_and_atomic(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        checkpoint = Checkpoint(ETH, 0, 99, 10, done={10, 0})
        checkpoint.save(path)
        assert path.read_text() == ('{"version":1,"chain":"ethereum",'
                                    '"first":0,"last":99,"chunk_size":10,'
                                    '"done":[0,10]}\n')
        assert list(tmp_path.iterdir()) == [path]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        checkpoint = Checkpoint(Chain.BITCOIN, 5, 17, 5, done={10})
        checkpoint.save(path)
        loaded = Checkpoint.load(path)
        assert loaded == checkpoint

    def test_mark_done_guards_the_plan(self):
        checkpoint = Checkpoint(ETH, 0, 99, 10)
        checkpoint.mark_done(20)
        with pytest.raises(CheckpointError):
            checkpoint.mark_done(25)

    def test_is_complete(self):
        checkpoint = Checkpoint(ETH, 0, 19, 10)
        assert not checkpoint.is_complete
        checkpoint.mark_done(0)
        checkpoint.mark_done(10)
        assert checkpoint.is_complete

    @pytest.mark.parametrize("doc", [
        '[]',
        'not json',
        '{"version":2,"chain":"ethereum","first":0,"last":9,"chunk_size":5,"done":[]}',
        '{"version":1,"chain":"moon","first":0,"last":9,"chunk_size":5,"done":[]}',
        '{"version":1,"chain":"ethereum","first":0,"last":9,"chunk_size":5,"done":[3]}',
        '{"version":1,"chain":"ethereum","first":0,"last":9,"chunk_size":5,"done":[0,0]}',
        '{"version":1,"chain":"ethereum","first":9,"last":0,"chunk_size":5,"done":[]}',
        '{"version":1,"chain":"ethereum","first":0,"last":9,"done":[]}',
        '{"version":1,"chain":"ethereum","first":0,"last":9,"chunk_size":5,"done":["0"]}',
        '{"version":1,"chain":"ethereum","first":0,"last":9,"chunk_size":0,"done":[]}',
        '{"version":1,"chain":"ethereum","first":"0","last":9,"chunk_size":5,"done":[]}',
    ])
    def test_load_rejects_corrupt_files(self, tmp_path, doc):
        path = tmp_path / "checkpoint.json"
        path.write_text(doc)
        with pytest.raises(CheckpointError):
            Checkpoint.load(path)

    def test_load_rejects_another_version(self, tmp_path):
        path = tmp_path / "checkpoint.json"
        path.write_text('{"version":2,"chain":"ethereum","first":0,"last":9,'
                        '"chunk_size":5,"done":[]}')
        with pytest.raises(CheckpointError,
                           match="^unsupported checkpoint version 2$"):
            Checkpoint.load(path)

    def test_done_chunks_outside_the_plan_are_rejected(self):
        with pytest.raises(CheckpointError,
                           match=r"^done chunks outside the plan: \[3, 10\]$"):
            Checkpoint(ETH, 0, 9, 5, done={10, 0, 3})

    def test_plan_is_not_materialised(self):
        tracemalloc.start()
        try:
            checkpoint = Checkpoint(ETH, 0, 10**6, 1, done={7})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not checkpoint.is_complete
        assert peak < 100_000  # a set of a million chunks takes some 30 MB

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            Checkpoint.load(tmp_path / "absent.json")

    def test_load_rejects_deeply_nested_json(self, tmp_path):
        # json raises RecursionError here, which is no ValueError
        path = tmp_path / "checkpoint.json"
        path.write_text("[" * 100_000)
        with pytest.raises(CheckpointError,
                           match=r"^corrupt checkpoint .*: maximum recursion depth"):
            Checkpoint.load(path)


MALFORMED_LINES = [
    "not json",
    '{"h":1,"t":2,"s":null,"r":"' + ADDR[0] + '"}',
    '{"h":1,"t":2,"s":null,"r":"' + ADDR[0] + '","v":1,"x":2}',
    '{"h":1.5,"t":2,"s":null,"r":"' + ADDR[0] + '","v":1}',
    '{"h":1,"t":2,"s":null,"r":"' + ADDR[0] + '","v":"1"}',
    '{"h":1,"t":2,"s":null,"r":"zzz","v":1}',
    '{"h":1,"t":2,"s":12,"r":"' + ADDR[0] + '","v":1}',
    '{"h":1,"t":2,"s":null,"r":"' + ADDR[0] + '","v":-1}',
    '{"h":1,"t":2,"s":null,"r":"' + ADDR[0] + '","x":1}',
]


class TestChunkCodec:
    def test_filename(self):
        assert chunk_filename(0, 99) == "chunk_0_99.ndjson"

    def test_write_chunk_is_compact_and_ordered(self, tmp_path):
        path = tmp_path / chunk_filename(0, 3)
        assert write_chunk(path, [(3, 300, ADDR[0], ADDR[1], 5),
                                  (3, 301, None, ADDR[2], 50)]) == 2
        assert path.read_bytes() == (
            f'{{"h":3,"t":300,"s":"{ADDR[0]}","r":"{ADDR[1]}","v":5}}\n'
            f'{{"h":3,"t":301,"s":null,"r":"{ADDR[2]}","v":50}}\n').encode()

    def test_random_round_trips(self, tmp_path):
        txs = oracles.random_transactions(random.Random(15), count=50)
        write_chunk(tmp_path / chunk_filename(0, 9), map(record_of, txs))
        assert list(iter_chunk_transactions(tmp_path, ETH)) == txs

    @pytest.mark.parametrize("chain", [ETH, Chain.BITCOIN])
    def test_write_chunk_matches_json_dumps_and_reads_back(self, tmp_path, chain):
        rng = random.Random(23)
        alphabet = ("1aZ9", '"', "\\", "/", "\u00e9", "\u20ac", "\U0001f600",
                    "\x00", "\x7f", "\b", "\f")
        raws, keys = [], []
        while len(keys) < 200:
            if chain is ETH or rng.random() < 0.5:
                raw = oracles.random_raw_address(rng, chain)
            else:
                raw = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 12)))
            try:
                keys.append(canonicalize_address(raw, chain))
            except ValueError:
                continue
            raws.append(raw)
        assert any(raw != key for raw, key in zip(raws, keys))
        if chain is Chain.BITCOIN:
            assert any(not key.isascii() for key in keys)
            assert any(set(key) & set('"\\\x00\x7f\b\f') for key in keys)
        records = []
        for index in range(2000):
            sender = None if rng.random() < 0.2 else rng.choice(keys)
            amount = rng.randrange(rng.choice([1, 2, 2**53, 2**64 + 1, 10**78 + 1]))
            records.append((index // 50, rng.randrange(-2**40, 2**40), sender,
                            rng.choice(keys), amount))
        records.append((40, 0, rng.choice(keys), rng.choice(keys), 10**78))
        path = tmp_path / chunk_filename(0, 40)
        assert write_chunk(path, iter(records)) == len(records)
        assert path.read_bytes() == "".join(
            line_of(*record) for record in records).encode("ascii")
        assert list(map(record_of, iter_chunk_transactions(tmp_path, chain))) \
            == records

    @pytest.mark.parametrize("line", MALFORMED_LINES)
    def test_decode_rejects_malformed_lines(self, line):
        with pytest.raises(ParseError):
            decode_transaction(line, ETH, path="chunk", line_no=4)

    def test_list_chunk_files_sorts_numerically(self, tmp_path):
        for name in ("chunk_10_19.ndjson", "chunk_2_3.ndjson",
                     "chunk_0_1.ndjson", "notes.txt"):
            (tmp_path / name).write_text("")
        names = [p.name for p in list_chunk_files(tmp_path)]
        assert names == ["chunk_0_1.ndjson", "chunk_2_3.ndjson",
                         "chunk_10_19.ndjson"]


def raw_chunk_dir(root, rng, chain):
    """Chunk files as another writer might leave them: keys in any form that
    canonicalizes, senderless rows, self-transfers and blank lines.  Returns
    the transactions they hold, in order."""
    root.mkdir()
    txs = []
    if chain is ETH:
        keys = ["0x" + "".join(rng.choice("0123456789abcdef") for _ in range(40))
                for _ in range(8)]
        forms = [str, str.upper, lambda k: k[:2] + k[2:].upper(), lambda k: k[2:],
                 lambda k: f"  {k}\t"]
    else:
        base58 = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
        keys = ["1" + "".join(rng.choice(base58) for _ in range(rng.randint(25, 33)))
                for _ in range(8)]
        forms = [str, lambda k: f" {k}\t", lambda k: f"{k}\n "]
    first = rng.randrange(100)
    for _ in range(rng.randint(1, 5)):
        last = first + rng.randrange(4)
        lines = []
        for _ in range(rng.randrange(15)):
            sender = None if rng.random() < 0.15 else rng.choice(keys)
            recipient = (sender if sender and rng.random() < 0.15
                         else rng.choice(keys))
            height, amount = rng.randint(first, last), rng.randrange(10**20)
            lines.append(json.dumps({
                "h": height, "t": 1000 + height,
                "s": None if sender is None else rng.choice(forms)(sender),
                "r": rng.choice(forms)(recipient), "v": amount}))
            txs.append(Transaction(
                None if sender is None else canonicalize_address(sender, chain),
                canonicalize_address(recipient, chain), amount, height, 1000 + height))
            if rng.random() < 0.1:
                lines.append(rng.choice(["", "  ", "\t"]))
        (root / chunk_filename(first, last)).write_text("".join(
            line + "\n" for line in lines))
        first = last + 1
    return txs


def graph_state(graph):
    return graph.keys, graph.adj, graph.edges, graph.in_tx, graph.out_tx


def library_graph(chunk_dir, chain):
    return build_graph(iter_chunk_transactions(chunk_dir, chain), chain)


class TestFoldChunks:
    @pytest.mark.parametrize("chain", [ETH, Chain.BITCOIN])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_library_path(self, tmp_path, chain, seed):
        chunk_dir = tmp_path / "chunks"
        txs = raw_chunk_dir(chunk_dir, random.Random(seed), chain)
        expected = graph_state(build_graph(txs, chain))
        assert graph_state(library_graph(chunk_dir, chain)) == expected
        assert graph_state(fold_chunks(chunk_dir, chain)) == expected

    def test_decode_transaction_reads_one_line(self):
        upper = ADDR[0].upper().replace("0X", "0x")
        line = json.dumps({"h": 3, "t": 100, "s": upper, "r": ADDR[1], "v": 7})
        assert decode_transaction(line, "ethereum") == Transaction(
            ADDR[0], ADDR[1], 7, 3, 100)

    @pytest.mark.parametrize("bad", [b"\xff\xfe", b"\xc3", b"\xed\xa0\x80"],
                             ids=["ff-fe", "truncated", "encoded-surrogate"])
    @pytest.mark.parametrize("where", ["line", "key", "blank"])
    def test_bytes_that_are_not_utf8_name_file_and_line(self, tmp_path, bad,
                                                         where):
        good = line_of(1, 100, None, ADDR[1], 5).encode()
        line = {"line": bad + b"\n",
                "key": good.replace(ADDR[1][:4].encode(), b"0x" + bad),
                "blank": b"  " + bad + b"\r\n"}[where]
        path = tmp_path / chunk_filename(0, 9)
        path.write_bytes(good + line + good)
        for read in (lambda: fold_chunks(tmp_path, ETH),
                     lambda: list(iter_chunk_transactions(tmp_path, ETH))):
            with pytest.raises(ParseError) as info:
                read()
            assert str(info.value) == f"{path}: line 2: bytes that are not UTF-8"
            assert (info.value.path, info.value.line) == (path, 2)

    def test_bad_bytes_in_a_later_chunk_yield_the_earlier_ones_first(self,
                                                                     tmp_path):
        (tmp_path / chunk_filename(0, 0)).write_text(line_of(0, 0, None, ADDR[1], 5))
        (tmp_path / chunk_filename(1, 1)).write_bytes(b"\x80\n")
        read = iter_chunk_transactions(tmp_path, ETH)
        assert next(read) == Transaction(None, ADDR[1], 5, 0, 0)
        with pytest.raises(ParseError, match="line 1: bytes that are not UTF-8"):
            next(read)

    @pytest.mark.parametrize("name", ["chunk_\u0660_\u0664.ndjson",
                                      "chunk_0_\uff14.ndjson",
                                      "chunk_0_4.ndjson\n", "xchunk_0_4.ndjson"])
    def test_only_ascii_digit_names_are_chunk_files(self, tmp_path, name):
        (tmp_path / name).write_text(line_of(1, 0, None, ADDR[2], 5))
        (tmp_path / chunk_filename(5, 9)).write_text(line_of(7, 0, None, ADDR[1], 5))
        assert chunks.parse_chunk_filename(name) is None
        assert list_chunk_files(tmp_path) == [tmp_path / chunk_filename(5, 9)]
        assert fold_chunks(tmp_path, ETH).node_keys() == [ADDR[1]]

    @pytest.mark.parametrize("line", MALFORMED_LINES)
    def test_rejects_malformed_lines_like_decode(self, tmp_path, line):
        good = line_of(1, 100, None, ADDR[1], 5)
        path = tmp_path / chunk_filename(0, 9)
        path.write_text(good + "\n" + good + line + "\n")
        with pytest.raises(ParseError) as decoded:
            decode_transaction(line, ETH, path=path, line_no=4)
        for fold in (lambda: fold_chunks(tmp_path, ETH),
                     lambda: library_graph(tmp_path, ETH)):
            with pytest.raises(ParseError) as folded:
                fold()
            assert str(folded.value) == str(decoded.value)
            assert (folded.value.path, folded.value.line) == (path, 4)

    def test_deeply_nested_line_is_a_parse_error(self, tmp_path):
        # json raises RecursionError here, which is no ValueError
        line = "[" * 100_000
        good = line_of(1, 100, None, ADDR[1], 5)
        path = tmp_path / chunk_filename(0, 9)
        path.write_text(good + line + "\n")
        with pytest.raises(ParseError, match="maximum recursion depth") as decoded:
            decode_transaction(line, ETH, path=path, line_no=2)
        for fold in (lambda: fold_chunks(tmp_path, ETH),
                     lambda: library_graph(tmp_path, ETH)):
            with pytest.raises(ParseError) as folded:
                fold()
            assert str(folded.value) == str(decoded.value)
            assert (folded.value.path, folded.value.line) == (path, 2)

    def test_record_outside_its_file_span_is_rejected(self, tmp_path):
        path = tmp_path / chunk_filename(0, 2)
        path.write_text("".join(line_of(h, 0, None, ADDR[1], 5) for h in (2, 3)))
        with pytest.raises(ParseError, match=r"height 3 is outside the file's "
                                             r"span 0\.\.2") as info:
            fold_chunks(tmp_path, ETH)
        assert (info.value.path, info.value.line) == (path, 2)

    @pytest.mark.parametrize("chain", [ETH, Chain.BITCOIN])
    @pytest.mark.parametrize("seed", range(4))
    def test_library_path_yields_the_written_transactions(self, tmp_path, chain,
                                                          seed):
        chunk_dir = tmp_path / "chunks"
        txs = raw_chunk_dir(chunk_dir, random.Random(seed), chain)
        read = list(iter_chunk_transactions(chunk_dir, chain))
        assert read == txs
        assert all(type(tx.recipient) is str and type(tx.sender) in (str, type(None))
                   for tx in read)

    @pytest.mark.parametrize("seed", range(6))
    def test_both_readers_reject_a_record_outside_its_file_span(self, tmp_path,
                                                                seed):
        rng = random.Random(seed)
        chunk_dir = tmp_path / "chunks"
        raw_chunk_dir(chunk_dir, rng, ETH)
        path = rng.choice(list_chunk_files(chunk_dir))
        first, last = (int(part) for part in path.stem.split("_")[1:])
        height = rng.choice([last + 1, last + 7]
                            + ([first - 1] if first else []))
        lines = path.read_text().splitlines(keepends=True)
        index = rng.randint(0, len(lines))
        lines.insert(index, line_of(height, 0, None, ADDR[1], 5))
        path.write_text("".join(lines))
        errors = []
        for read in (lambda: fold_chunks(chunk_dir, ETH),
                     lambda: library_graph(chunk_dir, ETH)):
            with pytest.raises(ParseError) as info:
                read()
            errors.append((str(info.value), info.value.path, info.value.line))
        assert errors[0] == errors[1]
        assert errors[0][1:] == (path, index + 1)
        assert f"block height {height} is outside the file's span " \
            f"{first}..{last}" in errors[0][0]

    def test_with_checkpoint_matches_library_path(self, tmp_path):
        out = tmp_path / "out"
        _, checkpoint = run_fixture_download(make_fixture(tmp_path / "fx"), out)
        assert (graph_state(fold_chunks(out / "chunks", ETH, checkpoint))
                == graph_state(library_graph(out / "chunks", ETH)))

    def test_done_chunk_without_file_is_rejected(self, tmp_path):
        out = tmp_path / "out"
        _, checkpoint = run_fixture_download(make_fixture(tmp_path / "fx"), out)
        (out / "chunks" / "chunk_3_5.ndjson").unlink()
        with pytest.raises(CheckpointError, match="chunk_3_5.ndjson is marked done"):
            fold_chunks(out / "chunks", ETH, checkpoint)

    @pytest.mark.parametrize("chain", [Chain.BITCOIN, "bitcoin"])
    def test_chain_other_than_the_checkpoint_is_rejected(self, tmp_path, chain):
        out = tmp_path / "out"
        _, checkpoint = run_fixture_download(make_fixture(tmp_path / "fx"), out)
        with pytest.raises(CheckpointError,
                           match="^the checkpoint is for ethereum, not bitcoin$"):
            fold_chunks(out / "chunks", chain, checkpoint)

    @pytest.mark.parametrize("name", ["chunk_10_12.ndjson", "chunk_0_1.ndjson",
                                      "chunk_03_5.ndjson"])
    def test_file_outside_the_plan_is_rejected(self, tmp_path, name):
        out = tmp_path / "out"
        _, checkpoint = run_fixture_download(make_fixture(tmp_path / "fx"), out)
        (out / "chunks" / name).write_text("")
        with pytest.raises(CheckpointError, match=f"{name} is not a chunk of "
                                                  f"the checkpoint's plan"):
            fold_chunks(out / "chunks", ETH, checkpoint)

    @pytest.mark.parametrize("name, twin, held", [
        ("chunk_00_2.ndjson", "chunk_0_2.ndjson", "0..2"),
        ("chunk_2_4.ndjson", "chunk_0_2.ndjson", "2..2"),
        ("chunk_4_4.ndjson", "chunk_3_5.ndjson", "4..4"),
        ("chunk_8_20.ndjson", "chunk_6_8.ndjson", "8..8")])
    def test_overlapping_files_are_rejected_without_checkpoint(
            self, tmp_path, name, twin, held):
        out = tmp_path / "out"
        run_fixture_download(make_fixture(tmp_path / "fx"), out)
        chunk_dir = out / "chunks"
        (chunk_dir / name).write_bytes((chunk_dir / twin).read_bytes())
        for fold in (lambda: fold_chunks(chunk_dir, ETH),
                     lambda: list(iter_chunk_transactions(chunk_dir, ETH))):
            with pytest.raises(ParseError, match=f"overlap: both hold blocks "
                                                 f"{held}") as info:
                fold()
            assert str(chunk_dir / name) in str(info.value)
            assert str(chunk_dir / twin) in str(info.value)

    def test_files_of_chunks_not_done_are_skipped(self, tmp_path):
        out = tmp_path / "out"
        _, checkpoint = run_fixture_download(make_fixture(tmp_path / "fx"), out)
        checkpoint.done.discard(6)
        expected = build_graph(
            (tx for tx in iter_chunk_transactions(out / "chunks", ETH)
             if not 6 <= tx.block_height <= 8), ETH)
        assert (graph_state(fold_chunks(out / "chunks", ETH, checkpoint))
                == graph_state(expected))


BTC = Chain.BITCOIN
SATOSHI = "1BoatSLRHtKNngkdXEeobR76b53LETtpyT"


def chunk_line(h="1", t="2", s="null", r=f'"{ADDR[1]}"', v="5"):
    """A chunk line in the written field order, from raw JSON values."""
    return f'{{"h":{h},"t":{t},"s":{s},"r":{r},"v":{v}}}'


# Lines just inside or just outside the shape write_chunk writes.
# Each must read as json.loads reads it, whichever path takes it.
NEAR_MISS_LINES = [
    (ETH, chunk_line(h="01")),
    (ETH, chunk_line(t="01")),
    (ETH, chunk_line(v="00")),
    (ETH, chunk_line(t="-0")),
    (ETH, chunk_line(t="-7")),
    (ETH, chunk_line(h="-1")),
    (ETH, chunk_line(v="-5")),
    (ETH, chunk_line(h="true")),
    (ETH, chunk_line(v="5.0")),
    (ETH, chunk_line(v="5e0")),
    (ETH, chunk_line(v="9" * 78)),
    (ETH, chunk_line(v="9" * 79)),
    (ETH, chunk_line(v="1" + "0" * 4300)),
    (ETH, chunk_line(r=f'"{ADDR[1].upper()}"')),
    (ETH, chunk_line(s=f'"{ADDR[0][:2] + ADDR[0][2:].upper()}"')),
    (ETH, chunk_line(r=f'"{ADDR[1][2:]}"')),
    (ETH, chunk_line(s=f'"{ADDR[0][:-1]}"')),
    (ETH, chunk_line(s=f'"{ADDR[0]}0"')),
    (ETH, chunk_line(r=r'"0x\u0062' + "b" * 39 + '"')),
    (ETH, chunk_line(s=r'"\u0030x' + "a" * 40 + '"')),
    (ETH, chunk_line(s='""')),
    (ETH, chunk_line(s="NULL")),
    (ETH, chunk_line(r=f'"{ADDR[1]} "')),
    (ETH, chunk_line(r=f'"{ADDR[1]}\\t"')),
    (ETH, chunk_line(r=f'"{ADDR[1]}\t"')),
    (ETH, '{"t":2,"h":1,"s":null,"r":"' + ADDR[1] + '","v":5}'),
    (ETH, '{"h":1,"h":2,"t":2,"s":null,"r":"' + ADDR[1] + '","v":5}'),
    (ETH, '{"h": 1,"t":2,"s":null,"r":"' + ADDR[1] + '","v":5}'),
    (ETH, '{ "h":1,"t":2,"s":null,"r":"' + ADDR[1] + '","v":5}'),
    (ETH, " " + chunk_line()),
    (ETH, chunk_line() + " "),
    (ETH, chunk_line() + "x"),
    (ETH, chunk_line()[:-1]),
    (BTC, chunk_line(r=f'"{SATOSHI}"')),
    (BTC, chunk_line(s=f'"{ADDR[0]}"', r='"!#[]~"')),
    (BTC, chunk_line(r='"1Boat SLR"')),
    (BTC, chunk_line(r=f'" {SATOSHI}"')),
    (BTC, chunk_line(r=f'"{SATOSHI}\\n"')),
    (BTC, chunk_line(r=r'"1Bo\"at"')),
    (BTC, chunk_line(r=r'"1Bo\\at"')),
    (BTC, chunk_line(r=r'"1Bo\/at"')),
    (BTC, chunk_line(r=r'"1Bo\u0061t"')),
    (BTC, chunk_line(r='"1Boat\u00e9"')),
    (BTC, chunk_line(r=r'"1Boat\u00e9"')),
    (BTC, chunk_line(r='"1Boat\x7f"')),
    (BTC, chunk_line(r='"1Boat\x1f"')),
    (BTC, chunk_line(r=r'"1Boat\ud800"')),
]


def decoded(chunk_dir, chain):
    """What every reader must give for ``chunk_dir``: ``_decode_record`` of
    each non-blank line in file order, then the ParseError of the first line
    it rejects, holds bytes that are not UTF-8 or a height outside its
    file's span, or None."""
    records = []
    for path in list_chunk_files(chunk_dir):
        first, last = chunks.parse_chunk_filename(path.name)
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            for line_no, line in enumerate(fh, start=1):
                if re.search("[\udc80-\udcff]", line):
                    return records, ParseError("bytes that are not UTF-8",
                                               path=path, line=line_no)
                if not line.strip():
                    continue
                try:
                    record = _decode_record(line, chain, path, line_no)
                except ParseError as exc:
                    return records, exc
                if not first <= record[0] <= last:
                    return records, ParseError(
                        f"block height {record[0]} is outside the file's span "
                        f"{first}..{last}", path=path, line=line_no)
                records.append(record)
    return records, None


def fault(exc):
    return str(exc), exc.path, exc.line


def assert_readers_match_decode(chunk_dir, chain, tmp_path, capsys):
    """``iter_chunk_transactions``, ``fold_chunks`` and the ``build``
    command give ``decoded``'s records, or its error."""
    records, error = decoded(chunk_dir, chain)
    txs = [Transaction(s, r, v, h, t) for h, t, s, r, v in records]
    read = []
    with pytest.raises(ParseError) if error else contextlib.nullcontext() as info:
        read.extend(map(record_of, iter_chunk_transactions(chunk_dir, chain)))
    assert read == records
    assert [tuple(map(type, r)) for r in read] == [tuple(map(type, r)) for r in records]
    expected = build_graph(txs, chain)
    for reader, result in ((lambda: list(iter_chunk_transactions(chunk_dir, chain)),
                            txs),
                           (lambda: graph_state(fold_chunks(chunk_dir, chain)),
                            graph_state(expected))):
        if error is None:
            assert reader() == result
        else:
            assert fault(info.value) == fault(error)
            with pytest.raises(ParseError) as again:
                reader()
            assert fault(again.value) == fault(error)
    out = tmp_path / "built"
    # JSON, since Pajek cannot hold a non-ASCII key
    code = cli.main(["build", "--chain", chain.value, "--chunks", str(chunk_dir),
                     "--output-dir", str(out), "--format", "json", "--force"])
    if error is None:
        assert code == 0
        export_json(expected, tmp_path / "expected.json")
        assert ((out / "graph.json").read_bytes()
                == (tmp_path / "expected.json").read_bytes())
    else:
        assert code == 2
        assert capsys.readouterr().err == f"error: {error}\n"


def compact(chunk_dir):
    """Rewrite every line of ``chunk_dir`` with compact separators, as
    ``write_chunk`` writes it, keeping its keys as they are."""
    for path in list_chunk_files(chunk_dir):
        path.write_text("".join(
            json.dumps(json.loads(line), separators=(",", ":")) + "\n"
            if line.strip() else line
            for line in path.read_text().splitlines(keepends=True)))


class TestWrittenLineFastPath:
    @pytest.mark.parametrize("chain", [ETH, BTC])
    @pytest.mark.parametrize("seed", range(4))
    def test_written_lines_are_not_parsed_as_json(self, tmp_path, monkeypatch,
                                                  chain, seed):
        txs = raw_chunk_dir(tmp_path / "raw", random.Random(seed), chain)
        chunk_dir = tmp_path / "chunks"
        chunk_dir.mkdir()
        write_chunk(chunk_dir / chunk_filename(0, 200), map(record_of, txs))

        def refuse(line, *args):
            raise AssertionError(f"parsed as JSON: {line!r}")

        monkeypatch.setattr(chunks, "_decode_record", refuse)
        assert list(iter_chunk_transactions(chunk_dir, chain)) == txs
        assert (graph_state(fold_chunks(chunk_dir, chain))
                == graph_state(build_graph(txs, chain)))

    @pytest.mark.parametrize("chain", [ETH, BTC])
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("as_written", [False, True])
    def test_raw_chunk_dirs_read_like_decode(self, tmp_path, capsys, chain, seed,
                                             as_written):
        chunk_dir = tmp_path / "chunks"
        raw_chunk_dir(chunk_dir, random.Random(seed), chain)
        if as_written:
            compact(chunk_dir)
        assert_readers_match_decode(chunk_dir, chain, tmp_path, capsys)

    @pytest.mark.parametrize("chain, line",
                             NEAR_MISS_LINES + [(ETH, line) for line in MALFORMED_LINES],
                             ids=lambda value: None if isinstance(value, Chain) else
                             value.replace(ADDR[0], "A").replace(ADDR[1], "B")[:60])
    def test_near_miss_lines_read_like_decode(self, tmp_path, capsys, chain, line):
        key = ADDR[1] if chain is ETH else SATOSHI
        good = line_of(1, 100, None, key, 5)
        chunk_dir = tmp_path / "chunks"
        chunk_dir.mkdir()
        (chunk_dir / chunk_filename(0, 9)).write_text(
            good + "\n" + good + line + "\n" + good, encoding="utf-8")
        assert_readers_match_decode(chunk_dir, chain, tmp_path, capsys)

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_line_endings_read_like_decode(self, tmp_path, capsys, ending):
        chunk_dir = tmp_path / "chunks"
        chunk_dir.mkdir()
        txs = oracles.random_transactions(random.Random(3), count=20)
        (chunk_dir / chunk_filename(0, 3)).write_bytes(ending.join(
            line_of(*record_of(tx))[:-1] for tx in txs).encode())
        assert_readers_match_decode(chunk_dir, ETH, tmp_path, capsys)
        assert list(iter_chunk_transactions(chunk_dir, ETH)) == txs

    @pytest.mark.parametrize("chain", [ETH, BTC])
    def test_random_raw_keys_read_like_decode(self, tmp_path, capsys, chain):
        rng = random.Random(31)
        for index in range(150):
            chunk_dir = tmp_path / f"chunks{index}"
            chunk_dir.mkdir()
            keys = [json.dumps(oracles.random_raw_address(rng, chain))
                    for _ in range(2)]
            line = chunk_line(s=rng.choice(["null", keys[0]]), r=keys[1],
                              v=str(rng.randrange(10**rng.randint(1, 80))))
            (chunk_dir / chunk_filename(0, 9)).write_text(line + "\n")
            assert_readers_match_decode(chunk_dir, chain, tmp_path, capsys)


def written_lines(rng, chain, count=1000, first=0):
    """``count`` (at most 1,000) lines as ``write_chunk`` writes them, for
    blocks ``first``..``first + 199``."""
    return [line_of(tx.block_height + first, tx.timestamp, tx.sender,
                    tx.recipient, tx.amount)
            for tx in oracles.random_transactions(rng, chain, address_count=40,
                                                  count=count)]


def moved_out_of_span(line):
    fields = json.loads(line)
    return line_of(fields["h"] + 200, fields["t"], fields["s"], fields["r"],
                   fields["v"])


# Changes to one line (index k) of a file in written shape; each makes the
# file's slice holding it miss the pattern match.
SPOILERS = {
    "height-out-of-span": lambda lines, k: moved_out_of_span(lines[k]),
    "json-spaced": lambda lines, k: json.dumps(json.loads(lines[k])) + "\n",
    "blank": lambda lines, k: "\n" + lines[k],
    "blank-spaces": lambda lines, k: lines[k] + " \t\n",
}


class TestSliceMatch:
    """A slice of a file is matched at once only when every line is as
    written and every height in its file's span; any other slice is read
    line by line.  Both give the same records, graph and errors as
    ``decoded``."""

    @pytest.mark.parametrize("chain", [ETH, BTC])
    @pytest.mark.parametrize("k", [0, 1, 617, 999])
    @pytest.mark.parametrize("spoil", sorted(SPOILERS))
    @pytest.mark.parametrize("end", ["\n", ""], ids=["newline", "no-newline"])
    def test_a_spoiled_line_reads_like_decode(self, tmp_path, capsys, monkeypatch,
                                              chain, k, spoil, end):
        lines = written_lines(random.Random(k), chain)
        lines[k] = SPOILERS[spoil](lines, k)
        chunk_dir = tmp_path / "chunks"
        chunk_dir.mkdir()
        (chunk_dir / chunk_filename(0, 199)).write_text("".join(lines)[:-1] + end)
        read_by_line = []
        lines_of = chunks._lines
        monkeypatch.setattr(chunks, "_lines", lambda path, *rest: (
            read_by_line.append(path.name), lines_of(path, *rest))[1])
        assert_readers_match_decode(chunk_dir, chain, tmp_path, capsys)
        # iter_chunk_transactions twice, fold_chunks and build
        assert read_by_line == [chunk_filename(0, 199)] * 4

    @pytest.mark.parametrize("ending", ["\r\n", "\r", "none"])
    def test_line_endings_and_a_missing_final_newline(self, tmp_path, capsys,
                                                      ending):
        lines = written_lines(random.Random(7), ETH)
        text = "".join(lines)
        text = text[:-1] if ending == "none" else text.replace("\n", ending)
        chunk_dir = tmp_path / "chunks"
        chunk_dir.mkdir()
        (chunk_dir / chunk_filename(0, 199)).write_bytes(text.encode())
        assert_readers_match_decode(chunk_dir, ETH, tmp_path, capsys)

    @pytest.mark.parametrize("k", [0, 500, 999])
    @pytest.mark.parametrize("bad", [b"\xff", b"\xc3", b"\xed\xa0\x80"])
    def test_bytes_that_are_not_utf8_on_line_k(self, tmp_path, capsys, k, bad):
        lines = [line.encode() for line in written_lines(random.Random(k), ETH)]
        lines[k] = lines[k].replace(b'"v":', b'"v":' + bad, 1)
        chunk_dir = tmp_path / "chunks"
        chunk_dir.mkdir()
        (chunk_dir / chunk_filename(0, 199)).write_bytes(b"".join(lines))
        assert_readers_match_decode(chunk_dir, ETH, tmp_path, capsys)
        with pytest.raises(ParseError) as info:
            fold_chunks(chunk_dir, ETH)
        assert str(info.value).endswith(f"line {k + 1}: bytes that are not UTF-8")

    @pytest.mark.parametrize("key", ['1Bo"at', "1Bo\\at", "1Bo\u00e9t", "1\x00x",
                                     "1\x1bx", "1\U0001f600"])
    def test_bitcoin_keys_outside_the_written_class(self, tmp_path, capsys, key):
        lines = written_lines(random.Random(3), BTC)
        records = [json.loads(line) for line in lines]
        records[10]["s"] = records[400]["r"] = key
        chunk_dir = tmp_path / "chunks"
        chunk_dir.mkdir()
        write_chunk(chunk_dir / chunk_filename(0, 199),
                    [tuple(record[f] for f in "htsrv") for record in records])
        assert_readers_match_decode(chunk_dir, BTC, tmp_path, capsys)
        assert key in fold_chunks(chunk_dir, BTC).keys

    @pytest.mark.parametrize("chain", [ETH, BTC])
    @pytest.mark.parametrize("k", [0, 5, 617, 999])
    @pytest.mark.parametrize("spoil", sorted(SPOILERS) + ["none"])
    def test_only_the_spoiled_slice_is_read_line_by_line(self, tmp_path, capsys,
                                                         monkeypatch, chain, k,
                                                         spoil):
        lines = written_lines(random.Random(k), chain)
        if spoil != "none":
            lines[k] = SPOILERS[spoil](lines, k)
        chunk_dir = tmp_path / "chunks"
        chunk_dir.mkdir()
        (chunk_dir / chunk_filename(0, 199)).write_text("".join(lines))
        monkeypatch.setattr(chunks, "_SLICE", 400)  # a few lines a slice
        starts = []
        lines_of = chunks._lines
        monkeypatch.setattr(chunks, "_lines", lambda path, chain, lines, line_no,
                            *rest: (starts.append((line_no, len(lines))),
                                    lines_of(path, chain, lines, line_no, *rest))[1])
        assert_readers_match_decode(chunk_dir, chain, tmp_path, capsys)
        if spoil == "none":
            assert starts == []
        else:
            # one slice of a few lines, holding line k + 1 or the line after
            # it that a spoiler adds, for each of the four readers
            [(start, count)] = set(starts)
            assert len(starts) == 4 and count < 10
            assert start <= k + 2 and k + 1 < start + count

    def test_only_the_spoiled_file_is_read_line_by_line(self, tmp_path, capsys,
                                                        monkeypatch):
        chunk_dir = tmp_path / "chunks"
        chunk_dir.mkdir()
        rng = random.Random(11)
        for first in range(0, 1000, 200):
            lines = written_lines(rng, ETH, 300, first)
            if first == 400:
                lines[5] = "\n" + lines[5]
            (chunk_dir / chunk_filename(first, first + 199)).write_text(
                "".join(lines))
        read_by_line = []
        lines_of = chunks._lines
        monkeypatch.setattr(chunks, "_lines", lambda path, *rest: (
            read_by_line.append(path.name), lines_of(path, *rest))[1])
        assert_readers_match_decode(chunk_dir, ETH, tmp_path, capsys)
        assert read_by_line == [chunk_filename(400, 599)] * 4


def run_fixture_download(fixture, out_dir, chunk_size=3, worker_count=1,
                         stop_after_blocks=None):
    provider = FixtureProvider(fixture)
    block_range = BlockRange(0, provider.latest_height())
    checkpoint_path = out_dir / "checkpoint.json"
    if checkpoint_path.exists():
        checkpoint = Checkpoint.load(checkpoint_path)
    else:
        checkpoint = Checkpoint(provider.chain, block_range.first,
                                block_range.last, chunk_size)
    tasks = plan_tasks(block_range, chunk_size, checkpoint)
    stop_event = threading.Event()
    if stop_after_blocks is not None:
        provider = StopAfterBlocks(provider, stop_event, stop_after_blocks)
    summary = run_download(tasks, provider, checkpoint,
                           chunk_dir=out_dir / "chunks",
                           checkpoint_path=checkpoint_path,
                           worker_count=worker_count, stop_event=stop_event)
    return summary, checkpoint


def chunk_bytes(out_dir):
    return {p.name: p.read_bytes() for p in list_chunk_files(out_dir / "chunks")}


def watch_saves(monkeypatch, chunk_dir, delay=0.0):
    """Wraps ``Checkpoint.save``: each save first checks that every chunk the
    checkpoint lists as done has its file in place, optionally takes
    ``delay`` seconds, and appends the done set it saved to the list
    returned."""
    saved = []
    save = Checkpoint.save

    def checked_save(checkpoint, path):
        for first in checkpoint.done:
            last = min(first + checkpoint.chunk_size - 1, checkpoint.last)
            assert (chunk_dir / chunk_filename(first, last)).is_file()
        time.sleep(delay)
        save(checkpoint, path)
        saved.append(set(checkpoint.done))

    monkeypatch.setattr(Checkpoint, "save", checked_save)
    return saved


class TestRunDownload:
    def test_fixture_download_writes_expected_chunks(self, tmp_path):
        fixture = make_fixture(tmp_path / "fx")
        out = tmp_path / "out"
        summary, checkpoint = run_fixture_download(fixture, out)
        assert sorted(chunk_bytes(out)) == ["chunk_0_2.ndjson", "chunk_3_5.ndjson",
                                            "chunk_6_8.ndjson", "chunk_9_9.ndjson"]
        assert summary.blocks_fetched == 10
        assert summary.transactions_written == 20
        assert summary.chunks_completed == 4
        assert not summary.interrupted
        assert checkpoint.is_complete
        assert Checkpoint.load(out / "checkpoint.json") == checkpoint

    def test_chunk_lines_are_ordered_and_decodable(self, tmp_path):
        fixture = make_fixture(tmp_path / "fx")
        out = tmp_path / "out"
        run_fixture_download(fixture, out)
        txs = list(iter_chunk_transactions(out / "chunks", ETH))
        assert len(txs) == 20
        assert [tx.block_height for tx in txs] == sorted(
            tx.block_height for tx in txs)

    def test_worker_count_does_not_change_chunk_bytes(self, tmp_path):
        fixture = make_fixture(tmp_path / "fx")
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        run_fixture_download(fixture, serial, worker_count=1)
        run_fixture_download(fixture, parallel, worker_count=4)
        assert chunk_bytes(serial) == chunk_bytes(parallel)

    def test_interrupt_and_resume_matches_single_shot(self, tmp_path):
        fixture = make_fixture(tmp_path / "fx")
        single = tmp_path / "single"
        run_fixture_download(fixture, single)

        resumed = tmp_path / "resumed"
        summary, checkpoint = run_fixture_download(fixture, resumed,
                                                   stop_after_blocks=5)
        assert summary.interrupted
        assert 2 <= len(checkpoint.done) < 4
        saved = Checkpoint.load(resumed / "checkpoint.json")
        assert saved.done == checkpoint.done

        summary2, checkpoint2 = run_fixture_download(fixture, resumed)
        assert not summary2.interrupted
        assert checkpoint2.is_complete
        assert summary.chunks_completed + summary2.chunks_completed == 4
        assert chunk_bytes(resumed) == chunk_bytes(single)

    @pytest.mark.parametrize("worker_count", [1, 4])
    def test_checkpoint_lists_only_chunks_in_place(self, tmp_path, monkeypatch,
                                                   worker_count):
        out = tmp_path / "out"
        saved = watch_saves(monkeypatch, out / "chunks")
        summary, checkpoint = run_fixture_download(
            make_fixture(tmp_path / "fx", block_count=12), out, chunk_size=1,
            worker_count=worker_count)
        assert summary.checkpoint_saves == len(saved) <= 12 + 1
        assert saved[-1] == checkpoint.done == set(range(12))

    def test_chunks_finished_during_a_save_share_the_next_save(
            self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        saved = watch_saves(monkeypatch, out / "chunks", delay=0.05)
        summary, checkpoint = run_fixture_download(
            make_fixture(tmp_path / "fx", block_count=12), out, chunk_size=1,
            worker_count=4)
        assert checkpoint.is_complete
        assert summary.checkpoint_saves == len(saved) <= 5

    def test_empty_task_list_is_a_no_op(self, tmp_path):
        provider = FixtureProvider(make_fixture(tmp_path / "fx"))
        out = tmp_path / "out"
        checkpoint = Checkpoint(ETH, 0, 9, 5, done={0, 5})
        summary = run_download([], provider, checkpoint,
                               chunk_dir=out / "chunks",
                               checkpoint_path=out / "checkpoint.json")
        assert (summary.blocks_fetched, summary.transactions_written,
                summary.chunks_completed) == (0, 0, 0)
        assert chunk_bytes(out) == {}

    def test_stale_temp_files_are_swept(self, tmp_path):
        fixture = make_fixture(tmp_path / "fx")
        out = tmp_path / "out"
        (out / "chunks").mkdir(parents=True)
        stale = out / "chunks" / ".tmp-chunk_0_2.ndjson"
        stale.write_text("half a chunk")
        run_fixture_download(fixture, out)
        assert not stale.exists()
        assert len(chunk_bytes(out)) == 4

    def test_provider_failure_leaves_checkpoint_consistent(self, tmp_path):
        class BrokenAt(FlakyProvider):
            def block_transactions(self, height):
                if height == 5:
                    raise ProviderError("block 5 is cursed", permanent=True)
                return super().block_transactions(height)

        provider = BrokenAt()
        out = tmp_path / "out"
        checkpoint = Checkpoint(ETH, 0, 9, 2)
        tasks = plan_tasks(BlockRange(0, 9), 2, checkpoint)
        with pytest.raises(ProviderError):
            run_download(tasks, provider, checkpoint,
                         chunk_dir=out / "chunks",
                         checkpoint_path=out / "checkpoint.json",
                         worker_count=2)
        saved = Checkpoint.load(out / "checkpoint.json")
        assert saved.done == checkpoint.done
        assert 4 not in saved.done
        remaining = plan_tasks(BlockRange(0, 9), 2, saved)
        planned = {t.first for t in remaining} | saved.done
        assert planned == {0, 2, 4, 6, 8}

    def test_retries_are_counted_across_threads(self, tmp_path):
        class FailsFirstAttempt(FlakyProvider):
            """Fails each block's first attempt, then serves it."""

            def __init__(self):
                super().__init__()
                self.failed = set()

            def block_transactions(self, height):
                if height not in self.failed:
                    self.failed.add(height)
                    raise ProviderError("scripted first failure")
                return super().block_transactions(height)

        def download(provider, out, worker_count):
            checkpoint = Checkpoint(ETH, 0, 19, 2)
            run_download(plan_tasks(BlockRange(0, 19), 2, checkpoint), provider,
                         checkpoint, chunk_dir=out / "chunks",
                         checkpoint_path=out / "checkpoint.json",
                         worker_count=worker_count)
            return chunk_bytes(out)

        provider = RetryingProvider(FailsFirstAttempt(), RetryPolicy(base_delay=0))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # a count updated without the lock loses some
        try:
            retried = download(provider, tmp_path / "retried", worker_count=4)
        finally:
            sys.setswitchinterval(interval)
        assert provider.request_attempts == 40
        assert retried == download(FlakyProvider(), tmp_path / "clean", 1)
        assert len(retried) == 10

    def test_stop_ends_a_backoff_wait_during_an_outage(self, tmp_path):
        both_failed = threading.Event()
        requested = []

        class Outage(FlakyProvider):
            def block_transactions(self, height):
                requested.append(height)
                if len(requested) == 2:
                    both_failed.set()
                raise ProviderError("HTTP 503")

        stop = threading.Event()

        def interrupt():
            both_failed.wait(5)
            time.sleep(0.05)  # both workers are in a 60 s backoff wait by now
            stop.set()

        out = tmp_path / "out"
        checkpoint = Checkpoint(ETH, 0, 9, 5)
        interrupter = threading.Thread(target=interrupt)
        interrupter.start()
        started = time.monotonic()
        summary = run_download(
            plan_tasks(BlockRange(0, 9), 5, checkpoint),
            # the cap bounds a stop that fails to end a wait to one 60 s wait
            RetryingProvider(Outage(), RetryPolicy(base_delay=60, max_attempts=2),
                             stop=stop),
            checkpoint, chunk_dir=out / "chunks",
            checkpoint_path=out / "checkpoint.json", worker_count=2,
            stop_event=stop)
        assert time.monotonic() - started < 2
        interrupter.join(5)
        assert not interrupter.is_alive()
        assert summary.interrupted and summary.chunks_completed == 0
        assert sorted(requested) == [0, 5]  # not retried once stopped
        assert Checkpoint.load(out / "checkpoint.json") == Checkpoint(ETH, 0, 9, 5)
        assert list((out / "chunks").iterdir()) == []

    def test_rejects_bad_worker_count(self, tmp_path):
        checkpoint = Checkpoint(ETH, 0, 9, 5)
        with pytest.raises(ValueError):
            run_download([], FlakyProvider(), checkpoint,
                         chunk_dir=tmp_path / "chunks",
                         checkpoint_path=tmp_path / "checkpoint.json",
                         worker_count=0)


class ScriptedProvider:
    """Serves ``records_at[height]`` as a block's records, as they are;
    other blocks hold one valid transfer."""

    def __init__(self, chain, records_at):
        self.chain = chain
        self.records_at = records_at

    def block_transactions(self, height):
        return self.records_at.get(height, [(height, height, None, ADDR[0], 1)])


# Raw keys: canonical, in other spellings, malformed, lone surrogates
RAW_KEYS = {
    ETH: [ADDR[0], ADDR[0].upper(), ADDR[0][:2] + ADDR[0][2:].upper(), ADDR[0][2:],
          f" {ADDR[0]}\t", "0x123", "0X" + "Z" * 40, "", " "],
    BTC: ["1Boat", " 1Boat\n", "1Bo\u00e9t", '1Bo"at', "1 Boat", "a\ud800",
          "\udfff", "", "\t"],
}
OTHER_VALUES = [0, 7, -1, 2**64, 1.5, 2.0, True, False, None, "7", [1], {"a": 1}]


def transfer_cases(chain):
    """Field dicts of one transfer, each with one field replaced."""
    keys = RAW_KEYS[chain] + OTHER_VALUES
    base = {"h": 3, "t": 300, "s": RAW_KEYS[chain][0], "r": RAW_KEYS[chain][1],
            "v": 5}
    for field, values in (("h", OTHER_VALUES), ("t", OTHER_VALUES), ("s", keys),
                          ("r", keys), ("v", OTHER_VALUES)):
        for value in values:
            yield {**base, field: value}


def provider_outcome(fields, chain):
    """The record ``fetch_block_transactions`` makes of ``fields``, or the
    reason it gives for refusing them.  The block fetched is the record's
    own height when that is an int, so only the transfer rules can refuse
    it."""
    height = fields["h"] if type(fields["h"]) is int else 3
    provider = ScriptedProvider(chain, {height: [tuple(fields[f] for f in "htsrv")]})
    try:
        [record] = fetch_block_transactions(provider, height)
    except ProviderError as exc:
        assert exc.permanent
        prefix, reason = str(exc).split(": ", 1)
        assert prefix == f"block {height} has a malformed transfer"
        return reason
    return record


def chunk_line_outcome(fields, chain):
    """The record the JSON path reads from ``fields`` as a chunk line, or the
    reason it gives for refusing it."""
    line = json.dumps(fields)  # spaces after separators: not the written shape
    assert chunks._WRITTEN[chain].fullmatch(line) is None
    try:
        return _decode_record(line, chain, None, None)
    except ParseError as exc:
        return str(exc)


class TestOneTransferCheck:
    @pytest.mark.parametrize("chain", [ETH, BTC])
    def test_same_fault_same_message_from_provider_and_chunk_line(self, chain):
        cases = list(transfer_cases(chain))
        outcomes = [(provider_outcome(fields, chain), chunk_line_outcome(fields, chain))
                    for fields in cases]
        assert [(fields, got) for fields, got in zip(cases, outcomes)
                if got[0] != got[1]] == []
        # both outcomes occur: 21 cases make a record, 57 a fault
        assert sum(type(got) is tuple for got, _ in outcomes) == 21
        assert len(cases) == 78

    @pytest.mark.parametrize("bad", [
        (1, 1, None, ADDR[0], True),
        (1, 1, None, ADDR[0], 1.5),
        (1, 1, 12, ADDR[0], 1),
        Transaction(None, ADDR[0], 1, 1, 1),
        (1, 1, None, ADDR[0]),
    ], ids=["amount-True", "amount-float", "key-12", "Transaction", "4-tuple"])
    def test_bad_record_fails_its_chunk_permanently(self, tmp_path, bad):
        provider = ScriptedProvider(ETH, {1: [(1, 1, ADDR[1], ADDR[0], 2), bad]})
        checkpoint = Checkpoint(ETH, 0, 2, 1)
        with pytest.raises(ProviderError,
                           match="^block 1 has a malformed transfer: ") as info:
            run_download(plan_tasks(BlockRange(0, 2), 1, checkpoint), provider,
                         checkpoint, chunk_dir=tmp_path / "chunks",
                         checkpoint_path=tmp_path / "checkpoint.json")
        assert info.value.permanent
        assert "\n" not in str(info.value)
        assert chunk_filename(1, 1) not in chunk_bytes(tmp_path)
        assert 1 not in Checkpoint.load(tmp_path / "checkpoint.json").done

    def test_record_of_another_block_fails_its_chunk_permanently(self, tmp_path):
        provider = ScriptedProvider(ETH, {3: [(3, 3, ADDR[1], ADDR[0], 2),
                                              (4, 3, ADDR[1], ADDR[0], 2)]})
        checkpoint = Checkpoint(ETH, 0, 5, 1)
        with pytest.raises(ProviderError, match="^block 3 returned a transfer "
                                                "of block 4$") as info:
            run_download(plan_tasks(BlockRange(0, 5), 1, checkpoint), provider,
                         checkpoint, chunk_dir=tmp_path / "chunks",
                         checkpoint_path=tmp_path / "checkpoint.json")
        assert info.value.permanent
        assert chunk_filename(3, 3) not in chunk_bytes(tmp_path)
        assert 3 not in Checkpoint.load(tmp_path / "checkpoint.json").done

    def test_raw_ethereum_keys_write_the_bytes_canonical_keys_write(self, tmp_path):
        forms = [str, str.upper, lambda k: k[2:], lambda k: k[2:].upper(),
                 lambda k: f" {k[:2]}{k[2:].upper()}\t"]
        canonical = {height: [(height, 10 * height, None if i == height else ADDR[i],
                               ADDR[(i + height + 1) % 6], i) for i in range(6)]
                     for height in range(3)}
        raw = {height: [(h, t, s if s is None else forms[i % 5](s),
                         forms[(i + 2) % 5](r), v)
                        for i, (h, t, s, r, v) in enumerate(records)]
               for height, records in canonical.items()}
        assert raw != canonical
        written = []
        for name, records_at in (("canonical", canonical), ("raw", raw)):
            checkpoint = Checkpoint(ETH, 0, 2, 2)
            run_download(plan_tasks(BlockRange(0, 2), 2, checkpoint),
                         ScriptedProvider(ETH, records_at), checkpoint,
                         chunk_dir=tmp_path / name / "chunks",
                         checkpoint_path=tmp_path / name / "checkpoint.json")
            written.append(chunk_bytes(tmp_path / name))
        assert written[0] == written[1]
        assert list(written[0]) == [chunk_filename(0, 1), chunk_filename(2, 2)]


class FakeStop:
    """A stop event on a fake clock: ``wait`` runs its whole timeout unless
    ``is_set``, then returns at once with True; ``waits`` lists its timeouts."""

    def __init__(self):
        self.clock = [0.0]
        self.is_set = False
        self.waits = []

    def wait(self, seconds):
        self.waits.append(seconds)
        if not self.is_set:
            self.clock[0] += seconds
        return self.is_set


class TestRateLimiting:
    def test_token_bucket_spaces_requests(self):
        stop = FakeStop()
        bucket = TokenBucket(rate=2.0, clock=lambda: stop.clock[0])
        for _ in range(4):
            bucket.acquire(stop)
        # burst capacity covers the first two; the next two wait half a second
        assert stop.waits == [0.5, 0.5]

    def test_token_bucket_refills_with_time(self):
        stop = FakeStop()
        bucket = TokenBucket(rate=2.0, clock=lambda: stop.clock[0])
        bucket.acquire(stop)
        bucket.acquire(stop)
        stop.clock[0] += 1.0
        bucket.acquire(stop)
        bucket.acquire(stop)
        assert stop.waits == []

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            TokenBucket(0)

    @pytest.mark.parametrize("rate", [1e-300, 1 / 86401],
                             ids=["1e-300", "1/86401"])
    def test_rejects_a_rate_below_one_request_a_day(self, rate):
        with pytest.raises(ValueError, match="one request a day"):
            TokenBucket(rate)

    def test_one_request_a_day_waits_a_day(self):
        stop = FakeStop()
        bucket = TokenBucket(rate=1 / 86400, clock=lambda: stop.clock[0])
        bucket.acquire(stop)
        bucket.acquire(stop)
        assert stop.waits == [pytest.approx(86400)]

    def test_a_stop_ends_a_token_wait(self):
        stop = FakeStop()
        bucket = TokenBucket(rate=2.0, clock=lambda: stop.clock[0])
        bucket.acquire(stop)
        bucket.acquire(stop)
        assert stop.waits == []  # the burst needs no wait
        bucket.acquire(stop)
        assert stop.waits == [0.5]
        stop.is_set = True
        with pytest.raises(ProviderError, match="^stopped while waiting for a "
                                                "rate-limit token$") as info:
            bucket.acquire(stop)
        assert not info.value.permanent
        assert stop.waits == [0.5, 0.5]
        stop.is_set = False
        bucket.acquire(stop)  # the stopped wait took no token
        assert stop.waits == [0.5, 0.5, 0.5]

    # At half a request a second, a token wait that ignored the stop would
    # take 2 s: these tests would fail, not hang.
    def test_retrying_provider_waits_for_a_token_on_its_stop(self):
        inner = FlakyProvider()
        stop = threading.Event()
        provider = RetryingProvider(inner, bucket=TokenBucket(0.5), stop=stop)
        provider.block_transactions(1)  # the one token of the burst
        stop.set()
        started = time.monotonic()
        with pytest.raises(ProviderError, match="rate-limit token") as info:
            provider.block_transactions(2)
        assert time.monotonic() - started < 1.0
        assert not info.value.permanent
        # the request waiting for a token is neither made nor counted
        assert inner.calls == provider.request_attempts == 1

    def test_a_stop_during_a_token_wait_leaves_the_chunk_pending(self, tmp_path):
        make_fixture(tmp_path / "fx")
        stop = threading.Event()
        provider = RetryingProvider(
            StopAfterBlocks(FixtureProvider(tmp_path / "fx"), stop, after=1),
            bucket=TokenBucket(0.5), stop=stop)
        checkpoint = Checkpoint(ETH, 0, 9, 2)
        started = time.monotonic()
        summary = run_download(plan_tasks(BlockRange(0, 9), 2, checkpoint),
                               provider, checkpoint, chunk_dir=tmp_path / "chunks",
                               checkpoint_path=tmp_path / "checkpoint.json",
                               stop_event=stop)
        assert time.monotonic() - started < 1.0
        # block 0 took the burst's token; block 1 waited for one when the
        # stop came, so chunk 0-1 is given up and stays pending
        assert summary.interrupted
        assert checkpoint.done == set()
        assert list_chunk_files(tmp_path / "chunks") == []
        assert provider.request_attempts == 1  # block 1 was never asked for

    def test_retrying_provider_takes_a_token_per_attempt(self):
        class CountingBucket:
            def __init__(self):
                self.acquired = 0

            def acquire(self, stop):
                self.acquired += 1

        bucket = CountingBucket()
        provider = retrying(FlakyProvider(failures=2), bucket=bucket)
        assert provider.chain is ETH
        provider.latest_height()
        provider.block_header(1)
        provider.block_transactions(1)
        # the two failed block attempts took a token each, like the third
        assert bucket.acquired == 1 + 1 + 3


def response(payload, status_code=200, body=None):
    """A requests Response of ``status_code`` whose body is ``payload`` as
    JSON, ``body`` if given, or empty if ``payload`` is None."""
    reply = requests.models.Response()
    reply.status_code = status_code
    reply.headers["Content-Type"] = "application/json"
    if body is None:
        body = "" if payload is None else json.dumps(payload)
    reply._content = body.encode("utf-8")
    return reply


class TestEthereumRpcProvider:
    @staticmethod
    def provider(script):
        class FakeSession:
            def post(self, url, json=None, timeout=None):
                return script(url, json)

        return EthereumRpcProvider("https://rpc.example/v3", "KEY",
                                   session=FakeSession())

    def test_url_includes_api_key(self):
        provider = self.provider(lambda url, body: response({"result": "0x0"}))
        assert provider.url == "https://rpc.example/v3/KEY"

    def test_latest_height(self):
        def script(url, body):
            assert body["method"] == "eth_blockNumber"
            return response({"jsonrpc": "2.0", "id": body["id"],
                                 "result": "0x10"})

        assert self.provider(script).latest_height() == 16

    def test_block_transactions_skip_contract_creation(self):
        block = {
            "timestamp": "0x64",
            "transactions": [
                {"from": ADDR[0].upper().replace("0X", "0x"), "to": ADDR[1],
                 "value": "0xa"},
                {"from": ADDR[2], "to": None, "value": "0x1"},
            ],
        }

        def script(url, body):
            assert body["method"] == "eth_getBlockByNumber"
            assert body["params"] == ["0x7", True]
            return response({"result": block})

        records = fetch_block_transactions(self.provider(script), 7)
        assert records == [(7, 100, ADDR[0], ADDR[1], 10)]

    @pytest.mark.parametrize("entry", [{"to": ADDR[1], "value": "0x1"},
                                       {"from": None, "to": ADDR[1], "value": "0x1"}],
                             ids=["missing", "null"])
    def test_transfer_without_from_is_permanent(self, entry):
        # a senderless record would pass as a block reward
        block = {"timestamp": "0x64", "transactions": [entry]}
        provider = self.provider(lambda url, body: response({"result": block}))
        with pytest.raises(ProviderError, match="^block 7 has a malformed tx: "
                                                "'from' is missing or null$") as info:
            provider.block_transactions(7)
        assert info.value.permanent

    def test_block_header(self):
        def script(url, body):
            assert body["method"] == "eth_getBlockByNumber"
            assert body["params"] == ["0x7", False]
            return response({"result": {"timestamp": "0x64"}})

        assert self.provider(script).block_header(7) == 100

    def test_reply_without_result_or_error_is_transient(self):
        provider = self.provider(lambda url, body: response({"jsonrpc": "2.0",
                                                             "id": 1}))
        with pytest.raises(ProviderError, match="^eth_blockNumber returned a "
                                                "malformed JSON-RPC response$") as info:
            provider.latest_height()
        assert not info.value.permanent

    @pytest.mark.parametrize("call", ["block_header", "block_transactions"])
    def test_null_block_is_permanent(self, call):
        provider = self.provider(lambda url, body: response({"result": None}))
        with pytest.raises(ProviderError, match="^block 7 not available$") as info:
            getattr(provider, call)(7)
        assert info.value.permanent

    def test_rpc_error_is_transient(self):
        provider = self.provider(
            lambda url, body: response({"error": {"code": -32005,
                                                      "message": "rate limited"}}))
        with pytest.raises(ProviderError) as info:
            provider.latest_height()
        assert not info.value.permanent

    def test_http_error_is_transient(self):
        provider = self.provider(lambda url, body: response(None, 503))
        with pytest.raises(ProviderError) as info:
            provider.latest_height()
        assert not info.value.permanent

    def test_network_error_is_transient(self):
        def script(url, body):
            raise requests.ConnectionError("boom")

        with pytest.raises(ProviderError) as info:
            self.provider(script).latest_height()
        assert not info.value.permanent

    def test_network_error_does_not_leak_api_key(self):
        class RefusingSession:
            def post(self, url, json=None, timeout=None):
                # requests quotes the failing URL like this
                raise requests.ConnectionError(
                    f"Max retries exceeded with url: {url}")

        provider = EthereumRpcProvider("https://rpc.example/v3", "SECRETKEY123",
                                       session=RefusingSession())
        with pytest.raises(ProviderError) as info:
            provider.latest_height()
        assert "SECRETKEY123" not in str(info.value)
        assert "/v3/REDACTED" in str(info.value)
        assert info.value.__cause__ is None

    def test_bad_hex_is_permanent(self):
        provider = self.provider(lambda url, body: response({"result": "zz"}))
        with pytest.raises(ProviderError) as info:
            provider.latest_height()
        assert info.value.permanent


BTC_IN = ["1InputOne1111111111111111111111111", "1InputTwo2222222222222222222222222"]
BTC_OUT = ["1OutputOne111111111111111111111111", "1OutputTwo222222222222222222222222"]


class TestBitcoinApiProvider:
    @staticmethod
    def provider(routes):
        class FakeSession:
            def get(self, url, timeout=None):
                for suffix, payload in routes.items():
                    if url.endswith(suffix):
                        return response(payload)
                return response(None, 404)

        return BitcoinApiProvider(session=FakeSession())

    def test_latest_height(self):
        provider = self.provider({"/latestblock": {"height": 123}})
        assert provider.latest_height() == 123

    def test_transport_error_is_transient(self):
        class RefusingSession:
            def get(self, url, timeout=None):
                raise requests.ConnectionError("boom")

        with pytest.raises(ProviderError,
                           match="^GET /latestblock failed: boom$") as info:
            BitcoinApiProvider(session=RefusingSession()).latest_height()
        assert not info.value.permanent

    def test_http_error_is_transient(self):
        class BusySession:
            def get(self, url, timeout=None):
                return response(None, 503)

        with pytest.raises(ProviderError, match="^GET /block-height/7"
                           r"\?format=json returned HTTP 503$") as info:
            BitcoinApiProvider(session=BusySession()).block_header(7)
        assert not info.value.permanent

    @pytest.mark.parametrize("doc", [{}, {"height": "123"}, {"height": 1.0},
                                     {"height": True}, [123]])
    def test_latestblock_without_integer_height_is_transient(self, doc):
        provider = self.provider({"/latestblock": doc})
        with pytest.raises(ProviderError, match="^latestblock returned no "
                                                "height: ") as info:
            provider.latest_height()
        assert not info.value.permanent

    def test_height_without_main_chain_block_takes_the_first(self):
        routes = {"/block-height/7?format=json": {"blocks": [
            {"main_chain": False, "time": 1, "tx": []},
            {"main_chain": False, "time": 2, "tx": []},
        ]}}
        assert self.provider(routes).block_header(7) == 1

    @pytest.mark.parametrize("time", [None, "100", 100.0, True])
    @pytest.mark.parametrize("call", ["block_header", "block_transactions"])
    def test_block_without_integer_time_is_permanent(self, call, time):
        block = {"main_chain": True, "tx": []}
        if time is not None:
            block["time"] = time
        routes = {"/block-height/7?format=json": {"blocks": [block]}}
        with pytest.raises(ProviderError,
                           match="^block 7 has no time field$") as info:
            getattr(self.provider(routes), call)(7)
        assert info.value.permanent

    def test_picks_main_chain_block(self):
        routes = {"/block-height/7?format=json": {"blocks": [
            {"main_chain": False, "time": 1, "tx": []},
            {"main_chain": True, "time": 999, "tx": []},
        ]}}
        assert self.provider(routes).block_header(7) == 999

    def test_multi_input_output_expansion(self):
        tx = {
            "inputs": [{"prev_out": {"addr": BTC_IN[0]}},
                       {"prev_out": {"addr": BTC_IN[1]}}],
            "out": [{"addr": BTC_OUT[0], "value": 7},
                    {"value": 3},
                    {"addr": BTC_OUT[1], "value": 4}],
        }
        routes = {"/block-height/3?format=json": {"blocks": [
            {"main_chain": True, "time": 500, "tx": [tx]}]}}
        records = self.provider(routes).block_transactions(3)
        # 7 splits 4 + 3 across the two inputs; the addressless output is skipped
        assert records == [
            (3, 500, BTC_IN[0], BTC_OUT[0], 4),
            (3, 500, BTC_IN[1], BTC_OUT[0], 3),
            (3, 500, BTC_IN[0], BTC_OUT[1], 2),
            (3, 500, BTC_IN[1], BTC_OUT[1], 2),
        ]

    def test_coinbase_becomes_senderless(self):
        tx = {"inputs": [{}], "out": [{"addr": BTC_OUT[0], "value": 50}]}
        routes = {"/block-height/0?format=json": {"blocks": [
            {"main_chain": True, "time": 100, "tx": [tx]}]}}
        records = self.provider(routes).block_transactions(0)
        assert records == [(0, 100, None, BTC_OUT[0], 50)]

    @pytest.mark.parametrize("value", [1.5, True, "7"])
    @pytest.mark.parametrize("inputs", [[], [{"prev_out": {"addr": BTC_IN[0]}}],
                                        [{"prev_out": {"addr": a}} for a in BTC_IN]])
    def test_non_integer_value_is_permanent(self, inputs, value):
        tx = {"inputs": inputs, "out": [{"addr": BTC_OUT[0], "value": value}]}
        routes = {"/block-height/0?format=json": {"blocks": [
            {"main_chain": True, "time": 100, "tx": [tx]}]}}
        with pytest.raises(ProviderError, match="must be an integer") as info:
            self.provider(routes).block_transactions(0)
        assert info.value.permanent

    def test_missing_height_is_permanent(self):
        provider = self.provider({"/block-height/9?format=json": {"blocks": []}})
        with pytest.raises(ProviderError) as info:
            provider.block_header(9)
        assert info.value.permanent


@pytest.mark.parametrize("body", ["[" * 100_000, '{"result": NaN, "height": NaN}'],
                         ids=["deeply-nested", "nan"])
@pytest.mark.parametrize("chain", [ETH, BTC])
def test_body_that_is_not_strict_json_is_a_transient_error(chain, body):
    class Session:
        def get(self, url, json=None, timeout=None):
            return response(None, body=body)

        post = get

    if chain is ETH:
        provider = EthereumRpcProvider("https://rpc.example/v3", session=Session())
        message = "eth_blockNumber returned non-JSON body"
    else:
        provider = BitcoinApiProvider(session=Session())
        message = "GET /latestblock returned non-JSON body"
    with pytest.raises(ProviderError, match=f"^{message}$") as info:
        provider.latest_height()
    assert not info.value.permanent


@pytest.mark.parametrize("failure, ending", [
    ("connection-error", "failed: boom"), ("http-503", "returned HTTP 503"),
    ("not-json", "returned non-JSON body")], ids=["connection-error", "http-503",
                                                  "not-json"])
@pytest.mark.parametrize("chain, request_name", [(ETH, "eth_blockNumber"),
                                                 (BTC, "GET /latestblock")],
                         ids=["ethereum", "bitcoin"])
def test_request_failure_is_transient_and_chains_nothing(chain, request_name,
                                                         failure, ending):
    class Session:
        def get(self, url, json=None, timeout=None):
            if failure == "connection-error":
                raise requests.ConnectionError("boom")
            return response(None, 503) if failure == "http-503" else response(
                None, body="{")

        post = get

    provider = (EthereumRpcProvider("https://rpc.example/v3", "KEY",
                                    session=Session())
                if chain is ETH else BitcoinApiProvider(session=Session()))
    with pytest.raises(ProviderError) as info:
        provider.latest_height()
    assert str(info.value) == f"{request_name} {ending}"
    assert info.value.permanent is False
    assert info.value.__cause__ is None


@pytest.mark.parametrize("endpoint", [
    "", "rpc.example/v3", "ftp://rpc.example", "http://"],
    ids=["empty", "no-scheme", "ftp", "no-host"])
@pytest.mark.parametrize("chain", [ETH, BTC])
def test_malformed_endpoint_is_a_permanent_error(chain, endpoint, no_connections):
    if chain is ETH:
        provider = EthereumRpcProvider(endpoint, session=requests.Session())
        message = "eth_blockNumber failed: "
    else:
        provider = BitcoinApiProvider(endpoint, session=requests.Session())
        message = "GET /latestblock failed: "
    with pytest.raises(ProviderError, match=f"^{message}") as info:
        provider.latest_height()
    assert info.value.permanent


def test_malformed_endpoint_error_does_not_leak_api_key(no_connections):
    provider = EthereumRpcProvider("rpc.example/v3", "SECRETKEY123",
                                   session=requests.Session())
    with pytest.raises(ProviderError) as info:
        provider.latest_height()
    assert info.value.permanent
    assert "SECRETKEY123" not in str(info.value)
    assert "rpc.example/v3/REDACTED" in str(info.value)


def reply_provider(chain, block_at):
    """The network provider of ``chain`` on a stub session whose reply to a
    block request is ``block_at(height)``: the JSON-RPC result, or the REST
    body."""
    class Session:
        def post(self, url, json=None, timeout=None):
            return response({"result": block_at(int(json["params"][0], 16))})

        def get(self, url, timeout=None):
            return response(block_at(int(url.split("/")[-1].split("?")[0])))

    if chain is ETH:
        return EthereumRpcProvider("https://rpc.example/v3", session=Session())
    return BitcoinApiProvider(session=Session())


def eth_block(transactions):
    return {"timestamp": "0x64", "transactions": transactions}


def btc_block(tx=None, inputs=None, out=None, blocks=None):
    tx = tx or [{"inputs": inputs or [{"prev_out": {"addr": BTC_IN[0]}}],
                 "out": out or [{"addr": BTC_OUT[0], "value": 5}]}]
    return {"blocks": blocks or [{"main_chain": True, "time": 100, "tx": tx}]}


@pytest.mark.parametrize("chain, bad, reason", [
    (ETH, eth_block(["0x" + "ab" * 32]), f"'0x{'ab' * 32}' is not an object"),
    (ETH, eth_block(7), "expected a list, got int"),
    (BTC, btc_block(inputs=[5]), "5 is not an object"),
    (BTC, btc_block(inputs=[{"prev_out": 5}]), "prev_out 5 is not an object"),
    (BTC, btc_block(out=[[BTC_OUT[0], 5]]), f"['{BTC_OUT[0]}', 5] is not an object"),
    (BTC, btc_block(tx=["f00d"]), "'f00d' is not an object"),
    (BTC, btc_block(blocks=[5]), "5 is not an object"),
], ids=["eth-tx-hashes", "eth-tx-not-a-list", "btc-input", "btc-prev-out",
        "btc-output", "btc-tx", "btc-blocks-entry"])
def test_reply_entry_that_is_not_an_object_fails_its_chunk_permanently(
        tmp_path, chain, bad, reason):
    good = eth_block([{"from": ADDR[0], "to": ADDR[1], "value": "0x1"}]
                     ) if chain is ETH else btc_block()
    provider = reply_provider(chain, lambda height: bad if height == 1 else good)
    assert len(fetch_block_transactions(provider, 0)) == 1
    message = f"^block 1 has a malformed tx: {re.escape(reason)}$"
    with pytest.raises(ProviderError, match=message) as info:
        fetch_block_transactions(provider, 1)
    assert info.value.permanent
    checkpoint = Checkpoint(chain, 0, 2, 1)
    with pytest.raises(ProviderError, match=message):
        run_download(plan_tasks(BlockRange(0, 2), 1, checkpoint), provider,
                     checkpoint, chunk_dir=tmp_path / "chunks",
                     checkpoint_path=tmp_path / "checkpoint.json")
    assert chunk_filename(1, 1) not in chunk_bytes(tmp_path)
    assert 1 not in Checkpoint.load(tmp_path / "checkpoint.json").done
