import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
import requests

from conftest import make_fixture
from ledgernet import __version__, cli
from ledgernet.formats import write_json
from ledgernet.ingestion import list_chunk_files

ENV_VARS = ("LEDGERNET_ENDPOINT", "LEDGERNET_API_KEY", "LEDGERNET_RATE_LIMIT",
            "LEDGERNET_RETRY_CAP", "LEDGERNET_BACKOFF_BASE")

VOLATILE_KEYS = ("generated_at", "timings_seconds")

# When a report was written: UTC, to the second.
GENERATED_AT = r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00"

# json raises RecursionError, not ValueError, on this
DEEP_JSON = b"[" * 100_000

MINI = Path(__file__).parent / "fixtures" / "mini"

# The src directory this package was imported from: child processes get it
# as PYTHONPATH, since the test settings' pythonpath is not inherited.
SRC = str(Path(cli.__file__).parents[1])


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch):
    for name in ENV_VARS:
        monkeypatch.delenv(name, raising=False)


@pytest.fixture()
def fixture_dir(tmp_path):
    return make_fixture(tmp_path / "fx")


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def download(fixture, out, *extra):
    return run_cli("download", "--chain", "ethereum", "--fixture", fixture,
                   "--from-block", 0, "--to-block", 9, "--chunk-size", 3,
                   "--output-dir", out, *extra)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def stripped(doc):
    """Drops wall-clock keys at any depth so reruns can be compared."""
    if isinstance(doc, dict):
        return {k: stripped(v) for k, v in doc.items() if k not in VOLATILE_KEYS}
    if isinstance(doc, list):
        return [stripped(v) for v in doc]
    return doc


def chunk_bytes(out):
    return {p.name: p.read_bytes() for p in list_chunk_files(out / "chunks")}


class TestDownload:
    def test_writes_chunks_checkpoint_and_summary(self, fixture_dir, tmp_path,
                                                  capsys):
        out = tmp_path / "out"
        assert download(fixture_dir, out) == 0
        assert sorted(chunk_bytes(out)) == ["chunk_0_2.ndjson", "chunk_3_5.ndjson",
                                            "chunk_6_8.ndjson", "chunk_9_9.ndjson"]
        doc = read_json(out / "download_summary.json")
        assert doc["tool"] == "ledgernet"
        assert doc["tool_version"] == __version__
        assert doc["block_range"] == {"first": 0, "last": 9}
        assert doc["chunks_total"] == 4
        assert doc["chunks_done"] == 4
        assert doc["blocks_fetched"] == 10
        assert doc["transactions_written"] == 20
        assert doc["interrupted"] is False
        assert doc["config"]["chain"] == "ethereum"
        assert "downloaded 10 blocks" in capsys.readouterr().out

    def test_chunk_size_defaults_to_the_download_constant(self, fixture_dir,
                                                           tmp_path):
        from ledgernet.ingestion.download import DEFAULT_CHUNK_SIZE

        out = tmp_path / "out"
        assert run_cli("download", "--chain", "ethereum", "--fixture", fixture_dir,
                       "--from-block", 0, "--to-block", 9, "--rate-limit", 0,
                       "--output-dir", out) == 0
        config = read_json(out / "download_summary.json")["config"]
        assert config["chunk_size"] == DEFAULT_CHUNK_SIZE
        assert read_json(out / "checkpoint.json")["chunk_size"] == DEFAULT_CHUNK_SIZE

    def test_rerun_is_a_no_op(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        download(fixture_dir, out)
        before = chunk_bytes(out)
        capsys.readouterr()
        assert download(fixture_dir, out) == 0
        assert "nothing to do: all 4 chunks" in capsys.readouterr().out
        assert chunk_bytes(out) == before
        doc = read_json(out / "download_summary.json")
        assert doc["chunks_completed_this_run"] == 0
        assert doc["chunks_done"] == 4

    def test_summary_records_requests_saves_and_timings(self, fixture_dir,
                                                        tmp_path, monkeypatch):
        from ledgernet.errors import ProviderError
        from ledgernet.ingestion import FixtureProvider

        fetch = FixtureProvider.block_transactions
        failed = set()

        def fails_once_per_block(provider, height):
            if height not in failed:
                failed.add(height)
                raise ProviderError("scripted transient failure")
            return fetch(provider, height)

        monkeypatch.setattr(FixtureProvider, "block_transactions",
                            fails_once_per_block)
        out = tmp_path / "out"
        assert download(fixture_dir, out, "--backoff-base", "0.001") == 0
        doc = read_json(out / "download_summary.json")
        assert doc["request_attempts"] == 20
        assert 2 <= doc["checkpoint_saves"] <= 5
        assert doc["timings_seconds"]["download_seconds"] > 0
        assert doc["chunks_done"] == 4 and doc["blocks_fetched"] == 10

    @pytest.mark.parametrize("amount", ["1.5", "true", "1e3"])
    def test_non_integer_amount_exits_2_and_leaves_chunk_not_done(
            self, fixture_dir, tmp_path, capsys, amount):
        block = fixture_dir / "block_00000004.json"
        doc = json.loads(block.read_text())
        doc["transactions"][1]["amount"] = json.loads(amount)
        block.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert download(fixture_dir, out, "--workers", 1) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: block 4 has a malformed transfer: "
                              "amount must be an integer, got ")
        assert err.count("\n") == 1
        checkpoint = read_json(out / "checkpoint.json")
        assert 3 not in checkpoint["done"]
        assert "chunk_3_5.ndjson" not in chunk_bytes(out)

    @pytest.mark.parametrize("selector", [("--from-block", 0, "--to-block", 9),
                                          ("--from-time", 250, "--to-time", 650)],
                             ids=["blocks", "interval"])
    @pytest.mark.parametrize("body, problem", [
        ("[]", "not a JSON object"),
        ('{{"height": {height}, "transactions": []}}',
         "timestamp None is not an integer"),
    ], ids=["list", "no-timestamp"])
    def test_malformed_fixture_block_exits_2_with_one_line(
            self, fixture_dir, tmp_path, capsys, selector, body, problem):
        # every block is broken, so block_header (resolving a time interval)
        # and block_transactions both meet one
        for height in range(10):
            (fixture_dir / f"block_{height:08d}.json").write_text(
                body.format(height=height))
        code = run_cli("download", "--chain", "ethereum", "--fixture", fixture_dir,
                       *selector, "--workers", 1, "--output-dir", tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: fixture block ")
        assert err.endswith(f" malformed: {problem}\n")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("meta, problem", [
        (DEEP_JSON, "maximum recursion depth"), (b"[]", "not a JSON object")],
        ids=["deeply-nested", "not-an-object"])
    def test_broken_fixture_meta_exits_2_with_one_line(
            self, fixture_dir, tmp_path, capsys, meta, problem):
        (fixture_dir / "meta.json").write_bytes(meta)
        assert download(fixture_dir, tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: fixture {fixture_dir} has a broken "
                              f"meta.json: {problem}")
        assert err.count("\n") == 1

    def test_deeply_nested_fixture_block_exits_2_with_one_line(
            self, fixture_dir, tmp_path, capsys):
        (fixture_dir / "block_00000002.json").write_bytes(DEEP_JSON)
        out = tmp_path / "out"
        assert download(fixture_dir, out, "--workers", 1) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: fixture block 2 unreadable: "
                              "maximum recursion depth")
        assert err.count("\n") == 1
        checkpoint = read_json(out / "checkpoint.json")
        assert 0 not in checkpoint["done"]
        assert "chunk_0_2.ndjson" not in chunk_bytes(out)

    def test_force_discards_previous_run(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        download(fixture_dir, out)
        pristine = chunk_bytes(out)
        (out / "chunks" / "chunk_0_2.ndjson").write_text("garbage\n")
        assert download(fixture_dir, out, "--force") == 0
        assert "discarded previous checkpoint" in capsys.readouterr().out
        assert chunk_bytes(out) == pristine

    def test_force_discards_chunk_files_without_a_checkpoint(self, fixture_dir,
                                                             tmp_path, capsys):
        out = tmp_path / "out"
        assert download(fixture_dir, out, "--chunk-size", 2) == 0
        (out / "checkpoint.json").unlink()
        assert download(fixture_dir, out, "--force") == 0
        assert "discarded previous checkpoint" in capsys.readouterr().out
        assert download(fixture_dir, tmp_path / "fresh") == 0
        assert chunk_bytes(out) == chunk_bytes(tmp_path / "fresh")
        assert run_cli("build", "--output-dir", out) == 0

    def test_time_interval_selector(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("download", "--chain", "ethereum",
                       "--fixture", fixture_dir,
                       "--from-time", 250, "--to-time", 650,
                       "--chunk-size", 2, "--output-dir", out)
        assert code == 0
        assert "covers blocks 3..6" in capsys.readouterr().out
        doc = read_json(out / "download_summary.json")
        assert doc["block_range"] == {"first": 3, "last": 6}
        assert sorted(chunk_bytes(out)) == ["chunk_3_4.ndjson", "chunk_5_6.ndjson"]

    def test_fixture_name_with_non_ascii_digits_is_ignored(self, fixture_dir,
                                                          tmp_path, capsys):
        # "\u00b2".isdigit() is true, but int() rejects it.
        (fixture_dir / "block_\u00b2\u00b2.json").write_text("{}")
        code = run_cli("download", "--chain", "ethereum",
                       "--fixture", fixture_dir,
                       "--from-time", 250, "--to-time", 650,
                       "--chunk-size", 2, "--output-dir", tmp_path / "out")
        assert code == 0
        assert "covers blocks 3..6" in capsys.readouterr().out

    def test_interval_after_tip_fails(self, fixture_dir, tmp_path, capsys):
        code = run_cli("download", "--chain", "ethereum",
                       "--fixture", fixture_dir,
                       "--from-time", 950, "--to-time", 999,
                       "--output-dir", tmp_path / "out")
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("to_block", [10, 20_000])
    def test_to_block_past_the_tip_is_refused_before_any_file(
            self, fixture_dir, tmp_path, capsys, to_block):
        out = tmp_path / "out"
        code = run_cli("download", "--chain", "ethereum", "--fixture", fixture_dir,
                       "--from-block", 0, "--to-block", to_block,
                       "--chunk-size", 1, "--output-dir", out)
        assert code == 1
        assert capsys.readouterr().err == (f"usage error: --to-block {to_block} "
                                           "is past the chain tip, block 9\n")
        assert not out.exists()
        assert download(fixture_dir, out) == 0

    def test_to_block_past_the_tip_leaves_a_checkpoint_as_it_was(
            self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert download(fixture_dir, out) == 0
        before = (out / "checkpoint.json").read_bytes(), chunk_bytes(out)
        capsys.readouterr()
        code = run_cli("download", "--chain", "ethereum", "--fixture", fixture_dir,
                       "--from-block", 0, "--to-block", 12, "--force",
                       "--output-dir", out)
        assert code == 1
        assert capsys.readouterr() == (
            "", "usage error: --to-block 12 is past the chain tip, block 9\n")
        assert ((out / "checkpoint.json").read_bytes(), chunk_bytes(out)) == before

    def test_fixture_without_blocks_is_one_line(self, tmp_path, capsys):
        fixture = tmp_path / "fx"
        make_fixture(fixture, block_count=0)
        out = tmp_path / "out"
        code = run_cli("download", "--chain", "ethereum", "--fixture", fixture,
                       "--from-block", 0, "--to-block", 0, "--output-dir", out)
        assert code == 2
        assert capsys.readouterr().err == f"error: fixture {fixture} holds no blocks\n"
        assert not out.exists()

    @pytest.mark.parametrize("times, line", [
        ([250], "--from-time and --to-time must be given together"),
        ([650, 250], "interval start 650 after end 250"),
    ], ids=["from-time-alone", "from-after-to"])
    def test_time_interval_usage_errors(self, fixture_dir, tmp_path, capsys,
                                        times, line):
        flags = [flag for pair in zip(["--from-time", "--to-time"], times)
                 for flag in pair]
        out = tmp_path / "out"
        code = run_cli("download", "--chain", "ethereum", "--fixture", fixture_dir,
                       *flags, "--output-dir", out)
        assert code == 1
        assert capsys.readouterr().err == f"usage error: {line}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["download", "--chain", "ethereum", "--fixture", "FX"],
        ["download", "--chain", "ethereum", "--fixture", "FX",
         "--from-block", "0", "--to-block", "9",
         "--from-time", "0", "--to-time", "9"],
        ["download", "--chain", "ethereum", "--fixture", "FX",
         "--from-block", "0"],
        ["download", "--chain", "ethereum", "--fixture", "FX",
         "--from-block", "9", "--to-block", "2"],
        ["download", "--chain", "ethereum", "--fixture", "FX",
         "--from-block", "0", "--to-block", "9", "--chunk-size", "0"],
        ["download", "--chain", "ethereum", "--fixture", "FX",
         "--from-block", "0", "--to-block", "9", "--workers", "0"],
        ["download", "--chain", "ethereum",
         "--from-block", "0", "--to-block", "9"],
    ])
    def test_usage_errors(self, fixture_dir, tmp_path, capsys, argv):
        argv = [str(fixture_dir) if a == "FX" else a for a in argv]
        argv += ["--output-dir", str(tmp_path / "out")]
        assert cli.main(argv) == 1
        assert "usage error:" in capsys.readouterr().err

    def test_api_key_is_redacted_in_echo(self, fixture_dir, tmp_path,
                                         monkeypatch):
        monkeypatch.setenv("LEDGERNET_API_KEY", "hunter2")
        out = tmp_path / "out"
        download(fixture_dir, out)
        text = (out / "download_summary.json").read_text()
        assert "hunter2" not in text
        assert read_json(out / "download_summary.json")["config"]["api_key"] == \
            "REDACTED"

    def test_api_key_stays_out_of_provider_errors(self, tmp_path, capsys,
                                                  monkeypatch):
        class RefusingSession:
            def post(self, url, json=None, timeout=None):
                raise requests.ConnectionError(
                    f"Max retries exceeded with url: {url}")

        monkeypatch.setattr(requests, "Session", RefusingSession)
        code = run_cli("download", "--chain", "ethereum",
                       "--endpoint", "https://rpc.example/v3",
                       "--api-key", "SECRETKEY123", "--from-block", 0,
                       "--to-block", 0, "--retry-cap", 1, "--rate-limit", 0,
                       "--output-dir", tmp_path / "out")
        assert code == 2
        err = capsys.readouterr().err
        assert "eth_blockNumber failed" in err
        assert "SECRETKEY123" not in err

    def test_bad_env_value_is_usage_error(self, fixture_dir, tmp_path,
                                          monkeypatch, capsys):
        monkeypatch.setenv("LEDGERNET_RATE_LIMIT", "fast")
        assert download(fixture_dir, tmp_path / "out") == 1
        assert "LEDGERNET_RATE_LIMIT" in capsys.readouterr().err

    @pytest.mark.parametrize("key, bad", [
        ("rate_limit", float("nan")), ("rate_limit", float("inf")),
        ("rate_limit", -1.0), ("rate_limit", 1e-300), ("rate_limit", 1 / 86401),
        ("retry_cap", 0), ("retry_cap", -2),
        ("backoff_base", -1.0), ("backoff_base", float("nan")),
        ("backoff_base", float("inf")),
    ])
    @pytest.mark.parametrize("source", ["flag", "environment"])
    def test_bad_provider_setting_is_usage_error(self, fixture_dir, tmp_path,
                                                 monkeypatch, capsys, key,
                                                 bad, source):
        extra = []
        if source == "flag":
            named = "--" + key.replace("_", "-")
            extra = [named, bad]
        else:
            monkeypatch.setenv(f"LEDGERNET_{key.upper()}", str(bad))
            named = f"environment variable LEDGERNET_{key.upper()}"
        out = tmp_path / "out"
        assert download(fixture_dir, out, *extra) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {named} must be ")
        assert err.endswith(f", got {bad!r}\n") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("key, raw, message", [
        # int() refuses a string of more than 4,300 digits with ValueError
        ("retry_cap", "9" * 4301, "bad value for environment variable "
                                  "LEDGERNET_RETRY_CAP: '999"),
        # float() reads 1e999 as inf, which the finite checks refuse
        ("rate_limit", "1e999", "environment variable LEDGERNET_RATE_LIMIT "
                                "must be "),
        ("backoff_base", "1e999", "environment variable "
                                  "LEDGERNET_BACKOFF_BASE must be "),
    ])
    def test_env_number_out_of_range_is_a_usage_error(self, fixture_dir,
                                                      tmp_path, monkeypatch,
                                                      capsys, key, raw,
                                                      message):
        monkeypatch.setenv(f"LEDGERNET_{key.upper()}", raw)
        out = tmp_path / "out"
        assert download(fixture_dir, out) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: " + message)
        assert err.count("\n") == 1 and "Traceback" not in err
        if raw == "1e999":
            assert err.endswith(", got inf\n")
        assert not out.exists()

    def test_config_flag_is_refused(self, fixture_dir, tmp_path, capsys):
        config_path = tmp_path / "settings.json"
        config_path.write_text('{"rate_limit": 5}\n')
        out = tmp_path / "out"
        assert download(fixture_dir, out, "--config", config_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "--config" in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("key, default, env_value, flag_value", [
        ("endpoint", None, "http://env.example", "http://flag.example"),
        ("rate_limit", 0.0, 3.0, 7.0),
        ("retry_cap", None, 4, 2),
        ("backoff_base", 0.5, 0.25, 2.0),
    ])
    def test_flag_beats_env_beats_default(self, fixture_dir, tmp_path,
                                          monkeypatch, key, default,
                                          env_value, flag_value):
        def echoed(out, *extra):
            assert download(fixture_dir, out, *extra) == 0
            return read_json(out / "download_summary.json")["config"].get(key)

        assert echoed(tmp_path / "o1") == default
        monkeypatch.setenv(f"LEDGERNET_{key.upper()}", str(env_value))
        assert echoed(tmp_path / "o2") == env_value
        flag = "--" + key.replace("_", "-")
        assert echoed(tmp_path / "o3", flag, flag_value) == flag_value

    def test_api_key_flag_beats_env_beats_default(self, tmp_path, monkeypatch):
        posted = []

        class RefusingSession:
            def post(self, url, json=None, timeout=None):
                posted.append(url)
                raise requests.ConnectionError("refused")

        monkeypatch.setattr(requests, "Session", RefusingSession)

        def post_url(*extra):
            assert run_cli("download", "--chain", "ethereum",
                           "--endpoint", "https://rpc.example/v3",
                           "--from-block", 0, "--to-block", 0,
                           "--retry-cap", 1, "--rate-limit", 0,
                           "--output-dir", tmp_path / "out", *extra) == 2
            return posted.pop()

        assert post_url() == "https://rpc.example/v3"
        monkeypatch.setenv("LEDGERNET_API_KEY", "envkey")
        assert post_url() == "https://rpc.example/v3/envkey"
        assert post_url("--api-key", "flagkey") == "https://rpc.example/v3/flagkey"
        assert not (tmp_path / "out").exists()

    def test_empty_api_key_variable_counts_as_unset(self, fixture_dir, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("LEDGERNET_API_KEY", "")
        out = tmp_path / "out"
        assert download(fixture_dir, out) == 0
        assert "api_key" not in read_json(out / "download_summary.json")["config"]

    def test_empty_rate_limit_variable_counts_as_unset(self, fixture_dir,
                                                       tmp_path, monkeypatch):
        monkeypatch.setenv("LEDGERNET_RATE_LIMIT", "")
        out = tmp_path / "out"
        assert download(fixture_dir, out) == 0
        config = read_json(out / "download_summary.json")["config"]
        assert config["rate_limit"] == 0.0

    def test_empty_endpoint_variable_counts_as_unset(self, tmp_path, monkeypatch,
                                                     capsys):
        monkeypatch.setenv("LEDGERNET_ENDPOINT", "")
        out = tmp_path / "out"
        # The cap bounds the retries of a request the empty URL would make
        assert run_cli("download", "--chain", "ethereum", "--from-block", 0,
                       "--to-block", 4, "--retry-cap", 1,
                       "--output-dir", out) == 1
        assert capsys.readouterr().err == (
            "usage error: ethereum needs --endpoint (or LEDGERNET_ENDPOINT), "
            "e.g. an Infura-style JSON-RPC URL\n")
        assert not out.exists()

    @pytest.mark.parametrize("chain, request_name", [
        ("ethereum", "eth_blockNumber"), ("bitcoin", "GET /latestblock")])
    @pytest.mark.parametrize("endpoint", [
        "", "rpc.example/v3", "ftp://rpc.example", "http://"],
        ids=["empty", "no-scheme", "ftp", "no-host"])
    def test_malformed_endpoint_fails_at_once(self, tmp_path, capsys,
                                              no_connections, chain,
                                              request_name, endpoint):
        out = tmp_path / "out"
        code = run_cli("download", "--chain", chain, "--endpoint", endpoint,
                       "--from-block", 0, "--to-block", 4, "--retry-cap", 3,
                       "--backoff-base", 0, "--output-dir", out)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {request_name} failed: ")
        assert "attempts" not in err and err.count("\n") == 1
        assert not out.exists()

    def test_slack_flag_is_refused(self, fixture_dir, tmp_path, capsys):
        # the boundary scan's width is the module constant download.SLACK
        out = tmp_path / "out"
        assert download(fixture_dir, out, "--slack", 5) == 1
        assert capsys.readouterr().err == (
            "usage error: ledgernet: unrecognized arguments: --slack 5\n")
        assert not out.exists()

    def test_fixture_download_is_not_throttled_by_default(self, fixture_dir,
                                                          tmp_path, monkeypatch):
        from ledgernet.ingestion import providers

        rates = []

        class RecordingBucket:
            def __init__(self, rate):
                rates.append(rate)

            def acquire(self, stop):
                pass

        monkeypatch.setattr(providers, "TokenBucket", RecordingBucket)
        download(fixture_dir, tmp_path / "o1")
        assert rates == []
        text = (tmp_path / "o1" / "download_summary.json").read_text()
        assert '"rate_limit": 0.0,' in text

        monkeypatch.setenv("LEDGERNET_RATE_LIMIT", "3")
        download(fixture_dir, tmp_path / "o2")
        assert rates == [3.0]
        config = read_json(tmp_path / "o2" / "download_summary.json")["config"]
        assert config["rate_limit"] == 3

    def test_surrogate_bitcoin_address_is_rejected_at_download(self, tmp_path,
                                                              capsys):
        fixture = make_fixture(tmp_path / "fx", block_count=1, chain="bitcoin")
        doc = json.loads((fixture / "block_00000000.json").read_text())
        doc["transactions"][0]["sender"] = "a\ud800"
        (fixture / "block_00000000.json").write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run_cli("download", "--chain", "bitcoin", "--fixture", fixture,
                       "--from-block", 0, "--to-block", 0,
                       "--output-dir", out) == 2
        assert capsys.readouterr().err == (
            "error: block 0 has a malformed transfer: "
            "malformed bitcoin address: 'a\\ud800'\n")
        assert list_chunk_files(out / "chunks") == []


class TestBuild:
    def test_both_formats(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        download(fixture_dir, out)
        code = run_cli("build", "--output-dir", out, "--format", "both")
        assert code == 0
        assert "built ethereum graph" in capsys.readouterr().out
        doc = read_json(out / "graph.json")
        assert doc["chain"] == "ethereum"
        assert len(doc["vertices"]) == 6
        pajek = (out / "graph.pajek").read_text()
        assert pajek.startswith("*Vertices 6\n")

    @pytest.mark.parametrize("with_checkpoint", [False, True])
    def test_chunk_file_that_is_not_utf8_is_one_line(self, fixture_dir, tmp_path,
                                                     capsys, with_checkpoint):
        out = tmp_path / "out"
        download(fixture_dir, out)
        path = out / "chunks" / "chunk_3_5.ndjson"
        first, *rest = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(first + b"\xff\xfe" + b"".join(rest))
        capsys.readouterr()
        if with_checkpoint:
            code = run_cli("build", "--output-dir", out)
        else:
            code = run_cli("build", "--output-dir", tmp_path / "bare", "--chunks",
                           out / "chunks", "--chain", "ethereum")
        assert code == 2
        assert capsys.readouterr().err == (f"error: {path}: line 2: "
                                           "bytes that are not UTF-8\n")
        assert not (out / "graph.json").exists()
        assert not (tmp_path / "bare").exists()

    def test_chain_comes_from_checkpoint(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        download(fixture_dir, out)
        assert run_cli("build", "--output-dir", out) == 0
        assert read_json(out / "graph.json")["chain"] == "ethereum"

    def test_without_checkpoint_chain_is_required(self, fixture_dir, tmp_path,
                                                  capsys):
        out = tmp_path / "out"
        download(fixture_dir, out)
        bare = tmp_path / "bare"
        bare.mkdir()
        code = run_cli("build", "--output-dir", bare, "--chunks", out / "chunks")
        assert code == 1
        assert "usage error:" in capsys.readouterr().err
        code = run_cli("build", "--output-dir", bare, "--chunks", out / "chunks",
                       "--chain", "ethereum")
        assert code == 0
        assert (bare / "graph.json").exists()

    def test_partial_download_warns_but_builds(self, fixture_dir, tmp_path,
                                               capsys):
        from ledgernet.ingestion import Checkpoint

        out = tmp_path / "out"
        download(fixture_dir, out)
        checkpoint = Checkpoint.load(out / "checkpoint.json")
        checkpoint.done.discard(9)
        checkpoint.save(out / "checkpoint.json")
        (out / "chunks" / "chunk_9_9.ndjson").unlink()
        assert run_cli("build", "--output-dir", out) == 0
        assert "partial graph" in capsys.readouterr().err
        assert (out / "graph.json").exists()

    def test_checkpoint_with_a_huge_plan_builds_in_time(self, tmp_path):
        # the plan checks cost time in the files and done chunks, not in
        # the hundred billion planned chunks
        out = tmp_path / "out"
        (out / "chunks").mkdir(parents=True)
        (out / "checkpoint.json").write_text(
            '{"version":1,"chain":"ethereum","first":0,"last":100000000000,'
            '"chunk_size":1,"done":[]}')
        result = subprocess.run(
            [sys.executable, "-m", "ledgernet", "build", "--output-dir", str(out)],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
            timeout=5)
        assert result.returncode == 0, result.stderr
        assert result.stderr == ("warning: download is incomplete "
                                 "(0/100000000001 chunks); building a partial graph\n")
        assert read_json(out / "graph.json")["vertices"] == []

    def test_chain_other_than_the_checkpoint_exits_2(self, fixture_dir, tmp_path,
                                                     capsys):
        out = tmp_path / "out"
        download(fixture_dir, out)
        capsys.readouterr()
        assert run_cli("build", "--output-dir", out, "--chain", "bitcoin") == 2
        assert capsys.readouterr().err == \
            "error: the checkpoint is for ethereum, not bitcoin\n"
        assert not (out / "graph.json").exists()
        assert not (out / "graph.pajek").exists()

    def test_done_chunk_without_file_exits_2(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        download(fixture_dir, out)
        (out / "chunks" / "chunk_3_5.ndjson").unlink()
        assert run_cli("build", "--output-dir", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: chunk chunk_3_5.ndjson is marked done")
        assert err.count("\n") == 1
        assert not (out / "graph.json").exists()

    def test_chunk_file_outside_the_plan_exits_2(self, fixture_dir, tmp_path,
                                                 capsys):
        out = tmp_path / "out"
        download(fixture_dir, out)
        stray = out / "chunks" / "chunk_10_12.ndjson"
        stray.write_bytes((out / "chunks" / "chunk_0_2.ndjson").read_bytes())
        assert run_cli("build", "--output-dir", out) == 2
        err = capsys.readouterr().err
        assert err == f"error: {stray} is not a chunk of the checkpoint's plan\n"
        assert not (out / "graph.json").exists()

    def test_overlapping_chunk_files_without_checkpoint_exit_2(
            self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        download(fixture_dir, out)
        chunks = out / "chunks"
        copy = chunks / "chunk_00_2.ndjson"
        copy.write_bytes((chunks / "chunk_0_2.ndjson").read_bytes())
        bare = tmp_path / "bare"
        capsys.readouterr()
        assert run_cli("build", "--output-dir", bare, "--chunks", chunks,
                       "--chain", "ethereum") == 2
        err = capsys.readouterr().err
        assert err == (f"error: chunk files {copy} and {chunks / 'chunk_0_2.ndjson'} "
                       f"overlap: both hold blocks 0..2\n")
        assert not (bare / "graph.json").exists()

    @pytest.mark.parametrize("fmt, key", [("json", "a\ud800"), ("pajek", "a\ud800"),
                                          ("pajek", "caf\u00e9")])
    def test_unencodable_key_exits_2_and_writes_no_graph(self, tmp_path, capsys,
                                                         fmt, key):
        chunks = tmp_path / "chunks"
        chunks.mkdir()
        chunk = chunks / "chunk_0_0.ndjson"
        chunk.write_text(json.dumps(
            {"h": 0, "t": 1, "s": key, "r": "b", "v": 5}) + "\n")
        out = tmp_path / "out"
        path = out / f"graph.{fmt}"
        # a lone surrogate is no bitcoin address: decoding the chunk rejects it
        expected = (f"error: {chunk}: line 1: malformed bitcoin address: "
                    if "\ud800" in key else f"error: cannot write {path}: ")
        argv = ("build", "--chain", "bitcoin", "--chunks", chunks,
                "--output-dir", out, "--format", fmt)
        for _ in range(2):  # the rerun finds no empty file to keep
            assert run_cli(*argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(expected)
            assert err.count("\n") == 1
            assert not path.exists()
        out.mkdir(exist_ok=True)  # a build that stops at decoding makes none
        path.write_bytes(b"older graph\n")
        assert run_cli(*argv, "--force") == 2
        assert path.read_bytes() == b"older graph\n"

    def test_amount_past_the_int_digit_limit_exits_2(self, fixture_dir, tmp_path,
                                                     capsys):
        out = tmp_path / "out"
        download(fixture_dir, out)
        chunk = out / "chunks" / "chunk_3_5.ndjson"
        lines = chunk.read_text().splitlines(keepends=True)
        amount = json.loads(lines[1])["v"]
        lines[1] = lines[1].replace(f'"v":{amount}}}', '"v":' + "9" * 5000 + "}")
        chunk.write_text("".join(lines))
        assert run_cli("build", "--output-dir", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {chunk}: line 2: Exceeds the limit ")
        assert err.count("\n") == 1
        assert not (out / "graph.json").exists()

    @pytest.mark.parametrize("fmt", ["json", "pajek"])
    def test_edge_total_past_the_int_digit_limit_exits_2(self, tmp_path, capsys,
                                                         fmt):
        # each amount has 4,300 digits, which int() reads; their sum has
        # 4,301, which no export can write
        chunks = tmp_path / "chunks"
        chunks.mkdir()
        line = json.dumps({"h": 0, "t": 1, "s": "0x" + "a" * 40,
                           "r": "0x" + "b" * 40, "v": int("9" * 4300)}) + "\n"
        (chunks / "chunk_0_0.ndjson").write_text(line * 2)
        out = tmp_path / "out"
        path = out / f"graph.{fmt}"
        assert run_cli("build", "--chain", "ethereum", "--chunks", chunks,
                       "--output-dir", out, "--format", fmt) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {path}: Exceeds the limit ")
        assert err.count("\n") == 1
        assert list(out.iterdir()) == []

    def test_deeply_nested_chunk_line_exits_2(self, fixture_dir, tmp_path,
                                              capsys):
        out = tmp_path / "out"
        download(fixture_dir, out)
        chunk = out / "chunks" / "chunk_3_5.ndjson"
        lines = chunk.read_text().splitlines(keepends=True)
        chunk.write_text(lines[0] + DEEP_JSON.decode() + "\n")
        assert run_cli("build", "--output-dir", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {chunk}: line 2: maximum recursion depth ")
        assert err.count("\n") == 1
        assert not (out / "graph.json").exists()

    def test_deeply_nested_checkpoint_exits_2(self, fixture_dir, tmp_path,
                                              capsys):
        out = tmp_path / "out"
        download(fixture_dir, out)
        (out / "checkpoint.json").write_bytes(DEEP_JSON)
        assert run_cli("build", "--output-dir", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: corrupt checkpoint {out / 'checkpoint.json'}: "
                              "maximum recursion depth ")
        assert err.count("\n") == 1
        assert not (out / "graph.json").exists()

    def test_summary_lists_the_files_this_run_wrote(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        download(fixture_dir, out)
        assert run_cli("build", "--output-dir", out) == 0
        doc = read_json(out / "build_summary.json")
        assert doc["graph_files"] == {
            fmt: {"file": str(out / f"graph.{fmt}"),
                  "sha256": hashlib.sha256(
                      (out / f"graph.{fmt}").read_bytes()).hexdigest()}
            for fmt in ("json", "pajek")}
        assert (doc["chain"], doc["node_count"]) == ("ethereum", 6)
        assert doc["edge_count"] == len(read_json(out / "graph.json")["edges"])
        assert list(doc["timings_seconds"]) == ["fold", "export_json",
                                                "export_pajek"]
        (out / "graph.json").unlink()
        assert run_cli("build", "--output-dir", out) == 0  # keeps graph.pajek
        assert list(read_json(out / "build_summary.json")["graph_files"]) == [
            "json"]

    def test_existing_graph_is_kept(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "out"
        download(fixture_dir, out)
        run_cli("build", "--output-dir", out)
        before = (out / "graph.json").read_bytes()
        capsys.readouterr()
        assert run_cli("build", "--output-dir", out) == 0
        assert "keeping existing" in capsys.readouterr().out
        assert (out / "graph.json").read_bytes() == before


@pytest.fixture()
def built(fixture_dir, tmp_path):
    out = tmp_path / "out"
    download(fixture_dir, out)
    run_cli("build", "--output-dir", out, "--format", "both")
    return out


class TestAnalyze:
    def test_metrics_document(self, built, capsys):
        assert run_cli("analyze", "--graph", built / "graph.json") == 0
        assert "analyzed" in capsys.readouterr().out
        doc = read_json(built / "metrics.json")
        digest = hashlib.sha256((built / "graph.json").read_bytes()).hexdigest()
        assert doc["graph_sha256"] == digest
        assert doc["node_count"] == 6
        assert doc["edge_count"] >= 1
        assert doc["components"]["count"] >= 1
        assert 0.0 <= doc["graph_acc"] <= 1.0
        assert doc["main_component_aspl"] >= 1.0
        assert doc["aspl_method"] == "exact"
        assert set(doc["timings_seconds"]) == {"degrees", "components",
                                               "clustering", "aspl"}
        assert doc["config"] == {"graph_format": "json", "seed": 0}

    def test_pajek_input_is_inferred(self, built):
        output = built / "metrics_pajek.json"
        code = run_cli("analyze", "--graph", built / "graph.pajek",
                       "--output", output)
        assert code == 0
        json_doc = stripped(read_json(built / "metrics.json")) \
            if (built / "metrics.json").exists() else None
        doc = read_json(output)
        assert doc["node_count"] == 6

    def test_missing_graph_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert run_cli("analyze", "--graph", missing) == 2
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_graph_exits_2_with_one_line(self, tmp_path, capsys,
                                                    command, kind):
        path = tmp_path / "graph.json"
        if kind == "directory":
            path.mkdir()
        assert run_cli(command, "--graph", path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: cannot read graph file: [Errno ")
        assert err.count("\n") == 1

    def test_corrupt_graph_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "graph.json"
        bad.write_text('{"vertices": [1], "edges": []}\n')
        assert run_cli("analyze", "--graph", bad) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["graph.json", "graph.pajek"])
    def test_graph_that_is_not_utf8_exits_2_with_one_line(self, tmp_path,
                                                          capsys, name):
        bad = tmp_path / name
        bad.write_bytes(b"\xff\xfe{}")
        assert run_cli("analyze", "--graph", bad) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: cannot read graph file: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "metrics.json").exists()

    @pytest.mark.parametrize("name, text, where", [
        ("graph.json", '{"vertices":["A","B"],"edges":[["A","B",%s]]}\n', ""),
        ("graph.pajek", '*Vertices 2\n1 "A"\n2 "B"\n*Edges\n1 2 %s\n',
         "line 5, column 1: "),
        ("graph.pajek", '*Vertices 2\n%s "A"\n2 "B"\n*Edges\n',
         "line 2, column 1: "),
        ("graph.pajek", "*Vertices %s\n", "line 1, column 1: "),
    ], ids=["json-amount", "pajek-amount", "pajek-vertex-id", "pajek-count"])
    def test_integer_past_the_int_digit_limit_exits_2(self, tmp_path, capsys,
                                                      name, text, where):
        bad = tmp_path / name
        bad.write_text(text % ("1" * 5000))
        assert run_cli("analyze", "--graph", bad) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {where}Exceeds the limit ")
        assert err.count("\n") == 1
        assert not (tmp_path / "metrics.json").exists()

    def test_deeply_nested_graph_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "graph.json"
        bad.write_bytes(DEEP_JSON)
        assert run_cli("analyze", "--graph", bad) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: maximum recursion depth ")
        assert err.count("\n") == 1
        assert not (tmp_path / "metrics.json").exists()

    def test_existing_output_is_kept(self, built, capsys):
        run_cli("analyze", "--graph", built / "graph.json")
        before = (built / "metrics.json").read_bytes()
        capsys.readouterr()
        assert run_cli("analyze", "--graph", built / "graph.json") == 0
        assert "keeping existing" in capsys.readouterr().out
        assert (built / "metrics.json").read_bytes() == before

    def test_force_rewrites_stably(self, built):
        run_cli("analyze", "--graph", built / "graph.json")
        first = stripped(read_json(built / "metrics.json"))
        run_cli("analyze", "--graph", built / "graph.json", "--force")
        second = stripped(read_json(built / "metrics.json"))
        assert first == second

    def test_sampled_aspl_is_recorded(self, built):
        output = built / "metrics_sampled.json"
        code = run_cli("analyze", "--graph", built / "graph.json",
                       "--sample-sources", 2, "--seed", 5, "--output", output)
        assert code == 0
        doc = read_json(output)
        assert doc["aspl_method"] == "sampled"
        assert doc["aspl_sample_sources"] == 2
        assert doc["config"]["seed"] == 5

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    @pytest.mark.parametrize("bad", [0, -3])
    def test_sample_sources_below_one_is_a_usage_error(self, built, capsys,
                                                       command, bad):
        output = built / "report_bad.json"
        assert run_cli(command, "--graph", built / "graph.json",
                       "--sample-sources", bad, "--output", output) == 1
        err = capsys.readouterr().err
        assert err == f"usage error: --sample-sources must be >= 1, got {bad}\n"
        assert not output.exists()

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    def test_workers_below_one_is_a_usage_error(self, built, capsys, command):
        output = built / "report_bad.json"
        assert run_cli(command, "--graph", built / "graph.json",
                       "--workers", 0, "--output", output) == 1
        err = capsys.readouterr().err
        assert err == "usage error: --workers must be >= 1, got 0\n"
        assert not output.exists()

    @pytest.mark.parametrize("command, argv", [
        ("analyze", ("--workers", 0)), ("analyze", ("--sample-sources", 0)),
        ("compare", ("--workers", 0)), ("compare", ("--samples", 0)),
        ("compare", ("--acc-threshold=nan",)), ("compare", ("--aspl-threshold=inf",)),
        ("compare", ("--sample-sources", 0)),
    ])
    def test_usage_error_does_not_depend_on_existing_output(self, built, capsys,
                                                            command, argv):
        report = built / ("metrics.json" if command == "analyze"
                          else "comparison.json")
        report.write_text("{}\n")
        assert run_cli(command, "--graph", built / "graph.json", *argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: ")
        assert captured.out == ""
        assert report.read_text() == "{}\n"


class TestCompare:
    def test_comparison_document(self, built):
        assert run_cli("compare", "--graph", built / "graph.json",
                       "--seed", 42) == 0
        doc = read_json(built / "comparison.json")
        baseline = doc["baseline"]
        assert baseline["model"] == "erdos-renyi-gnm"
        assert baseline["seed"] == 42
        assert baseline["sample_seeds"] == [42]
        graph_doc = read_json(built / "graph.json")
        assert baseline["n"] == len(graph_doc["vertices"])
        assert baseline["m"] == len(graph_doc["edges"])
        verdict = doc["verdict"]
        assert isinstance(verdict["is_small_world"], bool)
        assert verdict["acc_threshold"] == 2.0
        assert verdict["aspl_threshold"] == 1.5
        assert (doc["config"]["acc_threshold"],
                doc["config"]["aspl_threshold"]) == (2.0, 1.5)

    def test_baseline_timings_include_the_draw(self, built):
        assert run_cli("compare", "--graph", built / "graph.json",
                       "--samples", 2) == 0
        doc = read_json(built / "comparison.json")
        assert list(doc["subject"]["timings_seconds"]) == [
            "degrees", "components", "clustering", "aspl"]
        for report in doc["baseline"]["reports"]:
            timings = report["timings_seconds"]
            assert list(timings) == ["generate", "degrees", "components",
                                     "clustering", "aspl"]
            assert all(type(t) is float and t >= 0 for t in timings.values())

    def test_rerun_with_force_is_stable(self, built):
        run_cli("compare", "--graph", built / "graph.json", "--seed", 42)
        first = stripped(read_json(built / "comparison.json"))
        run_cli("compare", "--graph", built / "graph.json", "--seed", 42,
                "--force")
        assert stripped(read_json(built / "comparison.json")) == first

    def test_multiple_samples(self, built):
        output = built / "comparison3.json"
        code = run_cli("compare", "--graph", built / "graph.json",
                       "--seed", 7, "--samples", 3, "--output", output)
        assert code == 0
        doc = read_json(output)
        assert doc["baseline"]["sample_seeds"] == [7, 8, 9]
        assert len(doc["baseline"]["reports"]) == 3
        stats = doc["verdict"]["baseline_acc_stats"]
        assert stats["min"] <= stats["mean"] <= stats["max"]

    def test_bad_samples_is_usage_error(self, built, capsys):
        assert run_cli("compare", "--graph", built / "graph.json",
                       "--samples", 0) == 1
        assert "usage error:" in capsys.readouterr().err

    def test_custom_thresholds_echoed(self, built):
        output = built / "comparison_custom.json"
        run_cli("compare", "--graph", built / "graph.json",
                "--acc-threshold", 10, "--aspl-threshold", 1.1,
                "--output", output)
        doc = read_json(output)
        assert doc["verdict"]["acc_threshold"] == 10.0
        assert doc["verdict"]["aspl_threshold"] == 1.1
        assert (doc["config"]["acc_threshold"],
                doc["config"]["aspl_threshold"]) == (10.0, 1.1)

    @pytest.mark.parametrize("flag", ["--acc-threshold", "--aspl-threshold"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_is_usage_error(self, built, capsys, flag,
                                                 value):
        assert run_cli("compare", "--graph", built / "graph.json",
                       f"{flag}={value}") == 1
        err = capsys.readouterr().err
        assert err == (f"usage error: {flag} must be a finite number, "
                       f"got {float(value)}\n")
        assert not (built / "comparison.json").exists()

    def test_infinite_acc_ratio_is_strict_json(self, tmp_path, capsys):
        from ledgernet.formats import export_json
        from ledgernet.graph import InteractionGraph

        # Every G(3, 2) is a path, so the baseline's clustering is 0.
        graph = InteractionGraph("ethereum")
        for key in ("0x" + "a" * 40, "0x" + "b" * 40, "0x" + "c" * 40):
            graph.intern_node(key)
        graph.record_edge(1, 2, 5, 1)
        graph.record_edge(2, 3, 5, 1)
        export_json(graph, tmp_path / "graph.json")
        assert run_cli("compare", "--graph", tmp_path / "graph.json") == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        text = (tmp_path / "comparison.json").read_text()
        verdict = json.loads(text, parse_constant=reject)["verdict"]
        assert verdict["acc_ratio"] is None
        assert verdict["acc_ratio_infinite"] is True
        capsys.readouterr()
        assert run_cli("report", "--dir", tmp_path) == 0
        assert "ACC ratio inf," in capsys.readouterr().out



def without(doc, *keys):
    """``stripped(doc)`` less the top-level ``keys``."""
    return {k: v for k, v in stripped(doc).items() if k not in keys}


@pytest.fixture()
def analyses(monkeypatch):
    """Counts the graphs ``compare`` analyses (subject and baselines)."""
    from ledgernet import baseline
    calls = []
    analyze = baseline.analyze

    def counted(graph, *args, **kwargs):
        calls.append(len(graph.adj) - 1)
        return analyze(graph, *args, **kwargs)

    monkeypatch.setattr(baseline, "analyze", counted)
    return calls


def rewrite_json(path, edit):
    doc = read_json(path)
    edit(doc)
    path.write_text(json.dumps(doc))


@pytest.fixture()
def graph_reads(monkeypatch):
    """Names the graph files the CLI reads, in order."""
    reads = []
    import_graph = cli.import_graph

    def counted(path, fmt=None):
        reads.append(Path(path).name)
        return import_graph(path, fmt)

    monkeypatch.setattr(cli, "import_graph", counted)
    return reads


def refuse_to_read(path, fmt=None):
    raise AssertionError(f"read the graph file {path}")


def computed_comparison(graph_path, scratch):
    """The comparison.json of ``compare`` on a copy of ``graph_path`` alone
    in ``scratch``, where no report or summary can be reused."""
    scratch.mkdir()
    copy = scratch / graph_path.name
    copy.write_bytes(graph_path.read_bytes())
    assert run_cli("compare", "--graph", copy) == 0
    doc = read_json(scratch / "comparison.json")
    assert doc["subject_source"] == "computed"
    return doc


def same_comparison(doc, expected):
    return (without(doc, "graph_file", "subject_source")
            == without(expected, "graph_file", "subject_source"))


class TestCompareReuse:
    def test_compare_on_pajek_reuses_analyze_on_json(self, built, capsys,
                                                     analyses):
        assert run_cli("analyze", "--graph", built / "graph.json") == 0
        metrics_doc = read_json(built / "metrics.json")
        capsys.readouterr()
        assert run_cli("compare", "--graph", built / "graph.pajek") == 0
        assert "subject from metrics.json ->" in capsys.readouterr().out
        assert len(analyses) == 1  # the baseline only
        reused = read_json(built / "comparison.json")
        assert reused["subject_source"] == "metrics.json"
        assert stripped(reused["subject"]) == without(
            metrics_doc, "tool", "tool_version", "graph_file", "graph_sha256",
            "config")

        (built / "metrics.json").unlink()
        assert run_cli("compare", "--graph", built / "graph.pajek",
                       "--force") == 0
        assert "subject computed ->" in capsys.readouterr().out
        assert len(analyses) == 3
        computed = read_json(built / "comparison.json")
        assert computed["subject_source"] == "computed"
        assert without(reused, "subject_source") == \
            without(computed, "subject_source")

    def test_sampled_report_is_reused_with_matching_settings(self, built,
                                                             analyses):
        run_cli("analyze", "--graph", built / "graph.json",
                "--sample-sources", 2, "--seed", 3)
        assert run_cli("compare", "--graph", built / "graph.json",
                       "--sample-sources", 2, "--seed", 3) == 0
        doc = read_json(built / "comparison.json")
        assert doc["subject_source"] == "metrics.json"
        assert doc["subject"]["aspl_method"] == "sampled"
        assert len(analyses) == 1

    @pytest.mark.parametrize("miss", [
        "seed", "sample_sources", "edited graph", "corrupt", "not an object",
        "tool_version", "bad field", "directory", "deeply nested"])
    def test_any_mismatch_recomputes_the_subject(self, built, capsys,
                                                 analyses, miss):
        metrics_path = built / "metrics.json"
        graph_path = built / "graph.json"
        compare_args = []
        if miss == "directory":
            metrics_path.mkdir()
        else:
            run_cli("analyze", "--graph", graph_path)
        if miss == "seed":
            compare_args = ["--seed", 1]
        elif miss == "sample_sources":
            compare_args = ["--sample-sources", 2]
        elif miss == "edited graph":
            rewrite_json(graph_path, lambda doc: doc["edges"].pop())
        elif miss == "corrupt":
            metrics_path.write_bytes(b'{"node_count": 6, "edg')
        elif miss == "not an object":
            metrics_path.write_text("[1, 2]")
        elif miss == "deeply nested":
            metrics_path.write_bytes(DEEP_JSON)
        elif miss == "tool_version":
            rewrite_json(metrics_path,
                         lambda doc: doc.update(tool_version="0.0.0"))
        elif miss == "bad field":
            rewrite_json(metrics_path,
                         lambda doc: doc.update(main_component_acc="0.5"))
        capsys.readouterr()
        assert run_cli("compare", "--graph", graph_path, *compare_args) == 0
        assert "subject computed ->" in capsys.readouterr().out
        assert len(analyses) == 2
        doc = read_json(built / "comparison.json")
        assert doc["subject_source"] == "computed"
        analyses.clear()
        fresh = built / "fresh"
        fresh.mkdir()
        (fresh / "graph.json").write_bytes(graph_path.read_bytes())
        run_cli("compare", "--graph", fresh / "graph.json", *compare_args)
        assert without(read_json(fresh / "comparison.json"), "graph_file") == \
            without(doc, "graph_file")

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.update(main_component_acc=math.nan),
        lambda doc: doc["timings_seconds"].update(
            {next(iter(doc["timings_seconds"])): math.inf}),
    ], ids=["nan-acc", "infinite-timing"])
    def test_report_that_is_not_strict_json_is_not_reused(self, built, capsys,
                                                          analyses, edit):
        metrics_path = built / "metrics.json"
        run_cli("analyze", "--graph", built / "graph.json")
        rewrite_json(metrics_path, edit)  # json.dumps writes NaN, Infinity
        capsys.readouterr()
        assert run_cli("compare", "--graph", built / "graph.json") == 0
        assert "subject computed ->" in capsys.readouterr().out
        assert len(analyses) == 2
        assert read_json(built / "comparison.json")["subject_source"] == "computed"
        assert run_cli("report", "--dir", built) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "corrupt report: " in err
        assert str(metrics_path) in err and err.count("\n") == 1

    @pytest.mark.parametrize("analysed, compared", [
        ("graph.json", "graph.pajek"), ("graph.pajek", "graph.json"),
        ("graph.json", "graph.json"), ("graph.pajek", "graph.pajek")])
    def test_digest_link_reuses_the_report_without_reading_the_graph(
            self, built, tmp_path, capsys, monkeypatch, analyses, analysed,
            compared):
        assert run_cli("analyze", "--graph", built / analysed) == 0
        expected = computed_comparison(built / compared, tmp_path / "scratch")
        analyses.clear()
        monkeypatch.setattr(cli, "import_graph", refuse_to_read)
        capsys.readouterr()
        assert run_cli("compare", "--graph", built / compared) == 0
        assert "subject from metrics.json ->" in capsys.readouterr().out
        assert len(analyses) == 1  # the baseline only
        doc = read_json(built / "comparison.json")
        assert doc["subject_source"] == "metrics.json"
        assert same_comparison(doc, expected)

    def test_report_with_a_fingerprint_key_is_still_reused(
            self, built, capsys, monkeypatch, analyses):
        # earlier versions wrote a graph_fingerprint after graph_sha256
        assert run_cli("analyze", "--graph", built / "graph.json") == 0
        rewrite_json(built / "metrics.json",
                     lambda doc: doc.update(graph_fingerprint="0" * 64))
        analyses.clear()
        monkeypatch.setattr(cli, "import_graph", refuse_to_read)
        capsys.readouterr()
        assert run_cli("compare", "--graph", built / "graph.pajek") == 0
        assert "subject from metrics.json ->" in capsys.readouterr().out
        assert len(analyses) == 1  # the baseline only
        assert read_json(built / "comparison.json")["subject_source"] == \
            "metrics.json"

    @pytest.mark.parametrize("case", [
        "pajek edited", "json rebuilt", "no summary", "summary not strict JSON",
        "graph_files a list", "sha256 an int", "sha256 a list",
        "summary lists one file"])
    def test_without_a_digest_link_compare_reads_the_graph(
            self, built, tmp_path, capsys, graph_reads, case):
        # nothing links the two files, so compare reads and analyses the
        # graph, even where it holds the graph analyze read
        graph_path = built / ("graph.json" if case == "json rebuilt"
                              else "graph.pajek")
        summary = built / "build_summary.json"
        assert run_cli("analyze", "--graph", built / "graph.json") == 0
        if case == "pajek edited":
            lines = graph_path.read_text().splitlines()
            graph_path.write_text("\n".join(lines[:-1]) + "\n")
        elif case == "json rebuilt":
            other = tmp_path / "other"
            other.mkdir()
            for chunk in list_chunk_files(built / "chunks")[:1]:
                (other / chunk.name).write_bytes(chunk.read_bytes())
            assert run_cli("build", "--chain", "ethereum", "--chunks", other,
                           "--checkpoint", tmp_path / "none.json",
                           "--output-dir", built, "--force") == 0
        elif case == "no summary":
            summary.unlink()
        elif case == "summary not strict JSON":
            rewrite_json(summary, lambda doc: doc.update(node_count=math.nan))
        elif case == "graph_files a list":
            rewrite_json(summary, lambda doc: doc.update(
                graph_files=list(doc["graph_files"].values())))
        elif case.startswith("sha256"):
            digest = 7 if case == "sha256 an int" else ["7"]
            rewrite_json(summary, lambda doc: [
                entry.update(sha256=digest)
                for entry in doc["graph_files"].values()])
        elif case == "summary lists one file":
            assert run_cli("build", "--format", "pajek", "--force",
                           "--output-dir", built) == 0
            assert list(read_json(summary)["graph_files"]) == ["pajek"]
        expected = computed_comparison(graph_path, tmp_path / "scratch")
        graph_reads.clear()
        capsys.readouterr()
        assert run_cli("compare", "--graph", graph_path) == 0
        assert capsys.readouterr().err == ""
        assert graph_reads == [graph_path.name]
        doc = read_json(built / "comparison.json")
        assert doc["subject_source"] == "computed"
        assert same_comparison(doc, expected)

    @pytest.mark.parametrize("name, fmt", [("graph.pajek", "json"),
                                           ("graph.json", "pajek")])
    def test_format_that_does_not_fit_the_file_still_exits_2(self, built, capsys,
                                                               name, fmt):
        from ledgernet import import_graph
        from ledgernet.errors import ParseError
        assert run_cli("analyze", "--graph", built / "graph.json") == 0
        with pytest.raises(ParseError) as info:
            import_graph(built / name, fmt)
        capsys.readouterr()
        assert run_cli("compare", "--graph", built / name, "--format", fmt) == 2
        assert capsys.readouterr().err == f"error: {info.value}\n"
        assert not (built / "comparison.json").exists()

    def test_report_says_where_the_subject_came_from(self, built, capsys):
        run_cli("compare", "--graph", built / "graph.json")
        capsys.readouterr()
        run_cli("report", "--dir", built)
        assert ", subject computed)" in capsys.readouterr().out
        run_cli("analyze", "--graph", built / "graph.json")
        run_cli("compare", "--graph", built / "graph.json", "--force")
        capsys.readouterr()
        run_cli("report", "--dir", built)
        assert ", subject from metrics.json)" in capsys.readouterr().out


class TestEcho:
    """Each artifact opens with the same keys in the same order, and its
    ``config`` lists the settings in one fixed order."""

    def test_download_config_key_order(self, fixture_dir, tmp_path):
        out = tmp_path / "by_time"
        assert run_cli("download", "--chain", "ethereum", "--fixture", fixture_dir,
                       "--endpoint", "https://rpc.example", "--api-key", "k",
                       "--from-time", 0, "--to-time", 450, "--retry-cap", 2,
                       "--output-dir", out) == 0
        assert list(read_json(out / "download_summary.json")["config"]) == [
            "chain", "fixture", "endpoint", "api_key", "rate_limit", "retry_cap",
            "backoff_base", "from_time", "to_time", "chunk_size",
            "worker_count", "output_dir"]
        out = tmp_path / "by_block"
        download(fixture_dir, out)
        assert list(read_json(out / "download_summary.json")["config"]) == [
            "chain", "fixture", "rate_limit", "backoff_base", "from_block",
            "to_block", "chunk_size", "worker_count", "output_dir"]

    def test_report_head_and_config_key_order(self, built):
        head = ["tool", "tool_version", "generated_at", "graph_file", "graph_sha256"]
        assert run_cli("analyze", "--graph", built / "graph.json",
                       "--sample-sources", 2) == 0
        doc = read_json(built / "metrics.json")
        assert list(doc)[:6] == head + ["config"]
        assert list(doc["config"]) == ["graph_format", "seed", "sample_sources"]
        assert re.fullmatch(GENERATED_AT, doc["generated_at"])
        assert run_cli("compare", "--graph", built / "graph.json",
                       "--sample-sources", 2) == 0
        doc = read_json(built / "comparison.json")
        assert list(doc)[:7] == head + ["config", "subject_source"]
        assert re.fullmatch(GENERATED_AT, doc["generated_at"])
        assert list(doc["config"]) == ["graph_format", "seed", "samples",
                                       "acc_threshold", "aspl_threshold",
                                       "sample_sources"]


class TestGraphCommands:
    """analyze and compare share one front end."""

    def test_accept_the_same_shared_flags(self, tmp_path):
        shared = ["--graph", "g.net", "--format", "json", "--workers", "2",
                  "--sample-sources", "3", "--seed", "4", "--output", "r.json",
                  "--force"]
        analyze_args, compare_args = (
            {key: value for key, value
             in vars(cli._build_parser().parse_args([command, *shared])).items()
             if key not in ("command", "handler")}
            for command in ("analyze", "compare"))
        assert analyze_args == {
            "graph": "g.net", "format": "json", "workers": 2, "sample_sources": 3,
            "seed": 4, "output": "r.json", "force": True}
        assert {key: compare_args[key] for key in analyze_args} == analyze_args

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    def test_output_directory_is_created(self, built, tmp_path, command):
        output = tmp_path / "new" / "sub" / "report.json"
        assert run_cli(command, "--graph", built / "graph.json",
                       "--output", output) == 0
        assert read_json(output)["graph_file"] == str(built / "graph.json")
        assert list(output.parent.iterdir()) == [output]

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    def test_failure_creates_no_output_directory(self, tmp_path, capsys, command):
        graph = tmp_path / "bad.json"
        graph.write_text('{"vertices": [1], "edges": []}\n')
        output = tmp_path / "new" / "report.json"
        assert run_cli(command, "--graph", graph, "--output", output) == 2
        assert capsys.readouterr().err == (
            f"error: {graph}: bad vertex key: 1\n")
        assert not output.parent.exists()

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    def test_output_dir_is_a_usage_error(self, built, tmp_path, capsys, command):
        elsewhere = tmp_path / "elsewhere"
        assert run_cli(command, "--graph", built / "graph.json",
                       "--output-dir", elsewhere) == 1
        err = capsys.readouterr().err
        assert err == ("usage error: ledgernet: unrecognized arguments: "
                       f"--output-dir {elsewhere}\n")
        assert not elsewhere.exists()
        assert not (built / "metrics.json").exists()

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    @pytest.mark.parametrize("flag, message", [
        ("--workers", "--workers must be >= 1, got 0"),
        ("--sample-sources", "--sample-sources must be >= 1, got 0"),
    ])
    def test_shared_flag_message_with_an_existing_report(self, built, capsys,
                                                         command, flag, message):
        report = built / ("metrics.json" if command == "analyze"
                          else "comparison.json")
        report.write_text("{}\n")
        assert run_cli(command, "--graph", built / "graph.json", flag, 0) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert report.read_text() == "{}\n"


class TestReport:
    def test_summarizes_pipeline_artifacts(self, built, capsys):
        run_cli("analyze", "--graph", built / "graph.json")
        run_cli("compare", "--graph", built / "graph.json")
        capsys.readouterr()
        assert run_cli("report", "--dir", built) == 0
        out = capsys.readouterr().out
        assert "download: ethereum blocks 0..9, 4/4 chunks (complete)" in out
        assert "graph:" in out
        assert "metrics: 6 nodes" in out
        assert "comparison:" in out

    @pytest.mark.parametrize("name", ["metrics.json", "comparison.json",
                                      "checkpoint.json"])
    @pytest.mark.parametrize("content", [b'{"node_count": 6, "edg', b"\xff\xfe",
                                         b"[1, 2]",
                                         b'{"components": [], "verdict": 3}',
                                         b'{"components": 3, "verdict": []}',
                                         pytest.param(DEEP_JSON, id="deep")])
    def test_corrupt_artifact_exits_2_with_one_line(self, tmp_path, capsys,
                                                    name, content):
        (tmp_path / name).write_bytes(content)
        assert run_cli("report", "--dir", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(tmp_path / name) in err
        assert err.count("\n") == 1

    def test_prints_the_build_summary(self, built, capsys):
        capsys.readouterr()
        assert run_cli("report", "--dir", built) == 0
        out = capsys.readouterr().out
        timings = read_json(built / "build_summary.json")["timings_seconds"]
        assert (f"build: 6 nodes, {len(read_json(built / 'graph.json')['edges'])} "
                f"edges -> {built / 'graph.json'}, {built / 'graph.pajek'} "
                f"(seconds: fold {timings['fold']}, "
                f"export_json {timings['export_json']}, "
                f"export_pajek {timings['export_pajek']})\n") in out

    @pytest.mark.parametrize("content", [
        b'{"node_count": 6, "edg', b"\xff\xfe", b"[1, 2]",
        b'{"graph_files": []}', b'{"timings_seconds": 3}',
        b'{"graph_files": {"json": "graph.json"}}',
        pytest.param(DEEP_JSON, id="deep")])
    def test_corrupt_build_summary_exits_2_with_one_line(self, tmp_path, capsys,
                                                         content):
        path = tmp_path / "build_summary.json"
        path.write_bytes(content)
        assert run_cli("report", "--dir", tmp_path) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: corrupt report: ")
        assert err.count("\n") == 1

    def test_empty_directory(self, tmp_path, capsys):
        assert run_cli("report", "--dir", tmp_path) == 0
        assert "no pipeline artifacts found" in capsys.readouterr().out


class TestWriteJson:
    """Reports go through ``formats.write_json``."""

    def test_unserialisable_document_leaves_no_file(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(ValueError):
            write_json(path, {"ratio": float("nan")}, indent=2)
        assert list(tmp_path.iterdir()) == []

    def test_unserialisable_document_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "report.json"
        write_json(path, {"ratio": 1.5}, indent=2)
        before = path.read_bytes()
        with pytest.raises(ValueError):
            write_json(path, {"ratio": float("inf")}, indent=2)
        assert path.read_bytes() == before == b'{\n  "ratio": 1.5\n}\n'
        assert list(tmp_path.iterdir()) == [path]


class TestEntryPoints:
    def test_no_command_prints_usage(self, capsys):
        assert cli.main([]) == 1
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "download" in capsys.readouterr().out

    def test_version(self, capsys):
        assert cli.main(["--version"]) == 0
        assert __version__ in capsys.readouterr().out

    def test_module_entry_point(self):
        result = subprocess.run([sys.executable, "-m", "ledgernet", "--help"],
                                env=dict(os.environ, PYTHONPATH=SRC),
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0
        assert "usage:" in result.stdout

    def test_each_command_loads_only_its_own_code(self, tmp_path):
        # Run as ``python -m ledgernet``, so that what the package itself
        # imports counts too; each command gets a fresh interpreter.
        analysis_code = ("ledgernet.metrics", "ledgernet.baseline")
        analysis = analysis_code + ("hashlib",)
        download_code = ("ledgernet.ingestion.download",
                         "ledgernet.ingestion.providers", "concurrent.futures",
                         "requests")
        # analyze and compare load nothing under ledgernet.ingestion and,
        # whatever --workers says, no thread pool.
        no_ingestion = ("ledgernet.ingestion", "concurrent.futures", "requests")
        out = tmp_path / "out"
        graph = str(out / "graph.json")
        commands = [
            (["download", "--chain", "ethereum", "--fixture", str(MINI),
              "--from-block", "0", "--to-block", "99", "--chunk-size", "30",
              "--output-dir", str(out)], analysis),
            # build hashes the graph files it writes, so it loads hashlib
            (["build", "--output-dir", str(out)], analysis_code + download_code),
            (["analyze", "--graph", graph, "--workers", "2"],
             ("ledgernet.baseline",) + no_ingestion),
            (["compare", "--graph", graph, "--workers", "2"], no_ingestion),
            (["report", "--dir", str(out)], analysis + download_code),
        ]
        code = ("import json, runpy, sys\n"
                "sys.argv = ['ledgernet', *sys.argv[1:]]\n"
                "try:\n"
                "    runpy.run_module('ledgernet', run_name='__main__')\n"
                "except SystemExit as exc:\n"
                "    assert exc.code == 0, exc.code\n"
                "print(json.dumps(sorted(sys.modules)))\n")
        loaded = {}
        for argv, forbidden in commands:
            result = subprocess.run([sys.executable, "-c", code, *argv],
                                    env=dict(os.environ, PYTHONPATH=SRC),
                                    capture_output=True, text=True, timeout=60)
            assert result.returncode == 0, result.stderr
            modules = json.loads(result.stdout.splitlines()[-1])
            assert "ledgernet.cli" in modules
            loaded[argv[0]] = sorted(set(forbidden) & set(modules))
        assert loaded == dict.fromkeys(
            ["download", "build", "analyze", "compare", "report"], [])
        assert (out / "graph.pajek").exists() and (out / "comparison.json").exists()


class TestInterrupt:
    def test_sigint_ends_a_rate_limit_wait(self, tmp_path):
        # at 0.01 requests a second, the first block's token is 100 s away
        out = tmp_path / "out"
        argv = [sys.executable, "-m", "ledgernet", "download",
                "--chain", "ethereum",
                "--fixture", str(MINI), "--from-block", "0", "--to-block", "9",
                "--chunk-size", "5",
                "--workers", "1", "--rate-limit", "0.01",
                "--output-dir", str(out)]
        proc = subprocess.Popen(argv, env=dict(os.environ, PYTHONPATH=SRC),
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        checkpoint_path = out / "checkpoint.json"
        deadline = time.monotonic() + 30
        # the checkpoint is saved after the SIGINT handler is installed
        while not checkpoint_path.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        time.sleep(0.2)  # the worker is now waiting for its token
        proc.send_signal(signal.SIGINT)
        try:
            stdout, stderr = proc.communicate(timeout=1)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            pytest.fail("download still ran 1 s after SIGINT")
        assert proc.returncode == 130, stderr
        assert "rerun the same command to resume" in stderr
        assert read_json(checkpoint_path)["done"] == []
        assert read_json(out / "download_summary.json")["interrupted"] is True

    def test_sigint_checkpoints_and_resume_matches(self, fixture_dir, tmp_path):
        reference = tmp_path / "reference"
        download(fixture_dir, reference, "--chunk-size", 1)

        out = tmp_path / "out"
        argv = [sys.executable, "-m", "ledgernet", "download",
                "--chain", "ethereum", "--fixture", str(fixture_dir),
                "--from-block", "0", "--to-block", "9", "--chunk-size", "1",
                "--workers", "1", "--rate-limit", "2",
                "--output-dir", str(out)]
        proc = subprocess.Popen(argv, env=dict(os.environ, PYTHONPATH=SRC),
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        checkpoint_path = out / "checkpoint.json"
        deadline = time.monotonic() + 30
        done = 0
        while time.monotonic() < deadline:
            if checkpoint_path.exists():
                try:
                    done = len(json.loads(checkpoint_path.read_text())["done"])
                except (ValueError, KeyError):
                    done = 0
                if done >= 3:
                    break
            time.sleep(0.02)
        assert 3 <= done < 10, "never reached mid-download state"
        proc.send_signal(signal.SIGINT)
        stdout, stderr = proc.communicate(timeout=30)
        assert proc.returncode == 130, stderr
        assert "interrupt received" in stderr
        assert "rerun the same command to resume" in stderr

        saved = json.loads(checkpoint_path.read_text())
        partial = chunk_bytes(out)
        assert sorted(partial) == sorted(
            f"chunk_{first}_{first}.ndjson" for first in saved["done"])
        summary = read_json(out / "download_summary.json")
        assert summary["interrupted"] is True
        assert summary["chunks_done"] < 10

        assert download(fixture_dir, out, "--chunk-size", 1) == 0
        assert chunk_bytes(out) == chunk_bytes(reference)
        assert read_json(out / "download_summary.json")["chunks_done"] == 10
