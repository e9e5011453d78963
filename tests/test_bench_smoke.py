"""A small run of the benchmark's pipeline and output checks.

The benchmark (``bench/run.py``) runs ``download -> build -> analyze ->
compare`` on a generated ledger and checks every command's outputs with
``bench/checks.py``.  This runs the same commands with the same settings on
a tiny ledger, twice, so that a change to an artifact the checks read fails
here before it fails the benchmark.
"""

import importlib
from pathlib import Path

import pytest

from ledgernet import cli

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    return importlib.import_module("ledger"), importlib.import_module("checks")


@pytest.mark.parametrize("chunk_size, sample_sources", [(1, None), (5, 4)])
def test_pipeline_passes_the_benchmark_checks(tmp_path, bench_modules,
                                              chunk_size, sample_sources):
    ledger_mod, checks = bench_modules
    ledger = ledger_mod.generate(tmp_path / "ledger",
                                 ledger_mod.LedgerShape(20, 10, 50), seed=3)
    checker = checks.Checker(ledger)
    sampled = [] if sample_sources is None else ["--sample-sources", sample_sources]
    for run, workers in enumerate((1, 2)):
        out = tmp_path / f"run{run}"
        steps = [
            ("download", ["download", "--chain", "ethereum",
                          "--fixture", tmp_path / "ledger",
                          "--from-block", 0, "--to-block", ledger.last_block,
                          "--chunk-size", chunk_size, "--workers", workers,
                          "--rate-limit", 0, "--output-dir", out]),
            ("build", ["build", "--format", "both", "--output-dir", out]),
            ("analyze", ["analyze", "--graph", out / "graph.json",
                         "--workers", 1, *sampled]),
            ("compare", ["compare", "--graph", out / "graph.pajek",
                         "--samples", 1, "--workers", 1, *sampled]),
        ]
        for step, argv in steps:
            assert cli.main([str(a) for a in argv]) == 0, step
            getattr(checker, step)(out)
