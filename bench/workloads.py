"""The benchmark's workloads: ledger shapes and the CLI settings run on them.

Every workload runs the whole pipeline in a closed loop with one client:
``download --fixture`` -> ``build`` -> ``analyze`` -> ``compare``, each
command a fresh ``python -m ledgernet`` process started after the previous
one exits (the settings every workload shares are in ``run.py``).
Workloads differ in the ledger's shape and in the settings that decide which
layer does the work.

The sizes are smaller than the month-like reference ledger in ROADMAP.md
(300k transactions), so that a dozen pipeline runs fit in one measured run
and their median is steady.  pipeline-ref keeps the reference's shape: six
transactions per address, the same Pareto mix, 200 transactions per block.
"""

from __future__ import annotations

from dataclasses import dataclass

from ledger import LedgerShape

# Seed for confirming a claimed gain on inputs not used while writing it.
HELD_OUT_SEED = 20_260_101


@dataclass(frozen=True)
class Workload:
    name: str
    shape: LedgerShape
    chunk_size: int
    # analyze and compare compute exact ASPL, and the subject's exact values
    # are checked against networkx and scipy; otherwise both sample BFS
    # sources.
    exact_aspl: bool = False


WORKLOADS = {w.name: w for w in [
    # The user's time to a verdict at the reference shape, a tenth of its
    # size: 30k transactions over 5k addresses, 200 tx/block, cut into 30
    # chunks like the ROADMAP ledger.  Ingestion, decode and JSON/Pajek I/O
    # do most of the work; ASPL is sampled, so BFS is a minority.  Ingestion
    # and format changes show here; a BFS change should barely move it.
    Workload(
        name="pipeline-ref",
        shape=LedgerShape(blocks=150, tx_per_block=200, addresses=5_000),
        chunk_size=5),
    # A sparse ledger (250 blocks of 20 transactions over 1.25k addresses)
    # cut into one-block chunks, then analyze and compare with exact ASPL.
    # The ingestion layers are used in the opposite proportion to
    # pipeline-ref: per-chunk writes and checkpoint saves (each rewrites the
    # whole done-list and fsyncs) dominate the download, not bulk decode.
    # There are not more chunks because each fsync waits on a disk that the
    # reference host shares with other tenants: with 1,000 chunks,
    # download_s moved by up to 39% between two sets of the same code.  BFS
    # over every source of the ~1.2k-node subject and its G(n, m) baseline
    # does almost all of analyze_s and compare_s.  A change that speeds
    # decode but adds per-chunk cost shows that cost here, multi-source BFS
    # and ER-generation changes show here, and ingestion changes must leave
    # analyze_s and compare_s unchanged.  The exact values are checked
    # against networkx (clustering, components) and scipy (all-pairs BFS).
    Workload(
        name="chunks-exact",
        shape=LedgerShape(blocks=250, tx_per_block=20, addresses=1_250),
        chunk_size=1, exact_aspl=True),
]}
