import random
import socket

import pytest

from ledgernet.ingestion.providers import write_fixture_block, write_fixture_meta

ADDR = ["0x" + ch * 40 for ch in "abcdef"]


@pytest.fixture()
def no_connections(monkeypatch):
    """Fails a test that looks up a host or opens a connection: the
    requests it makes must be refused before either."""
    def refuse(*args, **kwargs):
        raise AssertionError("a network lookup or connection was attempted")

    for name in ("getaddrinfo", "create_connection"):
        monkeypatch.setattr(socket, name, refuse)
    monkeypatch.setattr(socket.socket, "connect", refuse)


class StopAfterBlocks:
    """Sets ``stop_event`` once ``after`` blocks were served, like a SIGINT
    landing mid-download."""

    def __init__(self, inner, stop_event, after):
        self.inner = inner
        self.chain = inner.chain
        self.stop_event = stop_event
        self.after = after
        self.served = 0

    def latest_height(self):
        return self.inner.latest_height()

    def block_header(self, height):
        return self.inner.block_header(height)

    def block_transactions(self, height):
        txs = self.inner.block_transactions(height)
        self.served += 1
        if self.served >= self.after:
            self.stop_event.set()
        return txs


def make_fixture(root, block_count=10, txs_per_block=2, chain="ethereum",
                 timestamps=None):
    """Writes a small deterministic block directory for offline runs."""
    write_fixture_meta(root, chain)
    rng = random.Random(99)
    for height in range(block_count):
        txs = []
        for _ in range(txs_per_block):
            sender, recipient = rng.sample(ADDR, 2)
            txs.append({"sender": sender, "recipient": recipient,
                        "amount": rng.randrange(1, 1000)})
        timestamp = timestamps[height] if timestamps else height * 100
        write_fixture_block(root, height, timestamp, txs)
    return root
