"""Block data sources.

Every source implements the same three calls: chain tip height, block header
timestamp, and the block's transfers as ``(height, timestamp, sender,
recipient, amount)`` tuples, keys as the chain spells them.  The downloader
and the block-range resolver only ever see this interface, so the whole
pipeline runs identically against a local fixture directory, an Ethereum
JSON-RPC endpoint, or a blockchain.info-style REST API.

Blocks are immutable, so a provider must return the same data for the same
height on every call.  Transient failures (network, rate limits, 5xx) raise
ProviderError with permanent=False, retried by a RetryingProvider; conditions
that retrying cannot fix (missing fixture block, malformed payload, an
endpoint URL ``requests`` refuses before connecting) set permanent=True.
"""

from __future__ import annotations

import json
import threading
import time
from abc import ABC, abstractmethod
from pathlib import Path
from typing import TYPE_CHECKING

from ..errors import ProviderError
from ..formats import parse_json, read_json
from ..graph import Chain

if TYPE_CHECKING:
    import requests


def _requests():
    """``requests``, imported on first use: loading it costs more than the
    rest of the CLI's start-up, and only network downloads need it."""
    import requests

    return requests


class BlockProvider(ABC):
    """Read-only access to one chain's blocks."""

    chain: Chain

    @abstractmethod
    def latest_height(self) -> int:
        """Height of the newest block."""

    @abstractmethod
    def block_header(self, height: int) -> int:
        """Unix timestamp of the block at ``height``."""

    @abstractmethod
    def block_transactions(self, height: int) -> list[tuple]:
        """All transfers in the block at ``height``, in block order, each as
        ``(height, timestamp, sender or None, recipient, amount)`` with keys
        as the chain spells them.  ``download.fetch_block_transactions``
        checks each one through ``graph.transfer_record``, which also
        canonicalizes its keys."""


def _objects(value, height: int) -> list[dict]:
    """``value``, a reply's list of blocks, transactions, inputs or outputs,
    if it is a list of JSON objects; otherwise a permanent ProviderError."""
    if not isinstance(value, list):
        raise ProviderError(f"block {height} has a malformed tx: expected a "
                            f"list, got {type(value).__name__}", permanent=True)
    for entry in value:
        if not isinstance(entry, dict):
            raise ProviderError(f"block {height} has a malformed tx: {entry!r} "
                                "is not an object", permanent=True)
    return value


def fixture_block_name(height: int) -> str:
    return f"block_{height:08d}.json"


class FixtureProvider(BlockProvider):
    """Blocks read from a directory of per-block JSON files.

    Layout: ``meta.json`` holding ``{"chain": ...}`` plus one
    ``block_<height:08d>.json`` per block with height, timestamp, and a
    transaction list.  Heights must be contiguous from 0.
    """

    def __init__(self, root, chain: Chain | str | None = None):
        self.root = Path(root)
        meta_chain = None
        meta = self.root / "meta.json"
        if meta.exists():
            try:
                meta_chain = Chain(read_json(meta)["chain"])
            except (OSError, ValueError, TypeError, KeyError) as exc:
                raise ProviderError(f"fixture {self.root} has a broken "
                                    f"meta.json: {exc}", permanent=True) from exc
        if chain is None:
            if meta_chain is None:
                raise ProviderError(
                    f"fixture {self.root} has no meta.json and no chain was given",
                    permanent=True)
            chain = meta_chain
        elif meta_chain is not None and Chain(chain) is not meta_chain:
            raise ProviderError(
                f"fixture {self.root} holds {meta_chain.value} blocks, "
                f"not {Chain(chain).value}", permanent=True)
        self.chain = Chain(chain)

    def latest_height(self) -> int:
        heights = [h for h in (self._height_of(p) for p in self.root.iterdir())
                   if h is not None]
        if not heights:
            raise ProviderError(f"fixture {self.root} holds no blocks",
                                permanent=True)
        return max(heights)

    @staticmethod
    def _height_of(path: Path) -> int | None:
        name = path.name
        if name.startswith("block_") and name.endswith(".json"):
            body = name[len("block_"):-len(".json")]
            if body.isascii() and body.isdigit():
                return int(body)
        return None

    def _read_block(self, height: int) -> dict:
        path = self.root / fixture_block_name(height)
        try:
            doc = read_json(path)
        except OSError as exc:
            raise ProviderError(f"fixture block {height} missing: {exc}",
                                permanent=True) from exc
        except ValueError as exc:
            raise ProviderError(f"fixture block {height} unreadable: {exc}",
                                permanent=True) from exc
        except TypeError as exc:
            raise ProviderError(f"fixture block {height} malformed: {exc}",
                                permanent=True) from exc
        if doc.get("height") != height:
            raise ProviderError(
                f"fixture block file {path.name} claims height {doc.get('height')}",
                permanent=True)
        if type(doc.get("timestamp")) is not int:
            raise ProviderError(f"fixture block {height} malformed: timestamp "
                                f"{doc.get('timestamp')!r} is not an integer",
                                permanent=True)
        return doc

    def block_header(self, height: int) -> int:
        return self._read_block(height)["timestamp"]

    def block_transactions(self, height: int) -> list[tuple]:
        doc = self._read_block(height)
        timestamp = doc["timestamp"]
        try:
            return [(height, timestamp, entry["sender"], entry["recipient"],
                     entry["amount"]) for entry in doc["transactions"]]
        except (KeyError, TypeError) as exc:
            raise ProviderError(f"fixture block {height} malformed: {exc}",
                                permanent=True) from exc


def write_fixture_block(root, height: int, timestamp: int,
                        transactions: list[dict]) -> Path:
    """Write one fixture block file; ``transactions`` entries carry
    sender (or None), recipient, and amount."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    doc = {
        "height": height,
        "timestamp": timestamp,
        "transactions": [
            {"sender": t["sender"], "recipient": t["recipient"],
             "amount": t["amount"]}
            for t in transactions
        ],
    }
    path = root / fixture_block_name(height)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


def write_fixture_meta(root, chain: Chain | str) -> Path:
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    path = root / "meta.json"
    path.write_text(json.dumps({"chain": Chain(chain).value}) + "\n",
                    encoding="utf-8")
    return path


def _reply(what: str, send, secret: str | None = None):
    """The strict-JSON body of the reply ``send()`` gets to request ``what``;
    else a ProviderError that chains nothing and never quotes ``secret``.
    A ``requests`` ValueError (MissingSchema, InvalidSchema, InvalidURL,
    InvalidHeader) refuses the request before connecting, so it is
    permanent; any other ``requests`` error, a status other than 200 and a
    body that is not strict JSON are transient."""
    try:
        response = send()
    except _requests().RequestException as exc:
        # requests quotes the URL, key included, in the exception text
        message = str(exc).replace(secret, "REDACTED") if secret else str(exc)
        raise ProviderError(f"{what} failed: {message}",
                            permanent=isinstance(exc, ValueError)) from None
    if response.status_code != 200:
        raise ProviderError(f"{what} returned HTTP {response.status_code}")
    try:
        return parse_json(response.text)
    except ValueError:
        raise ProviderError(f"{what} returned non-JSON body") from None


class EthereumRpcProvider(BlockProvider):
    """Ethereum blocks over JSON-RPC (Infura-style endpoints).

    Contract creations carry no recipient account and are skipped; the graph
    models transfers between accounts, and a not-yet-existing contract is not
    an account at send time.
    """

    chain = Chain.ETHEREUM

    def __init__(self, endpoint: str, api_key: str | None = None,
                 session: requests.Session | None = None, timeout: float = 30.0):
        self.url = endpoint.rstrip("/")
        self._api_key = api_key
        if api_key:
            self.url = f"{self.url}/{api_key}"
        self.session = session or _requests().Session()
        self.timeout = timeout

    def _call(self, method: str, params: list):
        # Each POST gets its own reply, so the id pairs nothing and is constant
        body = {"jsonrpc": "2.0", "id": 1, "method": method, "params": params}
        doc = _reply(method, lambda: self.session.post(
            self.url, json=body, timeout=self.timeout), self._api_key)
        if not isinstance(doc, dict) or ("result" not in doc and "error" not in doc):
            raise ProviderError(f"{method} returned a malformed JSON-RPC response")
        if doc.get("error"):
            raise ProviderError(f"{method} rejected: {doc['error']}")
        return doc["result"]

    def latest_height(self) -> int:
        return self._hex_int(self._call("eth_blockNumber", []), "block number")

    def _block(self, height: int, full: bool) -> dict:
        result = self._call("eth_getBlockByNumber", [hex(height), full])
        if not isinstance(result, dict):
            raise ProviderError(f"block {height} not available", permanent=True)
        return result

    def block_header(self, height: int) -> int:
        return self._hex_int(self._block(height, False).get("timestamp"),
                             f"block {height} timestamp")

    def block_transactions(self, height: int) -> list[tuple]:
        block = self._block(height, True)
        timestamp = self._hex_int(block.get("timestamp"),
                                  f"block {height} timestamp")
        records = []
        for entry in _objects(block.get("transactions", []), height):
            recipient = entry.get("to")
            if recipient is None:
                continue
            if entry.get("from") is None:  # not a senderless transfer
                raise ProviderError(f"block {height} has a malformed tx: 'from' "
                                    "is missing or null", permanent=True)
            records.append((height, timestamp, entry["from"], recipient,
                            self._hex_int(entry.get("value"), "tx value")))
        return records

    @staticmethod
    def _hex_int(value, label: str) -> int:
        if isinstance(value, str):
            try:
                return int(value, 16)
            except ValueError:
                pass
        raise ProviderError(f"{label} is not hex: {value!r}", permanent=True)


class BitcoinApiProvider(BlockProvider):
    """Bitcoin blocks over a blockchain.info-style REST API.

    A UTXO transaction may spend several input addresses and pay several
    outputs.  Each addressed output is expanded into one transfer per input
    address, splitting the output value equally among the inputs (remainder
    satoshis go to the first inputs, keeping value conserved).  Outputs of
    transactions with no addressed inputs (coinbase) become senderless
    transfers.
    """

    chain = Chain.BITCOIN

    def __init__(self, endpoint: str = "https://blockchain.info",
                 session: requests.Session | None = None, timeout: float = 60.0):
        self.url = endpoint.rstrip("/")
        self.session = session or _requests().Session()
        self.timeout = timeout

    def _get(self, path: str):
        return _reply(f"GET {path}", lambda: self.session.get(
            f"{self.url}{path}", timeout=self.timeout))

    def latest_height(self) -> int:
        doc = self._get("/latestblock")
        height = doc.get("height") if isinstance(doc, dict) else None
        if type(height) is not int:
            raise ProviderError(f"latestblock returned no height: {doc!r}")
        return height

    def _block(self, height: int) -> tuple[dict, int]:
        """The main-chain block at ``height`` (else the first listed) and
        its ``time``."""
        doc = self._get(f"/block-height/{height}?format=json")
        blocks = doc.get("blocks") if isinstance(doc, dict) else None
        if not blocks:
            raise ProviderError(f"no block at height {height}", permanent=True)
        block = next((block for block in _objects(blocks, height)
                      if block.get("main_chain", True)), blocks[0])
        if type(block.get("time")) is not int:
            raise ProviderError(f"block {height} has no time field",
                                permanent=True)
        return block, block["time"]

    def block_header(self, height: int) -> int:
        return self._block(height)[1]

    def block_transactions(self, height: int) -> list[tuple]:
        block, timestamp = self._block(height)
        records = []
        try:
            for entry in _objects(block.get("tx", []), height):
                records.extend(self._expand(entry, height, timestamp))
        except (KeyError, TypeError, ValueError) as exc:
            raise ProviderError(f"block {height} has a malformed tx: {exc}",
                                permanent=True) from exc
        return records

    def _expand(self, entry: dict, height: int, timestamp: int) -> list[tuple]:
        senders = []
        for tx_in in _objects(entry.get("inputs", []), height):
            prev_out = tx_in.get("prev_out") or {}
            if not isinstance(prev_out, dict):
                raise ValueError(f"prev_out {prev_out!r} is not an object")
            if prev_out.get("addr"):
                senders.append(prev_out["addr"])
        expanded = []
        for tx_out in _objects(entry.get("out", []), height):
            recipient = tx_out.get("addr")
            if not recipient:
                continue
            value = tx_out.get("value", 0)
            if type(value) is not int:  # divmod would turn True into ints
                raise ValueError(f"amount must be an integer, got {value!r}")
            if not senders:
                expanded.append((height, timestamp, None, recipient, value))
                continue
            share, extra = divmod(value, len(senders))
            for index, sender in enumerate(senders):
                expanded.append((height, timestamp, sender, recipient,
                                 share + (1 if index < extra else 0)))
        return expanded


# The slowest rate a TokenBucket serves: one request a day.  Below it a
# token's wait can pass what ``Event.wait`` accepts (1e-300 overflows).
MIN_RATE_LIMIT = 1 / 86400


class TokenBucket:
    """Thread-safe limiter: at most ``rate`` acquisitions per second,
    bursts up to one second's worth.  ``rate`` must be at least
    ``MIN_RATE_LIMIT``."""

    def __init__(self, rate: float, clock=time.monotonic):
        if not rate >= MIN_RATE_LIMIT:
            raise ValueError(f"rate must be >= 1/86400 (one request a day), "
                             f"got {rate}")
        self.rate = float(rate)
        self.capacity = max(1.0, float(rate))
        self._tokens = self.capacity
        self._stamp = clock()
        self._clock = clock
        self._lock = threading.Lock()

    def acquire(self, stop: threading.Event) -> None:
        """Take one token, waiting for it on ``stop``: a stop that ends the
        wait raises a transient ProviderError."""
        while True:
            with self._lock:
                now = self._clock()
                self._tokens = min(self.capacity,
                                   self._tokens + (now - self._stamp) * self.rate)
                self._stamp = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return
                wait = (1.0 - self._tokens) / self.rate
            if stop.wait(wait):
                raise ProviderError("stopped while waiting for a rate-limit token")
