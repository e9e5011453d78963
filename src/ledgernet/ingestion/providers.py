"""Block data sources.

Every source implements the same three calls: chain tip height, block header
timestamp, and the block's transfers as chunk records with canonical keys
(``graph.Record``).  The downloader and the block-range resolver only ever
see this interface, so the whole pipeline runs identically against a local
fixture directory, an Ethereum JSON-RPC endpoint, or a blockchain.info-style
REST API.

Blocks are immutable, so a provider must return the same data for the same
height on every call.  Transient failures (network, rate limits, 5xx) raise
ProviderError with permanent=False and are retried by the caller; conditions
that retrying cannot fix (missing fixture block, malformed payload) set
permanent=True.
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
from ..graph import Chain, Record, canonicalize_address, transfer_record

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
    def block_transactions(self, height: int) -> list[Record]:
        """Records of all transfers in the block at ``height``, in block order,
        each made by ``graph.transfer_record`` with canonical keys: nothing
        after the provider checks them again."""


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
            # the wording Transaction uses for a non-integer field
            raise ProviderError(f"fixture block {height} malformed: amount, block "
                                f"height and timestamp must be integers, got "
                                f"timestamp {doc.get('timestamp')!r}", permanent=True)
        return doc

    def block_header(self, height: int) -> int:
        return self._read_block(height)["timestamp"]

    def block_transactions(self, height: int) -> list[Record]:
        doc = self._read_block(height)
        timestamp = doc["timestamp"]
        chain = self.chain
        records = []
        try:
            for entry in doc["transactions"]:
                sender = entry["sender"]
                records.append(transfer_record(
                    height, timestamp,
                    None if sender is None else canonicalize_address(sender, chain),
                    canonicalize_address(entry["recipient"], chain),
                    entry["amount"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ProviderError(f"fixture block {height} malformed: {exc}",
                                permanent=True) from exc
        return records


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
        self._id_lock = threading.Lock()
        self._next_id = 0

    def _call(self, method: str, params: list):
        with self._id_lock:
            self._next_id += 1
            request_id = self._next_id
        body = {"jsonrpc": "2.0", "id": request_id,
                "method": method, "params": params}
        try:
            response = self.session.post(self.url, json=body, timeout=self.timeout)
        except _requests().RequestException as exc:
            # requests quotes the URL, key included, in the exception text
            message = str(exc)
            if self._api_key:
                message = message.replace(self._api_key, "REDACTED")
            raise ProviderError(f"{method} failed: {message}") from None
        if response.status_code != 200:
            raise ProviderError(f"{method} returned HTTP {response.status_code}")
        try:
            doc = parse_json(response.text)
        except ValueError as exc:
            raise ProviderError(f"{method} returned non-JSON body") from exc
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

    def block_transactions(self, height: int) -> list[Record]:
        block = self._block(height, True)
        timestamp = self._hex_int(block.get("timestamp"),
                                  f"block {height} timestamp")
        records = []
        for entry in block.get("transactions", []):
            recipient = entry.get("to")
            if recipient is None:
                continue
            try:
                records.append(transfer_record(
                    height, timestamp,
                    canonicalize_address(entry["from"], self.chain),
                    canonicalize_address(recipient, self.chain),
                    self._hex_int(entry.get("value"), "tx value")))
            except (KeyError, ValueError) as exc:
                raise ProviderError(f"block {height} has a malformed tx: {exc}",
                                    permanent=True) from exc
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
        url = f"{self.url}{path}"
        try:
            response = self.session.get(url, timeout=self.timeout)
        except _requests().RequestException as exc:
            raise ProviderError(f"GET {path} failed: {exc}") from exc
        if response.status_code != 200:
            raise ProviderError(f"GET {path} returned HTTP {response.status_code}")
        try:
            return parse_json(response.text)
        except ValueError as exc:
            raise ProviderError(f"GET {path} returned non-JSON body") from exc

    def latest_height(self) -> int:
        doc = self._get("/latestblock")
        height = doc.get("height") if isinstance(doc, dict) else None
        if type(height) is not int:
            raise ProviderError(f"latestblock returned no height: {doc!r}")
        return height

    def _block(self, height: int) -> dict:
        doc = self._get(f"/block-height/{height}?format=json")
        blocks = doc.get("blocks") if isinstance(doc, dict) else None
        if not blocks:
            raise ProviderError(f"no block at height {height}", permanent=True)
        for block in blocks:
            if block.get("main_chain", True):
                return block
        return blocks[0]

    def block_header(self, height: int) -> int:
        timestamp = self._block(height).get("time")
        if type(timestamp) is not int:
            raise ProviderError(f"block {height} has no time field",
                                permanent=True)
        return timestamp

    def block_transactions(self, height: int) -> list[Record]:
        block = self._block(height)
        timestamp = block.get("time")
        if type(timestamp) is not int:
            raise ProviderError(f"block {height} has no time field",
                                permanent=True)
        records = []
        try:
            for entry in block.get("tx", []):
                records.extend(self._expand(entry, height, timestamp))
        except (KeyError, TypeError, ValueError) as exc:
            raise ProviderError(f"block {height} has a malformed tx: {exc}",
                                permanent=True) from exc
        return records

    def _expand(self, entry: dict, height: int, timestamp: int) -> list[Record]:
        senders = []
        for tx_in in entry.get("inputs", []):
            addr = (tx_in.get("prev_out") or {}).get("addr")
            if addr:
                senders.append(canonicalize_address(addr, self.chain))
        expanded = []
        for tx_out in entry.get("out", []):
            addr = tx_out.get("addr")
            if not addr:
                continue
            recipient = canonicalize_address(addr, self.chain)
            value = tx_out.get("value", 0)
            if type(value) is not int:  # divmod would turn True into ints
                raise ValueError(f"output value must be an integer, got {value!r}")
            if not senders:
                expanded.append(transfer_record(height, timestamp, None,
                                                recipient, value))
                continue
            share, extra = divmod(value, len(senders))
            for index, sender in enumerate(senders):
                expanded.append(transfer_record(
                    height, timestamp, sender, recipient,
                    share + (1 if index < extra else 0)))
        return expanded


class TokenBucket:
    """Thread-safe limiter: at most ``rate`` acquisitions per second,
    bursts up to one second's worth."""

    def __init__(self, rate: float, clock=time.monotonic, sleep=time.sleep):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        self.capacity = max(1.0, float(rate))
        self._tokens = self.capacity
        self._stamp = clock()
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()

    def acquire(self) -> None:
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
            self._sleep(wait)


class ThrottledProvider(BlockProvider):
    """Wrap a provider so every request first takes a rate-limit token."""

    def __init__(self, provider: BlockProvider, bucket: TokenBucket):
        self.provider = provider
        self.bucket = bucket
        self.chain = provider.chain

    def latest_height(self) -> int:
        self.bucket.acquire()
        return self.provider.latest_height()

    def block_header(self, height: int) -> int:
        self.bucket.acquire()
        return self.provider.block_header(height)

    def block_transactions(self, height: int) -> list[Record]:
        self.bucket.acquire()
        return self.provider.block_transactions(height)
