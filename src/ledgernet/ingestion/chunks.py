"""Transaction chunk files.

A chunk file holds every transaction of one contiguous block span, one JSON
object per line, in (height, intra-block index) order.  The short field names
keep month-scale downloads compact on disk:

    {"h": height, "t": timestamp, "s": sender-or-null, "r": recipient, "v": amount}

A line as ``write_chunk`` writes it (these fields in this order, no spaces,
integers without leading zeros, keys already canonical and free of JSON
escapes) is read by one pattern match; any other line is parsed as JSON
under the same rules, so both give the same record (``graph.Record``) or the
same error.

Chunk files are the durable hand-off between the downloader and the graph
builder, and the only place directed per-transaction detail survives.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Iterable, Iterator

from ..errors import CheckpointError, ParseError
from ..formats import parse_json
from ..graph import (
    Chain,
    InteractionGraph,
    Record,
    Transaction,
    canonicalize_address,
    transfer_record,
)
from .checkpoint import Checkpoint

_CHUNK_NAME = re.compile(r"^chunk_(\d+)_(\d+)\.ndjson$")
_FIELDS = ("h", "t", "s", "r", "v")
_FIELD_SET = frozenset(_FIELDS)
# The line write_chunk writes, by chain, when its keys are canonical
# and need no JSON escape (for Bitcoin, printable ASCII but space, '"' and
# '\'); 78 digits cover 2**256.
_DIGITS = "(?:0|[1-9][0-9]{0,77})"
_WRITTEN_LINE = {chain: re.compile(
    r'\{"h":(%s),"t":(-?%s),"s":(?:null|"(%s)"),"r":"(%s)","v":(%s)\}\n?'
    % (_DIGITS, _DIGITS, key, key, _DIGITS)).fullmatch
    for chain, key in ((Chain.ETHEREUM, "0x[0-9a-f]{40}"),
                       (Chain.BITCOIN, r'[!#-\[\]-~]+'))}


def chunk_filename(first: int, last: int) -> str:
    return f"chunk_{first}_{last}.ndjson"


def parse_chunk_filename(name: str) -> tuple[int, int] | None:
    match = _CHUNK_NAME.match(name)
    if match is None:
        return None
    return int(match.group(1)), int(match.group(2))


def _decode_record(line: str, chain: Chain | str, path,
                   line_no: int | None) -> Record:
    """The fields of one valid chunk line, in ``_FIELDS`` order, with
    canonical address keys; a fault raises ParseError."""
    try:
        record = parse_json(line)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, path=path, line=line_no, offset=exc.colno) from exc
    except ValueError as exc:
        raise ParseError(str(exc), path=path, line=line_no) from exc
    try:
        if not isinstance(record, dict) or record.keys() != _FIELD_SET:
            raise ValueError(
                f"transaction record must have exactly the fields {_FIELDS}")
        height, timestamp, sender, recipient, amount = (
            record["h"], record["t"], record["s"], record["r"], record["v"])
        for label, value in (("h", height), ("t", timestamp), ("v", amount)):
            if type(value) is not int:
                raise ValueError(f"field {label!r} must be an integer, got {value!r}")
        if sender is not None and not isinstance(sender, str):
            raise ValueError(f"field 's' must be a string or null, got {sender!r}")
        if not isinstance(recipient, str):
            raise ValueError(f"field 'r' must be a string, got {recipient!r}")
        if sender is not None:
            sender = canonicalize_address(sender, chain)
        return transfer_record(height, timestamp, sender,
                               canonicalize_address(recipient, chain), amount)
    except ValueError as exc:
        raise ParseError(str(exc), path=path, line=line_no) from exc


def decode_transaction(line: str, chain: Chain | str, *,
                       path=None, line_no: int | None = None) -> Transaction:
    h, t, s, r, v = _decode_record(line, chain, path, line_no)
    return Transaction(s, r, v, h, t)


def write_chunk(path, records: Iterable[Record]) -> int:
    """Write one chunk file, each record's line as ``json.dumps`` with compact
    separators writes it; returns the number of lines written."""
    lines = [f'{{"h":{h},"t":{t},"s":{"null" if s is None else _quote(s)},'
             f'"r":{_quote(r)},"v":{v}}}\n' for h, t, s, r, v in records]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(lines))
    return len(lines)


def list_chunk_files(chunk_dir) -> list[Path]:
    """Chunk files under ``chunk_dir``, sorted by block span."""
    found = []
    for entry in Path(chunk_dir).iterdir():
        span = parse_chunk_filename(entry.name)
        if span is not None:
            found.append((span, entry))
    return [entry for _, entry in sorted(found)]


def _disjoint(files: list[Path]) -> list[Path]:
    """``files`` (sorted by span) after checking that no two share a block,
    which would be folded twice."""
    previous, previous_last = None, -1
    for path in files:
        first, last = parse_chunk_filename(path.name)
        if first <= previous_last:
            raise ParseError(f"chunk files {previous} and {path} overlap: both "
                             f"hold blocks {first}..{min(last, previous_last)}")
        previous, previous_last = path, last
    return files


def _records(files: list[Path], chain: Chain | str) -> Iterator[Record]:
    """``(height, timestamp, sender, recipient, amount)`` of every line of
    ``files`` (sorted by span) in order; overlapping files, a bad line and a
    record outside its file's block span raise ParseError."""
    chain = Chain(chain)
    written = _WRITTEN_LINE[chain]
    for path in _disjoint(files):
        first, last = parse_chunk_filename(path.name)
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                match = written(line)
                if match is not None:
                    h, t, s, r, v = match.groups()
                    record = (int(h), int(t), s, r, int(v))
                elif line.strip():
                    record = _decode_record(line, chain, path, line_no)
                else:
                    continue
                if not first <= record[0] <= last:
                    raise ParseError(f"block height {record[0]} is outside "
                                     f"the file's span {first}..{last}",
                                     path=path, line=line_no)
                yield record


def iter_chunk_transactions(chunk_dir, chain: Chain | str) -> Iterator[Transaction]:
    """Stream every downloaded transaction in block order, one chunk at a
    time; chunk files that overlap or a record outside its file's block span
    raise ParseError."""
    for h, t, s, r, v in _records(list_chunk_files(chunk_dir), chain):
        yield Transaction(s, r, v, h, t)


def fold_chunks(chunk_dir, chain: Chain | str,
                checkpoint: Checkpoint | None = None) -> InteractionGraph:
    """``build_graph(iter_chunk_transactions(chunk_dir, chain), chain)``
    without ``Transaction`` objects.  With a checkpoint, ``chain`` must be
    its chain, every chunk file must be a chunk of its plan and every done
    chunk must have its file; only done chunks are folded.  Without one,
    chunk files must not overlap.
    """
    chain = Chain(chain)
    if checkpoint is not None and checkpoint.chain is not chain:
        raise CheckpointError(f"the checkpoint is for {checkpoint.chain.value}, "
                              f"not {chain.value}")
    files = list_chunk_files(chunk_dir)
    if checkpoint is not None:
        plan = {chunk_filename(first, min(first + checkpoint.chunk_size - 1,
                                          checkpoint.last)): first in checkpoint.done
                for first in checkpoint.planned_firsts()}
        present = {path.name for path in files}
        stray = [path for path in files if path.name not in plan]
        missing = [name for name, done in plan.items() if done and name not in present]
        if stray:
            raise CheckpointError(f"{stray[0]} is not a chunk of the checkpoint's plan")
        if missing:
            raise CheckpointError(f"chunk {missing[0]} is marked done in the "
                                  f"checkpoint but missing from {chunk_dir}")
        files = [path for path in files if plan[path.name]]
    graph = InteractionGraph(chain)
    add_transfer = graph.add_transfer
    for _, _, sender, recipient, amount in _records(files, chain):
        add_transfer(sender, recipient, amount)
    return graph
