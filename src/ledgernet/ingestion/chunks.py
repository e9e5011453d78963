"""Transaction chunk files.

A chunk file holds every transaction of one contiguous block span, one JSON
object per line, in (height, intra-block index) order.  The short field names
keep month-scale downloads compact on disk:

    {"h": height, "t": timestamp, "s": sender-or-null, "r": recipient, "v": amount}

A file is read about a hundred lines at a time.  Lines as ``write_chunk``
writes them (these fields in this order, no spaces, integers without leading
zeros, keys canonical and free of JSON escapes) are read by one pattern match
of the slice; a slice with any other line is parsed as JSON line by line under
the same rules, so both give the same record (``graph.Record``) or error.

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
from ..graph import Chain, InteractionGraph, Record, Transaction, transfer_record
from .checkpoint import Checkpoint

_CHUNK_NAME = re.compile(r"chunk_([0-9]+)_([0-9]+)\.ndjson")
_FIELDS = ("h", "t", "s", "r", "v")
_FIELD_SET = frozenset(_FIELDS)
# The line write_chunk writes, by chain, when its keys are canonical and need
# no JSON escape (for Bitcoin, printable ASCII but space, '"' and '\'); 78
# digits cover 2**256.  findall on a file's text gives each line's strings.
_DIGITS = "(?:0|[1-9][0-9]{0,77})"
_WRITTEN = {chain: re.compile(
    r'^\{"h":(%s),"t":(-?%s),"s":(?:null|"(%s)"),"r":"(%s)","v":(%s)\}$\n?'
    % (_DIGITS, _DIGITS, key, key, _DIGITS), re.M)
    for chain, key in ((Chain.ETHEREUM, "0x[0-9a-f]{40}"),
                       (Chain.BITCOIN, r'[!#-\[\]-~]+'))}
# Characters of a chunk file matched at once; more cost memory, not time
_SLICE = 1 << 14
# A byte that is not UTF-8, as reading with errors="surrogateescape" keeps it
_NOT_UTF8 = re.compile("[\udc80-\udcff]").search


def chunk_filename(first: int, last: int) -> str:
    return f"chunk_{first}_{last}.ndjson"


def parse_chunk_filename(name: str) -> tuple[int, int] | None:
    match = _CHUNK_NAME.fullmatch(name)
    if match is None:
        return None
    return int(match.group(1)), int(match.group(2))


def _decode_record(line: str, chain: Chain | str, path,
                   line_no: int | None) -> Record:
    """The record of one chunk line: its fields, in ``_FIELDS`` order, through
    ``graph.transfer_record``; a fault raises ParseError."""
    try:
        record = parse_json(line)
        if not isinstance(record, dict) or record.keys() != _FIELD_SET:
            raise ValueError(
                f"transaction record must have exactly the fields {_FIELDS}")
        return transfer_record(chain, record["h"], record["t"], record["s"],
                               record["r"], record["v"])
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, path=path, line=line_no, offset=exc.colno) from exc
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


def _lines(path: Path, chain: Chain, lines: list[str], line_no: int,
           first: int, last: int) -> Iterator[Record]:
    """The records of ``lines``, line ``line_no`` on of ``path``, a file of
    blocks ``first..last``, each line parsed as JSON."""
    for line_no, line in enumerate(lines, start=line_no):
        if _NOT_UTF8(line):
            raise ParseError("bytes that are not UTF-8", path=path, line=line_no)
        if line.strip():
            record = _decode_record(line, chain, path, line_no)
            if not first <= record[0] <= last:
                raise ParseError(f"block height {record[0]} is outside "
                                 f"the file's span {first}..{last}",
                                 path=path, line=line_no)
            yield record


def _rows(files: list[Path], chain: Chain) -> Iterator[tuple]:
    """``(height, timestamp, sender, recipient, amount)`` of every line of
    ``files`` (sorted by span) in order, ``_SLICE`` characters of lines at a
    time: one match's strings (sender "" for null) if every line of the
    slice is as written and every height in its file's span, else
    ``_lines``' records; ``int`` and ``or`` read both alike.  Overlapping
    files, a bad line and a record outside its file's span raise
    ParseError."""
    findall = _WRITTEN[chain].findall
    for path in _disjoint(files):
        first, last = parse_chunk_filename(path.name)
        line_no = 1
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            while lines := fh.readlines(_SLICE):
                rows = findall("".join(lines))
                if len(rows) == len(lines) and all(
                        first <= int(h) <= last for h in {row[0] for row in rows}):
                    yield from rows
                else:
                    yield from _lines(path, chain, lines, line_no, first, last)
                line_no += len(lines)


def iter_chunk_transactions(chunk_dir, chain: Chain | str) -> Iterator[Transaction]:
    """Stream every downloaded transaction in block order, one chunk at a
    time; chunk files that overlap or a record outside its file's block span
    raise ParseError."""
    for h, t, s, r, v in _rows(list_chunk_files(chunk_dir), Chain(chain)):
        yield Transaction(s or None, r, int(v), int(h), int(t))


def fold_chunks(chunk_dir, chain: Chain | str,
                checkpoint: Checkpoint | None = None) -> InteractionGraph:
    """The graph of ``iter_chunk_transactions(chunk_dir, chain)``, as
    ``build_graph`` folds it, by one ``InteractionGraph.fold`` of the rows
    read, without ``Transaction`` objects.  With a checkpoint, ``chain``
    must be its chain, every chunk file must be a chunk of its plan and
    every done chunk must have its file; only done chunks are folded, and
    the checks cost time in the files and done chunks, not in the plan.
    Without one, chunk files must not overlap.
    """
    chain = Chain(chain)
    if checkpoint is not None and checkpoint.chain is not chain:
        raise CheckpointError(f"the checkpoint is for {checkpoint.chain.value}, "
                              f"not {chain.value}")
    files = list_chunk_files(chunk_dir)
    if checkpoint is not None:
        def planned_name(first: int) -> str:
            return chunk_filename(first, min(first + checkpoint.chunk_size - 1,
                                             checkpoint.last))

        firsts = {path: parse_chunk_filename(path.name)[0] for path in files}
        for path, first in firsts.items():
            if (first not in checkpoint.planned_firsts()
                    or path.name != planned_name(first)):
                raise CheckpointError(f"{path} is not a chunk of the checkpoint's plan")
        missing = checkpoint.done.difference(firsts.values())
        if missing:
            raise CheckpointError(f"chunk {planned_name(min(missing))} is marked done "
                                  f"in the checkpoint but missing from {chunk_dir}")
        files = [path for path in files if firsts[path] in checkpoint.done]
    graph = InteractionGraph(chain)
    graph.fold(_rows(files, chain))
    return graph
