"""Graph file encodings, JSON and Pajek, and the strict JSON reader and
atomic JSON writer behind every JSON file ledgernet uses.

Both encodings carry the same information: the vertex list in ID order and
the undirected weighted edge list.  Directed activity counters are not part
of graph files; they can only be rebuilt from transaction chunk files.
Exports are byte-deterministic so identical graphs always produce identical
files, and replace an existing file atomically.
"""

from __future__ import annotations

import json
import os
import re
from json.encoder import encode_basestring as _quote

from .errors import ExportError, ParseError, UsageError
from .graph import Chain, InteractionGraph

FORMAT_JSON = "json"
FORMAT_PAJEK = "pajek"

# [0-9], not \d: \d and int() also take non-ASCII decimal digits.
_PAJEK_VERTEX = re.compile(r'^([0-9]+) "(.*)"$')
_PAJEK_EDGE = re.compile(r"^([0-9]+) ([0-9]+) ([0-9]+)$")


def normalize_format(fmt: str) -> str:
    name = str(fmt).strip().lower()
    if name not in (FORMAT_JSON, FORMAT_PAJEK):
        raise UsageError(f"unknown graph format: {fmt!r} (expected json or pajek)")
    return name


def infer_format(path) -> str:
    """Guess the encoding from a file name suffix."""
    text = str(path).lower()
    if text.endswith(".json"):
        return FORMAT_JSON
    if text.endswith(".pajek") or text.endswith(".net"):
        return FORMAT_PAJEK
    raise UsageError(f"cannot infer graph format from {path!r}; "
                     "expected a .json, .pajek, or .net suffix")


def export_json(graph: InteractionGraph, path, edges=None) -> str:
    """Write the graph as one compact JSON object, as ``json.dumps`` with
    ``ensure_ascii=False`` would, and return the SHA-256 of its bytes.

    Key order is chain, vertices, edges; the chain key is present only when
    the graph knows its chain.  ``edges``, if given, is ``graph.edge_triples()``.
    """
    def text() -> str:
        quoted = [""] + [_quote(key) for key in graph.node_keys()]
        head = "{" if graph.chain is None else f'{{"chain":"{graph.chain.value}",'
        return "".join([head, '"vertices":[', ",".join(quoted[1:]), '],"edges":[',
                        ",".join([f"[{quoted[a]},{quoted[b]},{amount}]" for a, b, amount
                                  in edges or graph.edge_triples()]), "]}\n"])
    return _write(path, text, "utf-8")


def export_pajek(graph: InteractionGraph, path, edges=None) -> str:
    """Write the graph in Pajek form, vertices then edges; as ``export_json``."""
    def text() -> str:
        vertices = [f'{node} "{graph.keys[node]}"' for node in graph.node_ids()]
        return "\n".join([f"*Vertices {graph.node_count}", *vertices, "*Edges",
                          *[f"{a} {b} {amount}" for a, b, amount
                            in edges or graph.edge_triples()], ""])
    return _write(path, text, "ascii")


def _write(path, text, encoding: str) -> str:
    """Write ``text()`` to ``path``, rendered and encoded in full before any
    file is opened, and return the SHA-256 of its bytes."""
    import hashlib  # loads OpenSSL, which download and report never need
    try:
        data = text().encode(encoding)
        atomic_write(path, data)
    except (OSError, ValueError) as exc:  # also an int too long for str()
        raise ExportError(f"cannot write {path}: {exc}") from exc
    return hashlib.sha256(data).hexdigest()


def atomic_write(path, *parts: bytes) -> None:
    """Write ``parts`` to a temp file beside ``path``, fsync it and rename it
    over ``path``: a crash at any instant leaves the older file or the new
    one, never a torn one.  A failed write removes the temp file."""
    temp = f"{path}.tmp"
    try:
        with open(temp, "wb") as fh:
            for part in parts:
                fh.write(part)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(temp, path)
    except BaseException:
        try:
            os.remove(temp)
        except OSError:
            pass
        raise


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def parse_json(text: str):
    """Strict ``json.loads``: NaN, Infinity, deep nesting and too many digits
    raise ValueError, bad syntax json.JSONDecodeError (with its position)."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except RecursionError as exc:
        raise ValueError(str(exc)) from None


def read_json(path) -> dict:
    """The JSON object in the UTF-8 file ``path``: a file that is not strict
    JSON raises ValueError, any other top-level value TypeError."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = parse_json(fh.read())
    if not isinstance(doc, dict):
        raise TypeError("not a JSON object")
    return doc


def write_json(path, doc, **layout) -> None:
    """Replace ``path`` atomically with ``doc`` as strict JSON, laid out by
    the json.dumps keywords ``layout``, and a newline."""
    text = json.dumps(doc, allow_nan=False, **layout)
    atomic_write(path, text.encode("utf-8"), b"\n")


def export_graph(graph: InteractionGraph, path, fmt: str, edges=None) -> str:
    export = export_json if normalize_format(fmt) == FORMAT_JSON else export_pajek
    return export(graph, path, edges)


def import_graph(path, fmt: str | None = None) -> InteractionGraph:
    """Read a graph file written by the matching export.

    When ``fmt`` is omitted it is inferred from the file suffix.

    Validation is strict: referential integrity between edges and vertices,
    no duplicate vertices, no self-loops, no repeated pairs.  The activity
    counters (in_tx/out_tx) are not stored in graph files and come back
    zeroed.
    """
    fmt = infer_format(path) if fmt is None else normalize_format(fmt)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read graph file: {exc}", path=path) from exc
    if fmt == FORMAT_JSON:
        return _parse_json(text, path)
    return _parse_pajek(text, path)


def _shown(value) -> str:
    """``repr(value)``, cut to 80 characters and "..." when longer: an error
    quotes the start of a bad input, never a whole one-line file."""
    text = repr(value)
    return text if len(text) <= 80 else text[:80] + "..."


def _require(condition: bool, message: str, path, line=None, offset=None) -> None:
    if not condition:
        raise ParseError(message, path=path, line=line, offset=offset)


def _int(digits: str, path, line: int) -> int:
    """``int(digits)``; more digits than int() converts raise ParseError."""
    try:
        return int(digits)
    except ValueError as exc:
        raise ParseError(str(exc), path=path, line=line, offset=1) from exc


def _parse_json(text: str, path) -> InteractionGraph:
    try:
        doc = parse_json(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, path=path, line=exc.lineno, offset=exc.colno) from exc
    except ValueError as exc:
        raise ParseError(str(exc), path=path) from exc
    _require(isinstance(doc, dict), "top-level value is not an object", path)
    unknown = set(doc) - {"chain", "vertices", "edges"}
    _require(not unknown, f"unknown keys: {_shown(sorted(unknown))}", path)
    chain = doc.get("chain")
    if chain is not None:
        try:
            chain = Chain(chain)
        except ValueError:
            raise ParseError(f"unknown chain: {_shown(chain)}", path=path) from None
    vertices = doc.get("vertices")
    edges = doc.get("edges")
    _require(isinstance(vertices, list), '"vertices" missing or not a list', path)
    _require(isinstance(edges, list), '"edges" missing or not a list', path)
    graph = InteractionGraph(chain)
    ids = graph._ids
    for key in vertices:
        if not (isinstance(key, str) and key):
            raise ParseError(f"bad vertex key: {_shown(key)}", path=path)
        if key in ids:
            raise ParseError(f"duplicate vertex: {_shown(key)}", path=path)
        graph.intern_node(key)
    insert = graph.insert_edge
    for entry in edges:
        if not (isinstance(entry, list) and len(entry) == 3):
            raise ParseError("edge is not a [key, key, amount] triple: "
                             f"{_shown(entry)}", path=path)
        key_a, key_b, amount = entry
        if not isinstance(key_a, str):
            problem = f"bad edge endpoint: {_shown(key_a)}"
        elif (a := ids.get(key_a)) is None:
            problem = f"edge names unlisted vertex: {_shown(key_a)}"
        elif not isinstance(key_b, str):
            problem = f"bad edge endpoint: {_shown(key_b)}"
        elif (b := ids.get(key_b)) is None:
            problem = f"edge names unlisted vertex: {_shown(key_b)}"
        elif type(amount) is not int or amount < 0:
            problem = f"bad edge amount: {_shown(amount)}"
        elif a == b:
            problem = f"self-loop on vertex {_shown(key_a)}"
        elif insert(a, b, amount):
            continue
        else:
            problem = f"duplicate edge {_shown(key_a)} - {_shown(key_b)}"
        raise ParseError(problem, path=path)
    return graph


def _parse_pajek(text: str, path) -> InteractionGraph:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    _require(bool(lines), "empty file", path, line=1, offset=1)
    header = lines[0]
    _require(header.startswith("*Vertices ") and header[10:].isascii()
             and header[10:].isdigit(),
             f"expected '*Vertices <n>', got {_shown(header)}", path,
             line=1, offset=1)
    count = _int(header[10:], path, 1)
    _require(len(lines) >= count + 2,
             f"file ends inside the {_shown(count)}-vertex section", path,
             line=len(lines), offset=1)
    graph = InteractionGraph()
    ids = graph._ids
    vertex_line = _PAJEK_VERTEX.match
    for idx in range(1, count + 1):
        match = vertex_line(lines[idx])
        offset = 1
        if match is None:
            problem = f"bad vertex line: {_shown(lines[idx])}"
        elif (vertex := _int(match.group(1), path, idx + 1)) != idx:
            problem = f"vertex IDs must run 1..{_shown(count)}; got {_shown(vertex)}"
        elif not (key := match.group(2)) or key in ids:
            problem = f"empty or duplicate vertex key: {_shown(key)}"
            offset = len(match.group(1)) + 2
        else:
            graph.intern_node(key)
            continue
        raise ParseError(problem, path=path, line=idx + 1, offset=offset)
    _require(lines[count + 1] == "*Edges",
             f"expected '*Edges', got {_shown(lines[count + 1])}", path,
             line=count + 2, offset=1)
    edge_line = _PAJEK_EDGE.match
    insert = graph.insert_edge
    for idx in range(count + 2, len(lines)):
        match = edge_line(lines[idx])
        if match is None:
            raise ParseError(f"bad edge line: {_shown(lines[idx])}", path=path,
                             line=idx + 1, offset=1)
        try:
            a, b, amount = map(int, match.groups())
        except ValueError as exc:  # an integer longer than int() converts
            raise ParseError(str(exc), path=path, line=idx + 1, offset=1) from exc
        if not (0 < a <= count and 0 < b <= count):
            problem = f"edge names unknown vertex {_shown(b if 0 < a <= count else a)}"
        elif a == b:
            problem = f"self-loop on vertex {a}"
        elif insert(a, b, amount):
            continue
        else:
            problem = f"duplicate edge {a} - {b}"
        raise ParseError(problem, path=path, line=idx + 1, offset=1)
    return graph
