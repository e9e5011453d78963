"""What importing ledgernet loads, which modules may start process or
thread pools, which may parse or serialise JSON, which may check a
transfer, and which may classify a failed network request.

Analysis is pure-Python graph walking, which the GIL serialises, so a pool
there only costs time.  Downloads wait on the network, so their threads pay.
JSON goes through ``formats``, so every input, network replies too, is read
as strict JSON and every output replaced atomically in one place.  A
transfer is checked and its keys canonicalized by ``graph.transfer_record``,
called only where provider records and chunk lines enter, and folded into
a graph by ``InteractionGraph.fold`` alone.  A network request is sent, and
its failure classified, by ``providers._reply`` alone, and paced and retried
by ``download.RetryingProvider`` alone.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ledgernet
from ledgernet import cli

PACKAGE = Path(cli.__file__).parent
POOL_MODULES = ("concurrent", "multiprocessing")
JSON_FUNCTIONS = ("load", "loads", "dump", "dumps")
TRANSFER_RULES = ("canonicalize_address", "transfer_record")
REQUEST_RULES = ("RequestException", "status_code")
PACING_CALLS = ("acquire", "delay")
QUOTERS = ("encode_basestring", "encode_basestring_ascii")
# What a graph's fold writes into, by the name it is reached by: the activity
# counters, and the edge store whose subscripts are the edge rows
FOLD_TARGETS = {"in_tx": "counter", "out_tx": "counter", "adj": "store"}


def pool_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names
            if name.split(".")[0] in POOL_MODULES]


def test_only_the_downloader_imports_a_pool_module():
    found = {path.relative_to(PACKAGE).as_posix(): pool_imports(path)
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert {path: names for path, names in found.items() if names} == {
        "ingestion/download.py": ["concurrent.futures"]}


def json_calls(path: Path) -> list[tuple[str, str]]:
    """``(owner, function)`` for each use of json.load/loads/dump/dumps in
    ``path``, as ``json.<function>`` or imported by name; the owner is the
    top-level def or class around it."""
    calls = []
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (isinstance(node, ast.Attribute) and node.attr in JSON_FUNCTIONS
                    and isinstance(node.value, ast.Name) and node.value.id == "json"):
                calls.append((owner, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                calls += [(owner, alias.name) for alias in node.names
                          if alias.name in JSON_FUNCTIONS]
    return calls


def test_only_formats_parses_json_and_fixture_writers_serialise_it_too():
    parsers, serialisers = set(), set()
    for path in sorted(PACKAGE.rglob("*.py")):
        name = path.relative_to(PACKAGE).as_posix()
        for owner, function in json_calls(path):
            if function.startswith("load"):
                parsers.add(name)
            else:
                serialisers.add(name if name == "formats.py" else f"{name}:{owner}")
    assert parsers == {"formats.py"}
    assert serialisers == {"formats.py",
                           "ingestion/providers.py:write_fixture_block",
                           "ingestion/providers.py:write_fixture_meta"}


def name_uses(path: Path, rules: tuple[str, ...]) -> set[str]:
    """``<owner>:<name>`` for each use of a name in ``rules`` in ``path``
    (a call, a reference, an attribute or a from-import); the owner is the
    top-level def or class around it."""
    uses = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            uses.update(f"{owner}:{name}" for name in names if name in rules)
    return uses


def test_only_graph_canonicalizes_and_two_readers_check_transfers():
    # a provider returns raw records and fetch_block_transactions checks
    # them, so no copy of the rules for a valid transfer can drift
    uses = {path.relative_to(PACKAGE).as_posix(): name_uses(path, TRANSFER_RULES)
            for path in sorted(PACKAGE.rglob("*.py"))}
    assert {name: found for name, found in uses.items()
            if found and name != "graph.py"} == {
        "ingestion/chunks.py": {"<module>:transfer_record",
                                "_decode_record:transfer_record"},
        "ingestion/download.py": {"<module>:transfer_record",
                                  "fetch_block_transactions:transfer_record"},
    }


def test_only_reply_catches_request_errors_and_reads_status_codes():
    # _call and _get hand _reply a send callable, so the rules for a failed
    # request (permanent or transient, the key redacted) have one copy
    uses = {path.relative_to(PACKAGE).as_posix(): name_uses(path, REQUEST_RULES)
            for path in sorted(PACKAGE.rglob("*.py"))}
    assert {name: found for name, found in uses.items() if found} == {
        "ingestion/providers.py": {"_reply:RequestException",
                                   "_reply:status_code"}}


def quoter_uses(path: Path) -> set[str]:
    """The top-level def or class around each use of a json.encoder string
    quoter in ``path``: by its name, as an attribute or by the name it is
    imported as (the import itself is no use)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set(QUOTERS) | {alias.asname for node in ast.walk(tree)
                            if isinstance(node, ast.ImportFrom)
                            for alias in node.names
                            if alias.name in QUOTERS and alias.asname}
    uses = set()
    for top in tree.body:
        uses.update(getattr(top, "name", "<module>") for node in ast.walk(top)
                    if isinstance(node, ast.Name) and node.id in names
                    or isinstance(node, ast.Attribute) and node.attr in QUOTERS)
    return uses


def test_only_two_writers_render_json_by_hand():
    # export_json and write_chunk quote strings themselves instead of calling
    # json.dumps, and an oracle test holds each to json.dumps' bytes
    # (test_formats.TestExportJsonOracle, test_ingestion's
    # test_write_chunk_matches_json_dumps_and_reads_back)
    uses = {path.relative_to(PACKAGE).as_posix(): quoter_uses(path)
            for path in sorted(PACKAGE.rglob("*.py"))}
    assert {name: found for name, found in uses.items() if found} == {
        "formats.py": {"export_json"}, "ingestion/chunks.py": {"write_chunk"}}


def method_calls(path: Path, methods: tuple[str, ...]) -> set[str]:
    """``<owner>:<method>`` for each call ``<value>.<method>(...)`` in
    ``path`` of a method in ``methods``; the owner is the top-level def or
    class around it."""
    calls = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = getattr(top, "name", "<module>")
        calls.update(f"{owner}:{node.func.attr}" for node in ast.walk(top)
                     if isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Attribute)
                     and node.func.attr in methods)
    return calls


def test_only_the_retrying_provider_takes_tokens_and_backoff_delays():
    # bucket.acquire() and policy.delay() are called by one wrapper, so no
    # second path can pace or retry a request by rules of its own
    calls = {path.relative_to(PACKAGE).as_posix(): method_calls(path, PACING_CALLS)
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert {name: found for name, found in calls.items() if found} == {
        "ingestion/download.py": {"RetryingProvider:acquire",
                                  "RetryingProvider:delay"}}


def _fold_kind(node, aliases: dict[str, str]) -> str | None:
    """"counter", "store" or "row" if ``node`` reaches a fold target: by its
    name, as an attribute, through an alias or as ``<store>[...]``."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id, FOLD_TARGETS.get(node.id))
    if isinstance(node, ast.Attribute):
        return FOLD_TARGETS.get(node.attr)
    if isinstance(node, ast.Subscript) and _fold_kind(node.value, aliases) == "store":
        return "row"
    return None


def _bindings(top: ast.AST):
    """``(target, value)`` of each name binding under ``top``: assignments,
    tuples unpacked element by element, walruses and for loops, where a loop
    over ``x`` or ``enumerate(x)`` binds an element of ``x``, a subscript."""
    for node in ast.walk(top):
        if isinstance(node, ast.Assign):
            pairs = [(target, node.value) for target in node.targets]
        elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)) and node.value:
            pairs = [(node.target, node.value)]
        elif isinstance(node, (ast.For, ast.comprehension)):
            target, items = node.target, node.iter
            if (isinstance(items, ast.Call) and isinstance(items.func, ast.Name)
                    and items.func.id == "enumerate" and items.args
                    and isinstance(target, ast.Tuple) and len(target.elts) == 2):
                target, items = target.elts[1], items.args[0]
            pairs = [(target, ast.Subscript(items, ast.Constant(0)))]
        else:
            continue
        while pairs:
            target, value = pairs.pop()
            if (isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                    and len(target.elts) == len(value.elts)):
                pairs += zip(target.elts, value.elts)
            elif isinstance(target, ast.Name):
                yield target.id, value


def _owners(tree: ast.Module):
    """``(owner, node)`` for each top-level statement, and for each method
    as ``<class>.<method>``."""
    for top in tree.body:
        if not isinstance(top, ast.ClassDef):
            yield getattr(top, "name", "<module>"), top
            continue
        for node in top.body:
            method = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield f"{top.name}.{node.name}" if method else top.name, node


def fold_writes(source: str) -> set[str]:
    """The owner (see ``_owners``) of each assignment, plain or augmented,
    into ``in_tx[...]``, ``out_tx[...]``, ``adj[...]`` or an edge row
    ``adj[...][...]``, reached as an attribute (``graph.in_tx``), by that
    name or through a local alias (``row = graph.adj[a]``)."""
    writes = set()
    for owner, top in _owners(ast.parse(source)):
        bindings = list(_bindings(top))
        aliases: dict[str, str] = {}
        for _ in bindings:  # each round follows every alias chain one step
            found = {name: kind for name, value in bindings
                     if (kind := _fold_kind(value, aliases))}
            if found == aliases:
                break
            aliases = found
        for node in ast.walk(top):
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            while targets:
                target = targets.pop()
                if isinstance(target, (ast.Tuple, ast.List)):
                    targets += target.elts
                elif isinstance(target, ast.Starred):
                    targets.append(target.value)
                elif (isinstance(target, ast.Subscript)
                      and _fold_kind(target.value, aliases)):
                    writes.add(owner)
    return writes


def test_only_graph_fold_and_two_edge_inserts_write_counters_or_edge_rows():
    # the rule that turns transfers into counters and edges has one copy,
    # InteractionGraph.fold; record_edge and insert_edge only write edges
    writes = {path.relative_to(PACKAGE).as_posix(): fold_writes(
        path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.rglob("*.py"))}
    assert {name: found for name, found in writes.items() if found} == {
        "graph.py": {"InteractionGraph.fold", "InteractionGraph.record_edge",
                     "InteractionGraph.insert_edge"}}


HAND_WRITTEN_FOLD = """
def fold_chunks(rows, graph):
    get, intern, adj = graph._ids.get, graph.intern_node, graph.adj
    in_tx, out_tx = graph.in_tx, graph.out_tx
    for _, _, s, r, v in rows:
        a = s and (get(s) or intern(s))
        b = get(r) or intern(r)
        in_tx[b] += 1
        if a:
            out_tx[a] += 1
            if a != b:
                adj[a][b] = adj[b][a] = adj[a].get(b, 0) + int(v)
"""


@pytest.mark.parametrize("source", [
    HAND_WRITTEN_FOLD,
    "def f(graph, b):\n    graph.in_tx[b] += 1",
    "def f(graph, b):\n    graph.out_tx[b] = graph.out_tx[b] + 1",
    "def f(graph, a, b):\n    graph.adj[a][b] = 5",
    "def f(graph, a, b):\n    row = graph.adj[a]\n    row[b] = row.get(b, 0) + 5",
    "def f(g, a, b):\n    store = g.adj\n    rows = store\n    rows[a][b] += 1",
    "def f(g, b):\n    counts: list = g.in_tx\n    counts[b]: int = 1",
    "def f(g, b):\n    x, (y, counts) = 1, (2, g.out_tx)\n    counts[b] += 1",
    "def f(g):\n    for row in g.adj:\n        row[0] = 1",
    "def f(g):\n    for a, row in enumerate(g.adj):\n        row[a], c = 1, 2",
    "def f(g, b):\n    if (counts := g.in_tx):\n        counts[b] += 1",
    "class C:\n    def f(self, b):\n        self.in_tx[b] += 1",
    "def f(graph, a):\n    graph.adj[a] = {}",
])
def test_the_fold_rule_sees_each_way_to_write_a_counter_or_edge_row(source):
    assert fold_writes(source)


@pytest.mark.parametrize("source", [
    "def f(graph, a, b):\n    return graph.adj[a].get(b), graph.in_tx[b]",
    "def f(graph, a, b):\n    graph.adj[a].add(b)",
    "def f(graph):\n    graph.adj = [{}]\n    graph.in_tx = [0]",
    "def f(graph, a, b):\n    seen = {}\n    seen[graph.adj[a][b]] = 1",
])
def test_the_fold_rule_passes_reads_calls_and_rebinding(source):
    assert fold_writes(source) == set()


def test_no_json_method_call_bypasses_formats():
    # requests' response.json() parses without formats.parse_json's rules
    calls = [f"{path.relative_to(PACKAGE.parent).as_posix()}:{node.lineno}"
             for path in sorted(PACKAGE.parent.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "json"]
    assert calls == []


@pytest.mark.parametrize("package", ["ledgernet", "ledgernet.ingestion"])
def test_each_public_name_is_the_object_its_module_defines(package):
    package = importlib.import_module(package)
    names = [name for name in package.__all__ if name != "__version__"]
    for name in names:
        module = importlib.import_module(
            f"{package.__name__}.{package._MODULE_OF[name]}")
        assert getattr(package, name) is getattr(module, name), name
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    assert {name: namespace[name] for name in package.__all__} == {
        name: getattr(package, name) for name in package.__all__}


def test_unknown_name_is_an_attribute_error_naming_the_package():
    with pytest.raises(AttributeError,
                       match="^module 'ledgernet' has no attribute 'no_such_name'$"):
        ledgernet.no_such_name


def test_reading_the_version_loads_no_submodule():
    code = ("import sys, ledgernet\n"
            "assert ledgernet.__version__\n"
            "print([m for m in sys.modules if m.startswith('ledgernet.')])\n")
    result = subprocess.run([sys.executable, "-c", code],
                            env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
