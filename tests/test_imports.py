"""What importing ledgernet loads, which modules may start process or
thread pools, which may parse or serialise JSON, which may check a
transfer, and which may classify a failed network request.

Analysis is pure-Python graph walking, which the GIL serialises, so a pool
there only costs time.  Downloads wait on the network, so their threads pay.
JSON goes through ``formats``, so every input, network replies too, is read
as strict JSON and every output replaced atomically in one place.  A
transfer is checked and its keys canonicalized by ``graph.transfer_record``,
called only where provider records and chunk lines enter.  A network
request is sent, and its failure classified, by ``providers._reply`` alone,
and paced and retried by ``download.RetryingProvider`` alone.
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
