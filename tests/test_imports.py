"""What importing ledgernet loads, which modules may start process or
thread pools, and which may parse or serialise JSON.

Analysis is pure-Python graph walking, which the GIL serialises, so a pool
there only costs time.  Downloads wait on the network, so their threads pay.
JSON goes through ``formats``, so every input, network replies too, is read
as strict JSON and every output replaced atomically in one place.
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


def test_no_json_method_call_bypasses_formats():
    # requests' response.json() parses without formats.parse_json's rules
    calls = [f"{path.relative_to(PACKAGE.parent).as_posix()}:{node.lineno}"
             for path in sorted(PACKAGE.parent.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "json"]
    assert calls == []


def test_each_public_name_is_the_object_its_module_defines():
    names = [name for name in ledgernet.__all__ if name != "__version__"]
    for name in names:
        module = importlib.import_module(f"ledgernet.{ledgernet._MODULE_OF[name]}")
        assert getattr(ledgernet, name) is getattr(module, name), name
    namespace = {}
    exec("from ledgernet import *", namespace)
    assert {name: namespace[name] for name in ledgernet.__all__} == {
        name: getattr(ledgernet, name) for name in ledgernet.__all__}


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
