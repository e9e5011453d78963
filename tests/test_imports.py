"""Which modules may start process or thread pools.

Analysis is pure-Python graph walking, which the GIL serialises, so a pool
there only costs time.  Downloads wait on the network, so their threads pay.
"""

import ast
from pathlib import Path

from ledgernet import cli

PACKAGE = Path(cli.__file__).parent
POOL_MODULES = ("concurrent", "multiprocessing")


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
