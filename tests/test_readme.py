"""The README's "Library use" example, run against a fixture download, so
that an API change cannot leave it stale."""

import re
from pathlib import Path

from ledgernet import cli

ROOT = Path(__file__).resolve().parent.parent


def library_example() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_example_runs(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["download", "--chain", "ethereum",
                     "--fixture", str(ROOT / "tests" / "fixtures" / "mini"),
                     "--from-block", "0", "--to-block", "99",
                     "--chunk-size", "5", "--rate-limit", "0",
                     "--output-dir", str(out)]) == 0
    code = library_example()
    assert code.count('"out/chunks"') >= 2
    capsys.readouterr()
    exec(code.replace('"out/chunks"', repr(str(out / "chunks"))), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
    assert printed[-1] in ("True", "False")
