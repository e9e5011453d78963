"""The benchmark's traced run wraps ledgernet functions by name from outside
the package; renaming or deleting one of them must fail here, not only when
the benchmark runs with tracing on."""

import os
import subprocess
import sys
from pathlib import Path

import ledgernet

ROOT = Path(__file__).resolve().parent.parent


def test_span_wrappers_install():
    src = str(Path(ledgernet.__file__).parent.parent)
    code = ("import spans\n"
            "recorder = spans.Recorder()\n"
            "spans.install(recorder)\n"
            "import ledgernet.metrics\n"
            "print(ledgernet.metrics.aspl.__wrapped__.__name__)\n")
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "bench"), src])),
        timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "aspl"
