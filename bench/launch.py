"""Run one command; print its wall time, peak RSS and exit code as JSON.

    python3 bench/launch.py TIMEOUT_S LOG_FILE -- ARGV...

The runner starts every timed command through this small interpreter rather
than directly: a child started from the runner's own process inherits the
runner's resident set in its max-RSS (Linux records the old address space's
high-water mark at exec), and the runner holds the ledger bookkeeping and
the networkx/scipy reference.  This process stays near 10 MB, below any
ledgernet command.  The timing covers only the command's own process.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    timeout = float(sys.argv[1])
    log = sys.argv[2]
    if sys.argv[3] != "--":
        print("usage: launch.py TIMEOUT_S LOG_FILE -- ARGV...", file=sys.stderr)
        return 2
    argv = sys.argv[4:]
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "max_rss_kb": usage.ru_maxrss,
                      "exit_code": proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
