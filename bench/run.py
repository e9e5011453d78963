"""ledgernet benchmark: time to a small-world verdict on a seeded ledger.

Usage, from the root of a ledgernet checkout::

    python3 bench/run.py --workload pipeline-ref --seed 1 --seconds 55 --trace 0

Set-up generates the workload's ledger from ``--seed``.  The measured part
is a closed loop with one client: the pipeline ``download -> build ->
analyze -> compare`` runs again and again until ``--seconds`` have passed,
each command a fresh ``python -m ledgernet`` process in a fresh output
directory, and after each pipeline run the ledger is set up once more, so
that ``setup_s`` is sampled across the run too.  The first pipeline run is a
warm-up and is not measured.  Every command's outputs are checked after it
exits, outside its timing.

``--trace 0`` prints the end-to-end metrics: each timing is the mean of its
samples in the run without the fastest and the slowest (see ``_typical``).
``--trace 1`` alternates untraced and traced pipeline runs
and prints the per-layer metrics of the traced ones (see ``spans.py``),
medians over the traced runs; untraced runs are the only source of
end-to-end numbers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record with the
machine, Python version, source revision and seeds goes to standard output
before it and to ``.bench_results/results.jsonl``.  Working files live in
``.bench_work/`` and are removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
# Set-ups per run at the least, when too few laps fit into --seconds.
MIN_SETUPS = 5
# BFS sources for sampled ASPL, unless the workload asks for exact ASPL.
SAMPLED_SOURCES = 32
RUN_DEADLINE_S = 170.0
STEPS = ("download", "build", "analyze", "compare")


def _metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit of one BENCHMARK.json section, in file order."""
    with open(BENCH_DIR.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@dataclass
class PipelineRun:
    wall: dict[str, float] = field(default_factory=dict)
    rss_mb: dict[str, float] = field(default_factory=dict)
    spans: dict[str, dict] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0

    @property
    def ok(self) -> bool:
        return self.failed == 0 and len(self.wall) == len(STEPS)


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _source_revision(root: Path) -> dict:
    """Git SHA when the checkout is a repository, and a digest of src/."""
    info = {"git_sha": None}
    if (root / ".git").exists():
        try:
            info["git_sha"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    info["src_sha256"] = digest.hexdigest()
    return info


class Bench:
    def __init__(self, root: Path, workload, ledger, ledger_dir: Path,
                 work: Path, checker, deadline: float):
        self.root = root
        self.workload = workload
        self.ledger = ledger
        self.ledger_dir = ledger_dir
        self.work = work
        self.checker = checker
        self.deadline = deadline
        self.runs = 0
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.download_workers = min(2, os.cpu_count() or 1)

    def _argv(self, step: str, out: Path) -> list[str]:
        """CLI arguments of one step, with the settings pinned so that no
        workload measures the wrong thing:

        * ``--rate-limit 0``: the default token bucket (10 requests/s) would
          turn the fixture download into sleep;
        * download ``--workers`` at most ``nproc``;
        * ``--workers 1`` for analyze and compare: the default is one thread
          per core, which the GIL serialises;
        * a fresh output directory per pipeline run (``out``), so no command
          finds an earlier artifact and skips its work.
        """
        w = self.workload
        if step == "download":
            return ["download", "--chain", "ethereum",
                    "--fixture", str(self.ledger_dir),
                    "--from-block", "0", "--to-block", str(self.ledger.last_block),
                    "--chunk-size", str(w.chunk_size),
                    "--workers", str(self.download_workers),
                    "--rate-limit", "0", "--output-dir", str(out)]
        if step == "build":
            return ["build", "--format", "both", "--output-dir", str(out)]
        if step == "analyze":
            # analyze reads the JSON file and compare the Pajek file, so
            # that both importers are timed.
            argv = ["analyze", "--graph", str(out / "graph.json"), "--workers", "1"]
        else:
            argv = ["compare", "--graph", str(out / "graph.pajek"),
                    "--samples", "1", "--workers", "1"]
        if not w.exact_aspl:
            argv += ["--sample-sources", str(SAMPLED_SOURCES)]
        return argv

    def _check(self, step: str, out: Path) -> None:
        if step == "download":
            self.checker.download(out)
        elif step == "build":
            self.checker.build(out)
        elif step == "analyze":
            self.checker.analyze(out)
        else:
            self.checker.compare(out)

    def _spawn(self, argv: list[str], log: Path) -> tuple[float, float, int]:
        """Run one process; returns (wall seconds, max RSS in MB, exit code)."""
        timeout = max(1.0, self.deadline - time.monotonic())
        launched = subprocess.run(
            [sys.executable, str(BENCH_DIR / "launch.py"), f"{timeout:.1f}",
             str(log), "--"] + argv,
            env=self.env, cwd=self.root, capture_output=True, text=True,
            timeout=timeout + 10.0, check=True)
        result = json.loads(launched.stdout)
        return result["wall_s"], result["max_rss_kb"] / 1024.0, result["exit_code"]

    def pipeline(self, traced: bool) -> PipelineRun:
        self.runs += 1
        out = self.work / f"run{self.runs}"
        out.mkdir(parents=True)
        run = PipelineRun()
        try:
            for index, step in enumerate(STEPS):
                run.attempted += 1
                argv = self._argv(step, out)
                spans_file = out / f"{step}.spans"
                if traced:
                    argv = [sys.executable, str(BENCH_DIR / "spans.py"),
                            str(spans_file)] + argv
                else:
                    argv = [sys.executable, "-m", "ledgernet"] + argv
                try:
                    # Write back the files earlier steps and checks left
                    # dirty, so that this command's own fsyncs wait only for
                    # its own writes.
                    os.sync()
                    wall, rss, code = self._spawn(argv, out / f"{step}.log")
                    if code != 0:
                        log = (out / f"{step}.log").read_text(errors="replace")
                        raise RuntimeError(f"exit code {code}: {log.strip()[-500:]}")
                    self._check(step, out)
                    if traced:
                        run.spans[step] = spans.load(spans_file)
                except Exception as exc:  # noqa: BLE001  (counted, reported)
                    print(f"bench: {step} failed: {exc}", file=sys.stderr)
                    skipped = len(STEPS) - index - 1
                    run.attempted += skipped
                    run.failed += 1 + skipped
                    return run
                run.wall[step] = wall
                run.rss_mb[step] = rss
            print(f"pipeline {self.runs}{' traced' if traced else ''}: "
                  + ", ".join(f"{s} {run.wall[s]:.3f}s/{run.rss_mb[s]:.0f}MB"
                              for s in STEPS), flush=True)
            return run
        finally:
            shutil.rmtree(out, ignore_errors=True)


def _typical(times: list[float]) -> float:
    """Mean of the times without the fastest and the slowest.

    Not the median: the reference host's CPU speed flips between two states
    about 45% apart for seconds to minutes at a time, so the median of a
    run's samples jumps to whichever state held most of the run, while the
    mean follows the share of time spent in each.  Dropping the two extremes
    keeps one stalled command from moving the figure.
    """
    times = sorted(times)
    if len(times) >= 3:
        times = times[1:-1]
    return statistics.fmean(times)


def _step_times(runs: list[PipelineRun]) -> dict[str, float]:
    """Typical wall time of each step over the runs that passed."""
    good = [r for r in runs if r.ok]
    if not good:
        return {}
    return {step: _typical([r.wall[step] for r in good]) for step in STEPS}


def _e2e_metrics(runs: list[PipelineRun], setup: list[float], tx: int,
                 attempted: int, failed: int) -> dict[str, float]:
    values: dict[str, float] = {}
    steps = _step_times(runs)
    if steps:
        for step in STEPS:
            values[f"{step}_s"] = steps[step]
        values["total_s"] = sum(steps.values())
        values["ingest_tx_per_s"] = tx / (values["download_s"] + values["build_s"])
        values["peak_rss_mb"] = statistics.median(
            max(r.rss_mb.values()) for r in runs if r.ok)
    values["setup_s"] = _typical(setup)
    values["success_rate"] = 1.0 - failed / attempted
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "ledgernet" / "__init__.py").is_file():
        return _fail(f"no ledgernet sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    try:
        import ledgernet
    except ImportError as exc:
        return _fail(f"cannot import ledgernet from {src}: {exc}")
    if Path(ledgernet.__file__).resolve().parent != (src / "ledgernet").resolve():
        return _fail(f"imported ledgernet from {ledgernet.__file__}, not {src}")

    from checks import Checker, Reference
    from ledger import generate
    from workloads import HELD_OUT_SEED, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")

    work = root / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    def set_up(ledger_dir: Path):
        os.sync()  # so no set-up writes back files written before it
        start = time.perf_counter()
        ledger = generate(ledger_dir, workload.shape, args.seed)
        setup.append(time.perf_counter() - start)
        return ledger

    def set_up_again() -> None:
        set_up(work / "ledger-again")
        shutil.rmtree(work / "ledger-again")

    setup: list[float] = []
    try:
        ledger_dir = work / "ledger"
        ledger = set_up(ledger_dir)
        start = time.perf_counter()
        reference = (Reference(ledger, baseline_seed=0)
                     if workload.exact_aspl else None)
        reference_s = time.perf_counter() - start

        bench = Bench(root, workload, ledger, ledger_dir, work,
                      Checker(ledger, reference), deadline)
        untraced: list[PipelineRun] = []
        traced: list[PipelineRun] = []
        # The first pipeline run warms the page cache and the interpreter's
        # files and takes the full output checks; it is not measured.  Then
        # start another pipeline run while it is expected to end no later
        # than half a run after --seconds, so a run lasts about --seconds.
        # Each lap also sets up the ledger once more, so that set-up is timed
        # across the whole run like the commands, not in one burst.
        loop_start = time.monotonic()
        warmup = bench.pipeline(traced=False)
        lap_times = []
        while warmup.ok:
            lap_start = time.monotonic()
            untraced.append(bench.pipeline(traced=False))
            if args.trace:
                traced.append(bench.pipeline(traced=True))
            if any(not r.ok for r in untraced + traced):
                break
            set_up_again()
            now = time.monotonic()
            lap_times.append(now - lap_start)
            if now - loop_start + statistics.median(lap_times) / 2 >= args.seconds:
                break
        while len(setup) < MIN_SETUPS:
            set_up_again()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = [warmup] + untraced + traced
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    e2e = _e2e_metrics(untraced, setup, ledger.transactions, attempted, failed)
    if args.trace:
        units = _metric_units("per_layer")
        per_run = []
        for run in traced:
            if run.ok:
                per_run.append(spans.layer_metrics(
                    [(run.wall[s], run.spans[s]) for s in STEPS], list(units)))
        values = {}
        if per_run:
            values = {name: statistics.median(m[name] for m in per_run)
                      for name in units if name != "tracing.overhead_s"}
            if "total_s" in e2e:
                values["tracing.overhead_s"] = (
                    sum(_step_times(traced).values()) - e2e["total_s"])
    else:
        units = _metric_units("end_to_end")
        values = e2e
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units if name in values}

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "pipeline_runs": {"untraced": len(untraced), "traced": len(traced)},
        "command_walls_s": {step: [r.wall[step] for r in untraced if r.ok]
                            for step in STEPS},
        "ledger": {"blocks": workload.shape.blocks,
                   "transactions": ledger.transactions,
                   "addresses": workload.shape.addresses,
                   "nodes": len(ledger.nodes), "edges": len(ledger.pairs)},
        "setup_runs_s": setup,
        "reference_s": reference_s,
        "machine": {"platform": platform.platform(),
                    "processor": platform.processor() or platform.machine(),
                    "nproc": os.cpu_count()},
        "python": platform.python_version(),
        "source": _source_revision(root),
        "end_to_end": e2e,
        "elapsed_s": time.monotonic() - started,
    }
    results = root / ".bench_results"
    results.mkdir(exist_ok=True)
    with open(results / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(dict(record, metrics=metrics)) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
