"""Span tracing for the benchmark's traced run, from outside the program.

Run as a script, this module is a drop-in for ``python -m ledgernet``::

    python3 bench/spans.py SPANS_FILE CLI_ARGS...

It installs span wrappers around public ledgernet functions, runs
``ledgernet.cli.main(CLI_ARGS)`` in process under a root ``cli.main`` span,
writes the spans to SPANS_FILE with ``marshal`` and exits with the CLI's
exit code.  Spans stay in memory until then.  Nothing under ``src/`` knows
about the tracing.

A span is the tuple ``(id, name, parent, thread, start, end, cpu_start,
cpu_end, extra)``: wall times from ``time.perf_counter``, thread CPU times
from ``time.thread_time``.  The parent of a span is the innermost open span
of its own thread; the first span of a worker thread takes the innermost
open span of the main thread at that moment.  That is often
``checkpoint.save``, since the download coordinator saves the checkpoint
while its workers run, so the analysis finds worker spans by name and
thread, never by parent.  ``extra`` holds counts taken at the boundary
(bytes written, transactions returned, BFS sources, ...).

``layer_metrics`` turns the spans of one traced pipeline run into the
per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import itertools
import marshal
import os
import sys
import threading
import time


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.main_thread = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, extra=None):
        """``fn`` wrapped in a span; ``extra(args, kwargs, result)`` adds counts."""
        perf = time.perf_counter
        cpu = time.thread_time
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else 0
            span_id = next(self._ids)
            stack.append(span_id)
            counts = None
            c0 = cpu()
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                t1 = perf()
                if extra is not None:
                    counts = extra(args, kwargs, result)
                return result
            except BaseException:
                t1 = perf()
                raise
            finally:
                c1 = cpu()
                stack.pop()
                spans.append((span_id, name, parent, threading.get_ident(),
                              t0, t1, c0, c1, counts))

        return traced


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _patch_function(original, wrapped) -> None:
    """Replace ``original`` in every loaded ledgernet module that holds it,
    so both the defining module and ``from x import y`` importers see the
    wrapper."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("ledgernet"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def install(recorder: Recorder) -> None:
    """Wrap the public functions whose spans ``layer_metrics`` reads."""
    import ledgernet.cli  # noqa: F401  (loads every module that gets patched)
    from ledgernet import baseline, formats, graph, metrics
    from ledgernet.ingestion import checkpoint, chunks, download, providers

    def import_format(args, kwargs, result):
        fmt = kwargs.get("fmt", args[1] if len(args) > 1 else None)
        return fmt if fmt is not None else formats.infer_format(args[0])

    def aspl_sources(args, kwargs, result):
        k = len(args[1])
        sample = kwargs.get("sample_sources")
        return min(sample, k) if sample is not None else k

    def clustering_nodes(args, kwargs, result):
        nodes = kwargs.get("nodes", args[1] if len(args) > 1 else None)
        return args[0].node_count if nodes is None else len(nodes)

    def file_size(index):
        return lambda args, kwargs, result: _size(args[index])

    # (module, function, counts taken from (args, kwargs, result)); the span
    # is named "<module>.<function>".
    functions = [
        (download, "run_download", lambda a, k, r: r.blocks_fetched),
        (chunks, "write_chunk", file_size(0)),
        (chunks, "decode_transaction", None),
        (graph, "build_graph", lambda a, k, r: (r.node_count, r.edge_count)),
        (formats, "export_json", file_size(1)),
        (formats, "export_pajek", file_size(1)),
        (formats, "import_graph", import_format),
        (metrics, "degree_distributions", None),
        (metrics, "connected_components", None),
        (metrics, "average_clustering", clustering_nodes),
        (metrics, "aspl", aspl_sources),
        (metrics, "analyze", None),
        (baseline, "generate_er_gnm", lambda a, k, r: a[0].m),
        (baseline, "compare", None),
        (baseline, "small_world_verdict", None),
    ]
    for module, attr, extra in functions:
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        _patch_function(original, recorder.wrap(name, original, extra))

    methods = [
        (providers, providers.FixtureProvider, "block_transactions",
         lambda a, k, r: len(r)),
        (checkpoint, checkpoint.Checkpoint, "save", file_size(1)),
    ]
    for module, cls, attr, extra in methods:
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        setattr(cls, attr, recorder.wrap(name, getattr(cls, attr), extra))


def traced_main(spans_path: str, argv: list[str]) -> int:
    from ledgernet import cli

    recorder = Recorder()
    install(recorder)
    main = recorder.wrap("cli.main", cli.main)
    try:
        return main(argv)
    finally:
        with open(spans_path, "wb") as fh:
            marshal.dump({"main_thread": recorder.main_thread,
                          "spans": recorder.spans}, fh)


def load(path) -> dict:
    with open(path, "rb") as fh:
        return marshal.load(fh)


# ----------------------------------------------------------------- analysis

def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start = max(start, end)
        stop = min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span[2], []).append((span[4], span[5]))
    return {span[0]: (span[5] - span[4])
            - _covered(children.get(span[0], []), span[4], span[5])
            for span in spans}


# Spans that run in download worker threads; their thread CPU time is
# ``download.worker_cpu_s``.
WORKER_SPANS = ("providers.block_transactions", "chunks.write_chunk")


def layer_metrics(commands: list[tuple[float, dict]],
                  names: list[str]) -> dict[str, float]:
    """Per-layer metrics ``names`` of one traced pipeline run.

    ``commands`` holds, per CLI command, its wall time measured outside the
    process and its loaded spans file.  ``tracing.overhead_s`` needs the
    untraced run as well and is filled in by the caller.
    """
    out = {name: 0.0 for name in names}
    blocks_fetched = 0
    tx_returned = 0
    for wall, doc in commands:
        spans = doc["spans"]
        self_of = self_times(spans)
        for span in spans:
            span_id, name, parent, thread, t0, t1, c0, c1, extra = span
            dur = t1 - t0
            if name == "cli.main":
                # Start-up, imports and teardown happen outside the root span.
                out["cli.self_s"] += wall - dur + self_of[span_id]
            elif name == "providers.block_transactions":
                out["providers.block_calls"] += 1
                out["providers.busy_s"] += dur
                tx_returned += extra or 0
            elif name == "download.run_download":
                out["download.wall_s"] += dur
                blocks_fetched += extra or 0
            elif name == "checkpoint.save":
                out["checkpoint.saves"] += 1
                out["checkpoint.busy_s"] += dur
                out["checkpoint.bytes_written"] += extra or 0
            elif name == "chunks.write_chunk":
                out["chunks.files"] += 1
                out["chunks.write_busy_s"] += dur
                out["chunks.bytes_written"] += extra or 0
            elif name == "chunks.decode_transaction":
                out["chunks.decode_calls"] += 1
                out["chunks.decode_busy_s"] += dur
            elif name == "graph.build_graph":
                out["graph.fold_self_s"] += self_of[span_id]
                nodes, edges = extra or (0, 0)
                out["graph.nodes"] += nodes
                out["graph.edges"] += edges
            elif name == "formats.export_json":
                out["formats.export_json_s"] += dur
                out["formats.json_bytes"] += extra or 0
            elif name == "formats.export_pajek":
                out["formats.export_pajek_s"] += dur
                out["formats.pajek_bytes"] += extra or 0
            elif name == "formats.import_graph" and extra is not None:
                out[f"formats.import_{extra}_s"] += dur
            elif name == "metrics.aspl":
                out["metrics.aspl_s"] += dur
                out["metrics.bfs_sources"] += extra or 0
            elif name == "metrics.average_clustering":
                out["metrics.clustering_s"] += dur
                out["metrics.clustering_nodes"] += extra or 0
            elif name == "metrics.connected_components":
                out["metrics.components_s"] += dur
            elif name == "metrics.degree_distributions":
                out["metrics.degrees_s"] += dur
            elif name == "baseline.generate_er_gnm":
                out["baseline.er_generate_s"] += dur
                out["baseline.er_edges"] += extra or 0
            elif name == "baseline.small_world_verdict":
                out["baseline.verdict_s"] += dur
            if name in WORKER_SPANS and thread != doc["main_thread"]:
                out["download.worker_cpu_s"] += c1 - c0
    out["download.retries"] = max(0, out["providers.block_calls"] - blocks_fetched)
    if tx_returned:
        out["providers.us_per_tx"] = out["providers.busy_s"] / tx_returned * 1e6
    if out["chunks.decode_calls"]:
        out["chunks.decode_us_per_tx"] = (out["chunks.decode_busy_s"]
                                          / out["chunks.decode_calls"] * 1e6)
    if out["download.wall_s"]:
        out["download.parallelism"] = (out["download.worker_cpu_s"]
                                       / out["download.wall_s"])
    if out["metrics.bfs_sources"]:
        out["metrics.aspl_ms_per_source"] = (out["metrics.aspl_s"]
                                             / out["metrics.bfs_sources"] * 1e3)
    return out


if __name__ == "__main__":
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    sys.exit(traced_main(sys.argv[1], sys.argv[2:]))
