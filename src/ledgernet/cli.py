"""Command line pipeline: download -> build -> analyze -> compare -> report.

Each step reads the previous step's artifacts from the output directory and
is idempotent: existing outputs are left alone (with a notice) unless --force
is given.  Provider settings resolve as flags > environment > default;
the effective configuration is echoed into every artifact, with the API key
redacted.

Exit codes: 0 success, 1 usage error, 2 runtime error, 130 interrupted.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import LedgerNetError, ParseError, UsageError
from .formats import (FORMAT_JSON, FORMAT_PAJEK, export_graph, import_graph,
                      infer_format, read_json, write_json)
from .graph import Chain

if TYPE_CHECKING:
    from .metrics import MetricsReport

ENV_ENDPOINT = "LEDGERNET_ENDPOINT"
ENV_API_KEY = "LEDGERNET_API_KEY"
ENV_RATE_LIMIT = "LEDGERNET_RATE_LIMIT"
ENV_RETRY_CAP = "LEDGERNET_RETRY_CAP"
ENV_BACKOFF_BASE = "LEDGERNET_BACKOFF_BASE"

DEFAULT_RATE_LIMIT = 10.0


def _echo(**settings) -> dict:
    """The settings a run resolved, as its artifacts echo them: in call
    order, without the unset ones, with the API key redacted."""
    return {key: "REDACTED" if key == "api_key" else value
            for key, value in settings.items() if value is not None}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="ledgernet",
        description="Download ledger transactions, build the account-interaction "
                    "graph, and test it for small-world structure.")
    parser.add_argument("--version", action="version",
                        version=f"ledgernet {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def common(p):
        p.add_argument("--output-dir", default=".", metavar="DIR",
                       help="directory for pipeline artifacts (default: .)")
        p.add_argument("--force", action="store_true",
                       help="rewrite outputs that already exist")

    def graph_command(name, about, report, handler):
        p = sub.add_parser(name, help=about)
        p.add_argument("--graph", required=True, metavar="PATH")
        p.add_argument("--format", choices=[FORMAT_JSON, FORMAT_PAJEK],
                       help="graph file format (default: from file suffix)")
        p.add_argument("--workers", type=int, default=None, metavar="N",
                       help="must be >= 1 but has no effect: "
                            "analysis runs on one thread")
        p.add_argument("--sample-sources", type=int, default=None, metavar="K",
                       help="estimate path lengths from K >= 1 BFS sources "
                            "instead of all")
        p.add_argument("--seed", type=int, default=0, metavar="N",
                       help="seed for sampled path lengths and, in compare, "
                            "the baseline graphs")
        p.add_argument("--output", metavar="PATH",
                       help=f"report path (default: {report} beside the graph)")
        p.add_argument("--force", action="store_true",
                       help="rewrite an existing report")
        p.set_defaults(handler=handler)
        return p

    p = sub.add_parser("download", help="fetch a block range into chunk files")
    p.add_argument("--chain", required=True, choices=[c.value for c in Chain])
    p.add_argument("--fixture", metavar="DIR",
                   help="read blocks from a fixture directory instead of the network")
    p.add_argument("--endpoint", metavar="URL", help="provider endpoint URL")
    p.add_argument("--api-key", metavar="KEY", help="provider API key")
    p.add_argument("--from-block", type=int, metavar="N")
    p.add_argument("--to-block", type=int, metavar="N")
    p.add_argument("--from-time", type=int, metavar="UNIX",
                   help="interval start, unix seconds (resolved to blocks)")
    p.add_argument("--to-time", type=int, metavar="UNIX")
    p.add_argument("--chunk-size", type=int, metavar="N")
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="download workers (default: logical core count)")
    p.add_argument("--rate-limit", type=float, default=None, metavar="R",
                   help="max requests per second, at least 1/86400 (one a "
                        "day); 0 disables (default: 10, or 0 with --fixture)")
    p.add_argument("--retry-cap", type=int, default=None, metavar="N",
                   help="max attempts per request (default: retry forever)")
    p.add_argument("--backoff-base", type=float, default=None, metavar="SEC")
    common(p)
    p.set_defaults(handler=cmd_download)

    p = sub.add_parser("build", help="build graph files from downloaded chunks")
    p.add_argument("--chain", choices=[c.value for c in Chain],
                   help="chain of the chunk data (default: from checkpoint)")
    p.add_argument("--chunks", metavar="DIR",
                   help="chunk directory (default: <output-dir>/chunks)")
    p.add_argument("--checkpoint", metavar="PATH",
                   help="checkpoint file (default: <output-dir>/checkpoint.json)")
    p.add_argument("--format", choices=[FORMAT_JSON, FORMAT_PAJEK, "both"],
                   default="both")
    common(p)
    p.set_defaults(handler=cmd_build)

    graph_command("analyze", "compute network metrics for a graph file",
                  "metrics.json", cmd_analyze)
    p = graph_command("compare", "classify a graph against a random baseline",
                      "comparison.json", cmd_compare)
    p.add_argument("--samples", type=int, default=1, metavar="N",
                   help="baseline graphs to average (default: 1)")
    p.add_argument("--acc-threshold", type=float)
    p.add_argument("--aspl-threshold", type=float)

    p = sub.add_parser("report", help="summarize artifacts in a directory")
    p.add_argument("--dir", default=".", metavar="DIR")
    p.set_defaults(handler=cmd_report)

    return parser


def _setting(flag_value, env_name: str, key: str, default, cast, valid=None,
             rule: str = ""):
    """Resolve one setting: flag > environment > default.  An empty
    variable counts as unset, as ``export VAR=`` means.

    A given value that ``cast`` or ``valid`` refuses is a usage error naming
    its source: the flag ``--<key>`` or the variable.
    """
    value, source = flag_value, "--" + key.replace("_", "-")
    if value is None:
        raw = os.environ.get(env_name)
        if not raw:
            return default
        source = f"environment variable {env_name}"
        try:
            value = cast(raw)
        except ValueError as exc:  # also an int of over 4,300 digits
            raise UsageError(f"bad value for {source}: {raw!r}") from exc
    if valid is not None and not valid(value):
        raise UsageError(f"{source} must be {rule}, got {value!r}")
    return value


def _finite_non_negative(value) -> bool:
    return math.isfinite(value) and value >= 0


def _rate(value) -> bool:
    from .ingestion.providers import MIN_RATE_LIMIT
    return value == 0 or math.isfinite(value) and value >= MIN_RATE_LIMIT


def _workers(value: int | None) -> int | None:
    """Check a --workers value; None stands for the command's default."""
    if value is not None and value < 1:
        raise UsageError(f"--workers must be >= 1, got {value}")
    return value


def _sha256(path) -> str:
    """The SHA-256 of the graph file ``path``; one it cannot read raises
    the ParseError ``import_graph`` would."""
    import hashlib  # loads OpenSSL, which download and report never need
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
    except OSError as exc:
        raise ParseError(f"cannot read graph file: {exc}", path=path) from exc
    return digest.hexdigest()


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


def _read_report(path, *sections: str) -> list[dict]:
    """A report, then each of its nested ``sections`` objects ({} when
    absent)."""
    try:
        doc = read_json(path)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"corrupt report: {exc}", path=path) from exc
    found = [doc]
    for section in sections:
        found.append(doc.get(section, {}))
        if not isinstance(found[-1], dict):
            raise ParseError(f"corrupt report: {section!r} is not a JSON object",
                             path=path)
    return found


def _skip_existing(path, force: bool) -> bool:
    if Path(path).exists() and not force:
        print(f"keeping existing {path} (use --force to rewrite)")
        return True
    return False


def _report_path(args, name: str) -> Path | None:
    """Check the flags analyze and compare share, then the report path:
    ``--output``, or ``name`` beside the graph; None when an existing report
    is kept."""
    _workers(args.workers)
    if args.sample_sources is not None and args.sample_sources < 1:
        raise UsageError(f"--sample-sources must be >= 1, got {args.sample_sources}")
    output = Path(args.output) if args.output else Path(args.graph).parent / name
    return None if _skip_existing(output, args.force) else output


def _report_head(graph_file, digest: str) -> dict:
    """The keys that open an analyze or compare report."""
    return {
        "tool": "ledgernet",
        "tool_version": __version__,
        "generated_at": _now(),
        "graph_file": str(graph_file),
        "graph_sha256": digest,
    }


def cmd_download(args) -> int:
    import signal
    import threading

    from .ingestion.checkpoint import Checkpoint
    from .ingestion.chunks import list_chunk_files
    from .ingestion.download import (DEFAULT_CHUNK_SIZE, BlockRange, RetryingProvider,
                                     RetryPolicy, TimeInterval, plan_tasks,
                                     resolve_block_range, run_download)
    from .ingestion.providers import (BitcoinApiProvider, EthereumRpcProvider,
                                      FixtureProvider, TokenBucket)
    chain = Chain(args.chain)
    chunk_size = DEFAULT_CHUNK_SIZE if args.chunk_size is None else args.chunk_size
    endpoint = _setting(args.endpoint, ENV_ENDPOINT, "endpoint", None, str)
    api_key = _setting(args.api_key, ENV_API_KEY, "api_key", None, str)
    rate_limit = _setting(args.rate_limit, ENV_RATE_LIMIT, "rate_limit",
                          DEFAULT_RATE_LIMIT if args.fixture is None else 0.0,
                          float, _rate,
                          "0 or a finite number >= 1/86400 (one request a day)")
    retry_cap = _setting(args.retry_cap, ENV_RETRY_CAP, "retry_cap", None, int,
                         lambda cap: cap >= 1, ">= 1")
    backoff_base = _setting(args.backoff_base, ENV_BACKOFF_BASE, "backoff_base",
                            RetryPolicy.base_delay, float,
                            _finite_non_negative, "a finite number >= 0")
    worker_count = _workers(args.workers) or os.cpu_count() or 1
    if chunk_size < 1:
        raise UsageError(f"--chunk-size must be >= 1, got {chunk_size}")

    by_block = args.from_block is not None or args.to_block is not None
    by_time = args.from_time is not None or args.to_time is not None
    if by_block == by_time:
        raise UsageError("give exactly one of --from-block/--to-block "
                         "or --from-time/--to-time")
    if by_block and (args.from_block is None or args.to_block is None):
        raise UsageError("--from-block and --to-block must be given together")
    if by_time and (args.from_time is None or args.to_time is None):
        raise UsageError("--from-time and --to-time must be given together")

    if args.fixture is not None:
        provider = FixtureProvider(args.fixture, chain)
    elif chain is Chain.ETHEREUM:
        if endpoint is None:
            raise UsageError("ethereum needs --endpoint (or LEDGERNET_ENDPOINT), "
                             "e.g. an Infura-style JSON-RPC URL")
        provider = EthereumRpcProvider(endpoint, api_key)
    else:
        provider = (BitcoinApiProvider() if endpoint is None
                    else BitcoinApiProvider(endpoint))
    # Set by Ctrl-C during the download: it also ends a retry's backoff wait
    stop_event = threading.Event()
    provider = RetryingProvider(
        provider, RetryPolicy(base_delay=backoff_base, max_attempts=retry_cap),
        TokenBucket(rate_limit) if rate_limit else None, stop=stop_event)

    if by_block:
        try:
            block_range = BlockRange(args.from_block, args.to_block)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        latest = provider.latest_height()
        if block_range.last > latest:
            raise UsageError(f"--to-block {block_range.last} is past the chain "
                             f"tip, block {latest}")
    else:
        try:
            interval = TimeInterval(args.from_time, args.to_time)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        block_range = resolve_block_range(interval, provider)
        print(f"interval [{args.from_time}, {args.to_time}] covers blocks "
              f"{block_range.first}..{block_range.last}")

    out_dir = Path(args.output_dir)
    chunk_dir = out_dir / "chunks"
    checkpoint_path = out_dir / "checkpoint.json"
    if args.force:
        stale = list_chunk_files(chunk_dir) if chunk_dir.is_dir() else []
        if checkpoint_path.exists() or stale:
            checkpoint_path.unlink(missing_ok=True)
            for chunk in stale:
                chunk.unlink()
            print("discarded previous checkpoint and chunk files")
    if checkpoint_path.exists():
        checkpoint = Checkpoint.load(checkpoint_path)
    else:
        checkpoint = Checkpoint(chain, block_range.first, block_range.last,
                                chunk_size)
    tasks = plan_tasks(block_range, chunk_size, checkpoint, chain=chain)
    planned = len(checkpoint.planned_firsts())
    if not tasks:
        print(f"nothing to do: all {planned} chunks are already downloaded")

    def on_sigint(signum, frame):
        if not stop_event.is_set():
            stop_event.set()
            print("interrupt received: finishing in-flight chunks, "
                  "checkpointing, then stopping", file=sys.stderr)

    previous_handler = signal.signal(signal.SIGINT, on_sigint)
    try:
        summary = run_download(
            tasks, provider, checkpoint, chunk_dir=chunk_dir,
            checkpoint_path=checkpoint_path, worker_count=worker_count,
            stop_event=stop_event)
    finally:
        signal.signal(signal.SIGINT, previous_handler)

    doc = {
        "tool": "ledgernet",
        "tool_version": __version__,
        "config": _echo(
            chain=chain.value, fixture=args.fixture, endpoint=endpoint,
            api_key=api_key, rate_limit=rate_limit, retry_cap=retry_cap,
            backoff_base=backoff_base, from_block=args.from_block,
            to_block=args.to_block, from_time=args.from_time,
            to_time=args.to_time, chunk_size=chunk_size,
            worker_count=worker_count, output_dir=str(out_dir)),
        "block_range": {"first": block_range.first, "last": block_range.last},
        "chunks_total": planned,
        "chunks_done": len(checkpoint.done),
        "chunks_completed_this_run": summary.chunks_completed,
        "blocks_fetched": summary.blocks_fetched,
        "transactions_written": summary.transactions_written,
        "interrupted": summary.interrupted,
        "request_attempts": provider.request_attempts,
        "checkpoint_saves": summary.checkpoint_saves,
        "timings_seconds": summary.timings,
    }
    write_json(out_dir / "download_summary.json", doc, indent=2)
    print(f"downloaded {summary.blocks_fetched} blocks "
          f"({summary.transactions_written} transactions) into "
          f"{summary.chunks_completed} chunks; "
          f"{len(checkpoint.done)}/{planned} chunks done")
    if summary.interrupted:
        print("download interrupted; rerun the same command to resume",
              file=sys.stderr)
        return 130
    return 0


def cmd_build(args) -> int:
    from .ingestion.checkpoint import Checkpoint
    from .ingestion.chunks import fold_chunks
    out_dir = Path(args.output_dir)
    chunk_dir = Path(args.chunks) if args.chunks else out_dir / "chunks"
    checkpoint_path = (Path(args.checkpoint) if args.checkpoint
                       else out_dir / "checkpoint.json")
    chain = Chain(args.chain) if args.chain else None
    checkpoint = None
    if checkpoint_path.exists():
        checkpoint = Checkpoint.load(checkpoint_path)
        if chain is None:
            chain = checkpoint.chain
        if not checkpoint.is_complete:
            print(f"warning: download is incomplete "
                  f"({len(checkpoint.done)}/{len(checkpoint.planned_firsts())} "
                  f"chunks); building a partial graph", file=sys.stderr)
    if chain is None:
        raise UsageError(f"no checkpoint at {checkpoint_path}; give --chain")

    targets = {}
    if args.format in (FORMAT_JSON, "both"):
        targets[FORMAT_JSON] = out_dir / "graph.json"
    if args.format in (FORMAT_PAJEK, "both"):
        targets[FORMAT_PAJEK] = out_dir / "graph.pajek"
    targets = {fmt: path for fmt, path in targets.items()
               if not _skip_existing(path, args.force)}
    if not targets:
        return 0

    start = time.perf_counter()
    graph = fold_chunks(chunk_dir, chain, checkpoint)
    edges = graph.edge_triples()  # both exports write this one sorted list
    timings = {"fold": time.perf_counter() - start}
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {}
    for fmt, path in targets.items():
        start = time.perf_counter()
        digest = export_graph(graph, path, fmt, edges)
        files[fmt] = {"file": str(path), "sha256": digest}
        timings[f"export_{fmt}"] = time.perf_counter() - start
    # Written only once every export succeeded, and listing only the files
    # this run wrote: compare trusts two files it lists to hold one graph.
    write_json(out_dir / "build_summary.json", {
        "tool": "ledgernet",
        "tool_version": __version__,
        "chain": chain.value,
        "node_count": graph.node_count,
        "edge_count": graph.edge_count,
        "graph_files": files,
        "timings_seconds": timings,
    }, indent=2)
    written = ", ".join(str(path) for path in targets.values())
    print(f"built {chain.value} graph: {graph.node_count} nodes, "
          f"{graph.edge_count} edges -> {written}")
    return 0


def cmd_analyze(args) -> int:
    from .metrics import analyze
    output = _report_path(args, "metrics.json")
    if output is None:
        return 0
    fmt = args.format or infer_format(args.graph)
    graph = import_graph(args.graph, fmt)
    report = analyze(graph, sample_sources=args.sample_sources, seed=args.seed)
    doc = _report_head(args.graph, _sha256(args.graph))
    doc["config"] = _echo(graph_format=fmt, seed=args.seed,
                          sample_sources=args.sample_sources)
    doc.update(report.to_json_dict())
    output.parent.mkdir(parents=True, exist_ok=True)
    write_json(output, doc, indent=2)
    acc = "undefined" if report.graph_acc is None else f"{report.graph_acc:.6g}"
    aspl_text = ("undefined" if report.main_component_aspl is None
                 else f"{report.main_component_aspl:.6g}")
    print(f"analyzed {args.graph}: {report.node_count} nodes, "
          f"{report.edge_count} edges, {report.components.count} components, "
          f"ACC {acc}, main-component ASPL {aspl_text} -> {output}")
    return 0


def _digest_links(graph_file, fmt: str, digest: str, doc: dict) -> bool:
    """Whether ``graph_file``, read as ``fmt``, of SHA-256 ``digest``, is the
    file the analyze report ``doc`` names, or the build summary beside it
    lists both files as written by one ``build``.  A stale or broken summary
    can only fail to link."""
    try:
        analysed = (doc["config"]["graph_format"], doc["graph_sha256"])
        if analysed == (fmt, digest):
            return True
        summary = read_json(Path(graph_file).parent / "build_summary.json")
        listed = {(kind, entry["sha256"])
                  for kind, entry in summary["graph_files"].items()}
        return {analysed, (fmt, digest)} <= listed
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return False


def _subject(args, fmt: str, digest: str) -> MetricsReport | None:
    """The subject report for ``compare``: the ``metrics.json`` beside
    ``--graph``, if this version of ``analyze`` wrote it with the same seed
    and sample_sources for a file ``_digest_links`` ties to ``--graph``;
    None otherwise, however broken that file is."""
    from .metrics import MetricsReport
    try:
        doc = read_json(Path(args.graph).parent / "metrics.json")
        config = doc["config"]
        if (doc["tool_version"] == __version__
                and config.get("seed") == args.seed
                and config.get("sample_sources") == args.sample_sources
                and _digest_links(args.graph, fmt, digest, doc)):
            return MetricsReport.from_json_dict(doc)
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        pass
    return None


def _subject_text(source) -> str:
    return "subject computed" if source == "computed" else f"subject from {source}"


def cmd_compare(args) -> int:
    from .baseline import DEFAULT_ACC_THRESHOLD, DEFAULT_ASPL_THRESHOLD, compare
    if args.samples < 1:
        raise UsageError(f"--samples must be >= 1, got {args.samples}")
    for flag, value in (("--acc-threshold", args.acc_threshold),
                        ("--aspl-threshold", args.aspl_threshold)):
        if value is not None and not math.isfinite(value):
            raise UsageError(f"{flag} must be a finite number, got {value}")
    acc_threshold = (DEFAULT_ACC_THRESHOLD if args.acc_threshold is None
                     else args.acc_threshold)
    aspl_threshold = (DEFAULT_ASPL_THRESHOLD if args.aspl_threshold is None
                      else args.aspl_threshold)
    output = _report_path(args, "comparison.json")
    if output is None:
        return 0
    fmt = args.format or infer_format(args.graph)
    digest = _sha256(args.graph)
    subject = _subject(args, fmt, digest)
    graph = import_graph(args.graph, fmt) if subject is None else None
    comparison = compare(graph, seed=args.seed, samples=args.samples,
                         acc_threshold=acc_threshold,
                         aspl_threshold=aspl_threshold,
                         sample_sources=args.sample_sources, subject=subject)
    source = "computed" if subject is None else "metrics.json"
    doc = _report_head(args.graph, digest)
    doc["config"] = _echo(graph_format=fmt, seed=args.seed, samples=args.samples,
                          acc_threshold=acc_threshold,
                          aspl_threshold=aspl_threshold,
                          sample_sources=args.sample_sources)
    doc["subject_source"] = source
    doc.update(comparison.to_json_dict())
    output.parent.mkdir(parents=True, exist_ok=True)
    write_json(output, doc, indent=2)
    verdict = comparison.verdict
    answer = "IS" if verdict.is_small_world else "is NOT"
    print(f"{args.graph} {answer} small-world: "
          f"ACC ratio {verdict.acc_ratio:.4g} "
          f"(threshold >= {verdict.acc_threshold:g}), "
          f"ASPL ratio {verdict.aspl_ratio:.4g} "
          f"(threshold <= {verdict.aspl_threshold:g}), "
          f"{_subject_text(source)} -> {output}")
    return 0


def cmd_report(args) -> int:
    from .ingestion.checkpoint import Checkpoint
    root = Path(args.dir)
    found = False

    checkpoint_path = root / "checkpoint.json"
    if checkpoint_path.exists():
        found = True
        checkpoint = Checkpoint.load(checkpoint_path)
        planned = len(checkpoint.planned_firsts())
        state = "complete" if checkpoint.is_complete else "partial"
        print(f"download: {checkpoint.chain.value} blocks "
              f"{checkpoint.first}..{checkpoint.last}, "
              f"{len(checkpoint.done)}/{planned} chunks ({state})")

    for name in ("graph.json", "graph.pajek"):
        path = root / name
        if path.exists():
            found = True
            print(f"graph: {path} ({path.stat().st_size} bytes)")

    build_path = root / "build_summary.json"
    if build_path.exists():
        found = True
        doc, files, timings = _read_report(build_path, "graph_files",
                                           "timings_seconds")
        if not all(isinstance(entry, dict) for entry in files.values()):
            raise ParseError("corrupt report: a 'graph_files' entry is not "
                             "a JSON object", path=build_path)
        written = ", ".join(str(entry.get("file")) for entry in files.values())
        seconds = ", ".join(f"{stage} {value}" for stage, value in timings.items())
        print(f"build: {doc.get('node_count')} nodes, "
              f"{doc.get('edge_count')} edges -> {written} (seconds: {seconds})")

    metrics_path = root / "metrics.json"
    if metrics_path.exists():
        found = True
        doc, components = _read_report(metrics_path, "components")
        print(f"metrics: {doc.get('node_count')} nodes, "
              f"{doc.get('edge_count')} edges, "
              f"{components.get('count')} components, "
              f"ACC {doc.get('graph_acc')}, "
              f"main-component ASPL {doc.get('main_component_aspl')}")

    comparison_path = root / "comparison.json"
    if comparison_path.exists():
        found = True
        doc, verdict = _read_report(comparison_path, "verdict")
        answer = "small-world" if verdict.get("is_small_world") else "not small-world"
        acc_ratio = ("inf" if verdict.get("acc_ratio_infinite")
                     else verdict.get("acc_ratio"))
        source = doc.get("subject_source")
        subject = "" if source is None else f", {_subject_text(source)}"
        print(f"comparison: {answer} "
              f"(ACC ratio {acc_ratio}, "
              f"ASPL ratio {verdict.get('aspl_ratio')}{subject})")

    if not found:
        print(f"no pipeline artifacts found in {root}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            parser.print_usage(sys.stderr)
            return 1
        return args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except (LedgerNetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0


if __name__ == "__main__":
    sys.exit(main())
