"""Command-line entry point: figures (default) and the online service.

Two subcommands share one ``repro`` entry point:

* ``figures`` (the default when the first argument is not a subcommand
  name, so every historical invocation keeps working)::

      repro-figures --list
      repro-figures fig2 --trials 256 --jobs 8
      python -m repro --all --trials 1024 --out results/
      python -m repro figures fig3 fig4

* ``serve`` — run the online deadline-assignment HTTP service::

      python -m repro serve --port 8077
      curl -s localhost:8077/healthz

Each figures run prints the success-ratio table and an ASCII chart,
and — when ``--out`` is given — writes ``<figure>.json``,
``<figure>.csv`` and ``<figure>.md`` into the output directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..errors import ReproError
from ..experiments.figures import FIGURES, get_figure_spec
from ..experiments.report import (
    render_report,
    result_markdown,
    save_csv,
    save_json,
)
from ..experiments.runner import run_experiment

__all__ = [
    "main",
    "build_parser",
    "build_serve_parser",
    "figures_main",
    "serve_main",
]

#: First-argument tokens routed to a dedicated subcommand parser.
#: ``experiment`` is an alias of ``figures`` — the subcommand runs any
#: experiment (declarative --config documents included), not only the
#: paper's figures.
SUBCOMMANDS = ("figures", "experiment", "serve", "sweep", "store")


def build_parser() -> argparse.ArgumentParser:
    """The ``figures`` subcommand parser (also the historical CLI)."""
    parser = argparse.ArgumentParser(
        prog="repro-figures",
        description=(
            "Reproduce the evaluation figures of 'A Robust Adaptive "
            "Metric for Deadline Assignment in Heterogeneous Distributed "
            "Real-Time Systems' (Jonsson, IPPS 1999)."
        ),
        epilog=(
            "Subcommands: 'figures' (this, the default), 'serve' (online "
            "deadline-assignment HTTP service), 'sweep' (distributed "
            "multi-worker experiment execution) and 'store' (result-store "
            "inspection/repair); see 'python -m repro <cmd> --help'."
        ),
    )
    parser.add_argument(
        "figures",
        nargs="*",
        metavar="FIGURE",
        help=f"experiment ids to run (available: {', '.join(sorted(FIGURES))})",
    )
    parser.add_argument(
        "--all", action="store_true", help="run every registered experiment"
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiments and exit"
    )
    parser.add_argument(
        "--config",
        type=Path,
        action="append",
        default=[],
        metavar="FILE",
        help="run a declarative experiment from a JSON document "
        "(repeatable; see repro.experiments.config)",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=1024,
        help="trials per cell (paper: 1024 task graphs; default 1024)",
    )
    parser.add_argument(
        "--seed", type=int, default=2026, help="experiment root seed"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: CPU count; 1 = serial)",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=32,
        help="trials per worker unit (default 32; results are invariant)",
    )
    parser.add_argument(
        "--cache",
        type=Path,
        default=None,
        metavar="DIR",
        help="persistent result store: completed (cell, seed-chunk) "
        "partials are restored instead of recomputed, so warm re-runs, "
        "resumed sweeps and added series skip finished work (results "
        "are bit-identical to uncached runs)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory for JSON/CSV/Markdown result files",
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help="after running, fold every result in --out into REPORT.md",
    )
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    """The ``serve`` subcommand parser."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Run the online deadline-assignment service: POST /assign "
            "(slices + optional admission verdict), GET /healthz, "
            "GET /metrics (Prometheus text)."
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8077,
        help="TCP port (0 picks a free port; default 8077)",
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        help="LRU budget for cached assignments (default 1024)",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="persist computed assignments to a result store in DIR; a "
        "restarted service pointed at the same directory starts warm",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=8,
        help="largest micro-batch handed to the worker pool (default 8)",
    )
    parser.add_argument(
        "--batch-wait",
        type=float,
        default=0.002,
        help="max seconds a batch waits for more requests (default 0.002)",
    )
    # Imported lazily everywhere else, but the parser default must be
    # computed at build time so --help shows the real value.
    from ..service.pool import default_workers

    parser.add_argument(
        "--workers",
        type=int,
        default=default_workers(),
        help="worker processes serving assignments (default "
        "min(cpu_count, 4)); 1 computes in the server process",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=4,
        help="micro-batcher threads per worker process (default 4)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=0,
        help="bound on in-flight computations before requests are shed "
        "with 429 (0 = unbounded, the default)",
    )
    parser.add_argument(
        "--retry-after",
        type=int,
        default=1,
        help="Retry-After seconds advertised on 429 responses (default 1)",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=5.0,
        help="seconds to wait for in-flight requests on shutdown before "
        "failing them (default 5.0)",
    )
    return parser


def serve_main(argv: list[str] | None = None) -> int:
    """Entry point of ``repro serve``.

    One stdlib threading HTTP server over one backend: ``--workers 1``
    computes in-process, ``--workers N`` hands request bodies to N
    pre-forked assignment worker processes.  Service knobs are
    validated up front in either case, so a bad ``--cache-size`` fails
    fast instead of inside a spawned worker.
    """
    args = build_serve_parser().parse_args(argv)
    from ..service import DeadlineAssignmentService, WorkerPool, create_server

    if args.workers < 1:
        print(
            f"error: --workers must be at least 1, got {args.workers}",
            file=sys.stderr,
        )
        return 2
    max_queue = args.max_queue if args.max_queue > 0 else None
    try:
        backend = DeadlineAssignmentService(
            cache_size=args.cache_size,
            batch_size=args.batch_size,
            batch_wait=args.batch_wait,
            workers=args.threads,
            max_queue=max_queue,
            cache_dir=args.cache_dir,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workers > 1:
        backend.close()
        backend = WorkerPool(
            args.workers,
            cache_size=args.cache_size,
            batch_size=args.batch_size,
            batch_wait=args.batch_wait,
            threads=args.threads,
            max_queue=max_queue,
            cache_dir=args.cache_dir,
        )
    try:
        server = create_server(
            args.host, args.port, backend, retry_after=args.retry_after
        )
    except OSError as exc:
        print(
            f"error: cannot bind {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        backend.close()
        return 1
    topology = ""
    if args.workers > 1:
        topology = f"{args.workers} worker processes; "
        try:
            backend.start()
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            server.server_close()
            return 1
    host, port = server.server_address[:2]
    print(
        f"repro deadline-assignment service on http://{host}:{port} "
        f"({topology}POST /assign, GET /healthz, GET /metrics; "
        "Ctrl-C to stop)"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        pass
    finally:
        server.server_close()
        backend.close(timeout=args.drain_timeout)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Dispatch to a subcommand; bare arguments run ``figures``."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "sweep":
        from .sweep_tool import sweep_main

        return sweep_main(argv[1:])
    if argv and argv[0] == "store":
        from .store_tool import store_main

        return store_main(argv[1:])
    if argv and argv[0] in ("figures", "experiment"):
        argv = argv[1:]
    return figures_main(argv)


def _cache_summary(stats) -> str:
    """One-line result-store summary printed under each experiment report.

    Surfaces reuse without making anyone read JSON: how many chunk
    partials were restored vs. computed this run, and the store's
    resulting size.
    """
    return (
        f"cache: {stats.hits} restored / {stats.misses} computed "
        f"chunk partials ({stats.hit_rate:.0%} hit rate), "
        f"{stats.appends} appended; store now {stats.records} records, "
        f"{stats.bytes / 1024:.1f} KiB"
    )


def figures_main(argv: list[str] | None = None) -> int:
    """Entry point of the ``figures`` subcommand."""
    args = build_parser().parse_args(argv)

    if args.list:
        for name in sorted(FIGURES):
            spec = get_figure_spec(name)
            print(f"{name:10s} {spec.title} ({spec.paper_reference})")
        return 0

    names: list[object] = list(
        sorted(FIGURES) if args.all else args.figures
    )
    names.extend(args.config)
    if not names:
        print(
            "nothing to do: name experiments, use --config, or --all / --list",
            file=sys.stderr,
        )
        return 2

    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)

    store = None
    if args.cache is not None:
        from ..store import TrialStore

        try:
            store = TrialStore(args.cache)
        except ReproError as exc:
            print(f"error opening cache {args.cache}: {exc}", file=sys.stderr)
            return 2

    status = 0
    for name in names:
        try:
            if isinstance(name, Path):
                from ..experiments.config import load_spec

                spec = load_spec(name)
                name = spec.name
            else:
                spec = get_figure_spec(name)
            result = run_experiment(
                spec,
                trials=args.trials,
                seed=args.seed,
                jobs=args.jobs,
                chunk_size=args.chunk_size,
                cache=store,
            )
        except ReproError as exc:
            print(f"error running {name!r}: {exc}", file=sys.stderr)
            status = 1
            continue
        print(render_report(result))
        if result.cache_stats is not None:
            print(_cache_summary(result.cache_stats))
        print()
        if args.out is not None:
            save_json(result, args.out / f"{name}.json")
            save_csv(result, args.out / f"{name}.csv")
            (args.out / f"{name}.md").write_text(
                f"### {result.title}\n\n{result_markdown(result)}\n"
            )
    if store is not None:
        store.close()

    if args.report:
        if args.out is None:
            print("--report requires --out", file=sys.stderr)
            return 2
        from ..experiments.reportcard import build_report

        try:
            report = build_report(args.out)
        except ReproError as exc:
            print(f"error building report: {exc}", file=sys.stderr)
            return 1
        (args.out / "REPORT.md").write_text(report + "\n")
        print(f"wrote combined report to {args.out / 'REPORT.md'}")
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
