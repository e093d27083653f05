"""``repro sweep`` — distributed experiment execution (the fabric CLI).

Coordinator (shards the experiment, runs local workers, merges)::

    repro sweep fig2 --trials 1024 --store results.store --workers 8

Coordinator that also serves remote workers over HTTP::

    repro sweep fig2 --store results.store --workers 2 \\
        --serve --port 8078

Remote worker (any host that can reach the coordinator)::

    repro sweep --connect http://coordinator:8078 --workers 3

The merged result is bit-identical to a single-process
``repro experiment`` run; killed workers are survived via lease
expiry, and re-running the same sweep against the same store resumes
instead of recomputing (see :mod:`repro.fabric`).
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time
from pathlib import Path

from ..errors import ReproError

__all__ = ["build_sweep_parser", "sweep_main"]


def build_sweep_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description=(
            "Run an experiment sweep on the distributed fabric: a "
            "coordinator shards (cell, seed-chunk) units into a durable "
            "queue over a shared result store; workers lease, compute, "
            "and commit them.  Results are bit-identical to "
            "single-process 'repro experiment' runs."
        ),
    )
    parser.add_argument(
        "figure",
        nargs="?",
        default=None,
        metavar="FIGURE",
        help="experiment id to sweep (e.g. fig2); omit with --config "
        "or --connect",
    )
    parser.add_argument(
        "--config",
        type=Path,
        default=None,
        metavar="FILE",
        help="declarative experiment JSON instead of a figure id",
    )
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        metavar="DIR",
        help="shared result store; the sweep's queue lives in "
        "DIR/fabric/<sweep-id> (required unless --connect)",
    )
    parser.add_argument(
        "--trials", type=int, default=1024, help="trials per cell"
    )
    parser.add_argument(
        "--seed", type=int, default=2026, help="experiment root seed"
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="trials per work unit (default: min(trials, 64), one "
        "vectorized seed batch; results are invariant)",
    )
    parser.add_argument(
        "--batch",
        type=int,
        default=None,
        help="units a worker leases and group-commits per protocol "
        "round trip (default 16)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="local worker processes (default: CPU count; 0 = none — "
        "compute inline, or with --serve wait for remote workers). "
        "In --connect mode: worker threads",
    )
    parser.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        help="seconds a silent worker keeps its leases before they are "
        "re-issued (default 30)",
    )
    parser.add_argument(
        "--poll",
        type=float,
        default=0.2,
        help="idle-worker / coordinator poll interval in seconds",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="also serve /fabric/* lease endpoints for remote workers",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address for --serve"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=8078,
        help="TCP port for --serve (0 picks a free port; default 8078)",
    )
    parser.add_argument(
        "--connect",
        default=None,
        metavar="URL",
        help="run as a remote worker against a serving coordinator "
        "instead of coordinating",
    )
    parser.add_argument(
        "--worker-id",
        default=None,
        help="worker name for --connect (default: host-pid derived)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory for JSON/CSV/Markdown result files",
    )
    return parser


def _worker_main(args: argparse.Namespace) -> int:
    """Remote-worker mode: drain leases from a serving coordinator."""
    from ..fabric import DEFAULT_BATCH, HTTPTransport, worker_loop

    base = args.worker_id or f"http-{os.uname().nodename}-{os.getpid()}"
    threads_n = args.workers if args.workers and args.workers > 0 else 1
    batch = args.batch if args.batch is not None else DEFAULT_BATCH
    completed = [0] * threads_n
    errors: list[BaseException] = []

    def drain(i: int) -> None:
        transport = HTTPTransport(args.connect)
        try:
            completed[i] = worker_loop(
                transport,
                f"{base}-{i}" if threads_n > 1 else base,
                lease_ttl=args.lease_ttl,
                poll=args.poll,
                batch=batch,
            )
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [
        threading.Thread(target=drain, args=(i,), daemon=True)
        for i in range(threads_n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    print(
        f"worker {base}: completed {sum(completed)} unit(s) "
        f"on {threads_n} thread(s)"
    )
    if errors:
        print(f"error: {errors[0]}", file=sys.stderr)
        return 1
    return 0


def sweep_main(argv: list[str] | None = None) -> int:
    args = build_sweep_parser().parse_args(argv)

    if args.connect is not None:
        try:
            return _worker_main(args)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    # ------------------------------------------------------------- spec
    if (args.figure is None) == (args.config is None):
        print(
            "error: name exactly one experiment (a figure id or --config "
            "FILE), or use --connect to join a sweep as a worker",
            file=sys.stderr,
        )
        return 2
    if args.store is None:
        print(
            "error: --store DIR is required (the shared result store the "
            "sweep commits to)",
            file=sys.stderr,
        )
        return 2
    try:
        if args.config is not None:
            from ..experiments.config import load_spec

            spec = load_spec(args.config)
        else:
            from ..experiments.figures import get_figure_spec

            spec = get_figure_spec(args.figure)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from ..experiments.report import (
        render_report,
        result_markdown,
        save_csv,
        save_json,
    )
    from ..fabric import FabricCoordinator

    start = time.perf_counter()
    server = None
    server_thread = None
    service = None
    try:
        coordinator_kwargs = {}
        if args.batch is not None:
            coordinator_kwargs["batch"] = args.batch
        coordinator = FabricCoordinator(
            spec,
            trials=args.trials,
            seed=args.seed,
            chunk_size=args.chunk_size,
            store=args.store,
            lease_ttl=args.lease_ttl,
            **coordinator_kwargs,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    shard_done = time.perf_counter()
    try:
        if args.serve:
            from ..service import DeadlineAssignmentService, create_server

            service = DeadlineAssignmentService(cache_size=8)
            try:
                server = create_server(
                    args.host,
                    args.port,
                    service,
                    fabric=coordinator.endpoint(metrics=service.metrics),
                )
            except OSError as exc:
                print(
                    f"error: cannot bind {args.host}:{args.port}: {exc}",
                    file=sys.stderr,
                )
                return 1
            host, port = server.server_address[:2]
            print(
                f"fabric coordinator serving http://{host}:{port} "
                "(POST /fabric/lease|complete|heartbeat, GET /fabric/status"
                "|/metrics); join with: repro sweep --connect "
                f"http://{host}:{port}"
            )
            server_thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            server_thread.start()
        workers = args.workers
        coordinator.execute(
            workers=workers,
            poll=args.poll,
            # A serving coordinator with no local workers waits for
            # remote ones instead of computing everything itself.
            inline_fallback=not (args.serve and workers == 0),
        )
        execute_done = time.perf_counter()
        result = coordinator.merge()
        merge_done = time.perf_counter()
        report = coordinator.report(
            merge_done - start,
            phase_seconds={
                "shard": shard_done - start,
                "execute": execute_done - shard_done,
                "merge": merge_done - execute_done,
            },
        )
    except KeyboardInterrupt:
        print(
            "interrupted: sweep state is durable — re-run the same "
            "command to resume",
            file=sys.stderr,
        )
        return 130
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if server is not None:
            server.shutdown()
            server.server_close()
        if server_thread is not None:
            server_thread.join(timeout=5.0)
        if service is not None:
            service.close(timeout=5.0)
        coordinator.close()

    print(render_report(result))
    print(report.summary())
    if result.cache_stats is not None:
        # The merge restores every chunk from the shared store; its
        # stats confirm nothing was recomputed coordinator-side.
        print(
            f"merge: {result.cache_stats.hits} chunk partial(s) restored, "
            f"{result.cache_stats.misses} computed"
        )
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        save_json(result, args.out / f"{result.name}.json")
        save_csv(result, args.out / f"{result.name}.csv")
        (args.out / f"{result.name}.md").write_text(
            f"### {result.title}\n\n{result_markdown(result)}\n"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(sweep_main())
