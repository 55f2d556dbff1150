"""``repro-serve`` — run the sparsification job server.

Examples
--------
Serve the current directory's datasets on the default port::

    repro-serve --port 8765

Ephemeral port (the chosen port is printed on the first line, which is
what the CI smoke driver parses), 4 job worker threads::

    repro-serve --port 0 --workers 4

Also reachable as ``python -m repro.server`` and as the ``serve``
subcommand of ``repro-sparsify``.
"""

from __future__ import annotations

import argparse

from repro.server.api import start_server
from repro.server.service import ServerConfig


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the server options (shared with ``repro-sparsify serve``)."""
    defaults = ServerConfig()
    parser.add_argument("--host", default=defaults.host,
                        help=f"bind address (default {defaults.host})")
    parser.add_argument("--port", type=int, default=defaults.port,
                        help=f"bind port; 0 picks an ephemeral port "
                        f"(default {defaults.port})")
    parser.add_argument("--queue-depth", type=int,
                        default=defaults.queue_depth,
                        help="admission-control bound on pending jobs; "
                        "submissions beyond it get 429 "
                        f"(default {defaults.queue_depth})")
    parser.add_argument("--cache-size", type=int,
                        default=defaults.cache_capacity,
                        help="artifact LRU capacity "
                        f"(default {defaults.cache_capacity})")
    parser.add_argument("--workers", type=int, default=defaults.workers,
                        help="job worker threads "
                        f"(default {defaults.workers})")
    parser.add_argument("--datasets-root", default=None,
                        help="confine dataset paths to this directory "
                        "(default: any readable path)")
    parser.add_argument("--cache-spill-dir", default=None,
                        help="directory for the artifact disk-spill tier; "
                        "evicted artifacts are kept there and digest-"
                        "verified on reload (default: disabled)")
    parser.add_argument("--cache-spill-mb", type=int,
                        default=defaults.cache_spill_mb,
                        help="byte budget of the spill tier in MiB "
                        f"(default {defaults.cache_spill_mb})")
    parser.add_argument("--request-timeout", type=float,
                        default=defaults.request_timeout,
                        help="seconds a request waits on its job "
                        f"(default {defaults.request_timeout:g})")
    parser.add_argument("--verbose", action="store_true",
                        help="log each request to stderr")


def config_from_args(args: argparse.Namespace) -> ServerConfig:
    return ServerConfig(
        host=args.host,
        port=args.port,
        queue_depth=args.queue_depth,
        cache_capacity=args.cache_size,
        workers=args.workers,
        datasets_root=args.datasets_root,
        request_timeout=args.request_timeout,
        cache_spill_dir=args.cache_spill_dir,
        cache_spill_mb=args.cache_spill_mb,
    )


def run_from_args(args: argparse.Namespace) -> int:
    """Start the server and block until interrupted."""
    server = start_server(config_from_args(args))
    server.verbose = args.verbose
    host, port = server.server_address[0], server.port
    print(f"repro-serve listening on http://{host}:{port}", flush=True)
    try:
        # serve_forever runs on a daemon thread; park the main thread so
        # Ctrl-C lands here and shutdown routes through close().
        import threading

        threading.Event().wait()
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        server.close()
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Sparsification-as-a-service job server "
        "(Parchas et al. reproduction)",
    )
    configure_parser(parser)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
