"""HTTP/JSON front-end for :class:`~repro.server.service.SparsifierService`.

Stdlib only (``http.server`` threading server — one thread per
connection, the service's own queue/cache do the real concurrency
control).  Endpoints:

``POST /sparsify``
    ``{"dataset": path, "alpha": 0.3, "variant": "EMD^R-t", "seed": 0,
    "h": 0.05, "priority": 20}`` → the sparsified edge list
    (``artifact`` field) plus metadata.
``POST /estimate``
    ``{"dataset": path, "query": "reliability", "samples": 200,
    "pairs": 50, "weighted": false, "seed": 0}`` → scalar estimate +
    confidence width.
``POST /grid``
    ``{"dataset": path, "alphas": [...], "h_values": [...], "k": 1,
    "relative": false, "seed": 0}`` → converged objectives per cell.
``POST /update``
    ``{"dataset": path, "updates": [[u, v, p], ...],
    "inserts": [[u, v, p], ...], "deletes": [[u, v], ...],
    "resparsify": {sparsify params}}`` → applies an edge-delta batch to
    the registered dataset, invalidates exactly the superseded digest's
    cached artifacts, repairs the dataset's backbone plan in place of a
    rebuild, and (with ``resparsify``) refreshes the artifact at
    background priority.
``POST /schedule``
    ``{"name": ..., "interval_s": ..., "params": {sparsify params}}``
    → registers a recurring re-sparsification refresh.
``GET /status`` / ``GET /metrics`` / ``GET /healthz``
    Introspection documents.

Responses are canonical JSON.  Cache state rides the ``X-Repro-Cache``
header (``hit`` / ``miss``) so cached bodies stay byte-identical to
computed ones.  Errors: 400 on bad parameters, 404 on unknown paths,
429 when admission control sheds the request, 500 on internal faults.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.exceptions import AdmissionError, ReproError
from repro.server.service import ServerConfig, SparsifierService, canonical_body

#: Request-body cap (datasets travel by path, not by value).
MAX_BODY_BYTES = 1 << 20


class ReproRequestHandler(BaseHTTPRequestHandler):
    """Maps HTTP verbs/paths onto the service; holds no state itself."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> SparsifierService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    # -- plumbing ------------------------------------------------------------
    def _send(self, status: int, body: bytes,
              extra_headers: "dict | None" = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            # Set when the request body was not (fully) read: leftover
            # body bytes on a kept-alive connection would be parsed as
            # the next request, desyncing every response after this one.
            self.send_header("Connection", "close")
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, status: int, message: str) -> None:
        self._send(status, canonical_body({"error": message}))

    def _read_json(self) -> dict:
        raw_length = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            self.close_connection = True
            raise ReproError(
                f"invalid Content-Length: {raw_length!r}"
            ) from None
        if length < 0:
            self.close_connection = True
            raise ReproError(f"invalid Content-Length: {raw_length!r}")
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise ReproError(f"request body larger than {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b""
        if len(raw) < length:
            self.close_connection = True
            raise ReproError(
                f"request body truncated: expected {length} bytes, "
                f"got {len(raw)}"
            )
        if not raw:
            return {}
        try:
            document = json.loads(raw)
        except json.JSONDecodeError as error:
            raise ReproError(f"invalid JSON body: {error}") from error
        if not isinstance(document, dict):
            raise ReproError("request body must be a JSON object")
        return document

    # -- verbs ---------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self._send(200, canonical_body({"ok": True}))
        elif path == "/status":
            self._send(200, canonical_body(self.service.status()))
        elif path == "/metrics":
            self._send(200, canonical_body(self.service.metrics()))
        else:
            self._send_error(404, f"unknown path {path!r}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0].rstrip("/")
        endpoint = path.lstrip("/")
        try:
            params = self._read_json()
            if endpoint in ("sparsify", "estimate", "grid"):
                body, hit = self.service.handle(endpoint, params)
                self._send(200, body,
                           {"X-Repro-Cache": "hit" if hit else "miss"})
            elif endpoint == "update":
                self._send(200, canonical_body(
                    self.service.update(dict(params))
                ))
            elif endpoint == "schedule":
                self._send(200, canonical_body(self._schedule(params)))
            else:
                self._send_error(404, f"unknown path {self.path!r}")
        except AdmissionError as error:
            self._send(429, canonical_body({"error": str(error)}),
                       {"Retry-After": "1"})
        except (ReproError, ValueError, KeyError, TypeError) as error:
            self._send_error(400, f"{type(error).__name__}: {error}")
        except Exception as error:  # noqa: BLE001 - last-resort 500
            self._send_error(500, f"{type(error).__name__}: {error}")

    def _schedule(self, params: dict) -> dict:
        name = str(params.get("name") or "")
        interval = float(params.get("interval_s") or 0.0)
        if not name:
            raise ReproError("schedule needs a 'name'")
        return self.service.schedule_resparsify(
            name, dict(params.get("params") or {}), interval,
            delay=params.get("delay_s"),
        )


class ReproHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server owning a :class:`SparsifierService`."""

    daemon_threads = True

    def __init__(self, config: "ServerConfig | None" = None,
                 service: "SparsifierService | None" = None) -> None:
        self.service = service or SparsifierService(config)
        self.verbose = False
        config = self.service.config
        super().__init__((config.host, config.port), ReproRequestHandler)

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` ephemeral binds)."""
        return self.server_address[1]

    def close(self) -> None:
        """Stop serving and shut the service down (idempotent)."""
        self.shutdown()
        self.server_close()
        self.service.close()

    def __enter__(self) -> "ReproHTTPServer":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False


def start_server(config: "ServerConfig | None" = None) -> ReproHTTPServer:
    """Build a server, start its scheduler and accept loop on threads.

    Returns the running server; callers own shutdown via
    :meth:`ReproHTTPServer.close` (or use it as a context manager).
    """
    server = ReproHTTPServer(config)
    server.service.scheduler.start()
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve-accept", daemon=True
    )
    thread.start()
    return server
