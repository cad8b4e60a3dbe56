"""Stdlib JSON-over-HTTP front end for a :class:`ScoringEngine`.

A :class:`ModelServer` wraps :class:`http.server.ThreadingHTTPServer`
(one thread per connection, no third-party dependencies) and exposes

``POST /score``
    Body ``{"pairs": [[u, v], ...], "cache": true?,
    "fingerprint": "sha256:..."?}`` →
    ``{"scores": [...], "count": k, "latency_ms": ...}``.  Concurrent
    requests are micro-batched through the engine's coalescing path.
    An optional ``fingerprint`` pins the graph the caller's ids refer
    to; a mismatch with the served artifact answers 400
    (``bad_request``) instead of silently scoring the wrong ties.
``POST /discover``
    Body ``{"pairs": [[u, v], ...], "fingerprint": ...?}`` →
    ``{"directions": [[source, target], ...], "count": k}`` (Eq. 28 on
    each undirected pair).
``GET /healthz``
    Liveness + model identity:
    ``{"status": "ok", "model": ..., "n_nodes": ..., "n_ties": ...,
    "uptime_s": ...}``.
``GET /metrics``
    The engine's full metrics snapshot (counters, cache stats, latency
    histograms) as JSON — or, with ``?format=prometheus``, the standard
    Prometheus text exposition (``# TYPE``/``_bucket``/``_sum``/
    ``_count``) ready for a scrape job.

Observability (see ``docs/observability.md``):

* Every request gets a **request id** — the inbound ``X-Request-Id``
  header when present, else a fresh 16-hex id — echoed back as an
  ``X-Request-Id`` response header, stamped on the ``serve.request``
  trace span, included in error bodies, and written to the structured
  access log.  One id therefore joins the client's view, the access
  log, and the Perfetto timeline.
* Failures increment an **error taxonomy**:
  ``serve.errors.bad_request`` (malformed body/shape, wrong method,
  oversized body, pinned graph fingerprint mismatch),
  ``serve.errors.not_found`` (unknown path),
  ``serve.errors.engine`` (the scoring engine rejected the pairs, e.g.
  an unknown tie), ``serve.errors.internal`` (unexpected exceptions,
  answered 500).  Error bodies are structured JSON:
  ``{"error": ..., "code": ..., "request_id": ...}``.
* Per-endpoint latency histograms land in the shared registry as
  ``serve.http.<endpoint>.latency_ms``.

Endpoint schemas are documented in ``docs/serving.md``.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import nullcontext
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any
from urllib.parse import parse_qs, urlsplit

import numpy as np

from ..obs import (
    AccessLog,
    PROMETHEUS_CONTENT_TYPE,
    Tracer,
    new_request_id,
    render_prometheus,
    span,
    use_tracer,
)
from .engine import ScoringEngine
from .errors import GraphMismatchError

#: Schema tag included in every JSON response.
SERVE_SCHEMA = "repro_serve/v1"

#: Reject request bodies beyond this many bytes (64 MiB ~ 2M pairs).
MAX_BODY_BYTES = 64 * 2**20

#: Error-taxonomy codes (each has a ``serve.errors.<code>`` counter).
ERROR_CODES = ("bad_request", "not_found", "engine", "internal")

#: Route table: path → allowed methods.  Unknown paths answer 404;
#: known paths with the wrong method answer 405 (+ ``Allow`` header).
ROUTES: dict[str, tuple[str, ...]] = {
    "/score": ("POST",),
    "/discover": ("POST",),
    "/healthz": ("GET",),
    "/metrics": ("GET",),
}


class _ApiError(Exception):
    """Client-visible failure carrying HTTP status + taxonomy code."""

    def __init__(
        self,
        message: str,
        status: int = 400,
        code: str = "bad_request",
        allow: str | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.allow = allow


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Buffer the response: ``handle_one_request`` flushes headers and
    # body as one write after ``_dispatch`` returns, so a request's
    # access-log record is written before the client can read the
    # response and send its next request.  A body larger than the
    # buffer (8 KiB) still streams out before the record.
    wbufsize = -1
    # Headers and body that do not fit one write still go out as two;
    # with Nagle on, the second waits for the client's delayed ACK of
    # the first (~40 ms).
    disable_nagle_algorithm = True

    # -- plumbing -------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        # The structured access log replaces the default one-line-per-
        # request stderr spam; --verbose restores the stdlib lines.
        if self.server.verbose:  # pragma: no cover - log cosmetics
            super().log_message(format, *args)

    def handle_expect_100(self) -> bool:
        # The interim 100 Continue must reach the client before it
        # sends the body, not sit in the response buffer.
        ok = super().handle_expect_100()
        self.wfile.flush()
        return ok

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str,
        request_id: str,
        allow: str | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-Id", request_id)
        if allow is not None:
            self.send_header("Allow", allow)
        self.end_headers()
        self.wfile.write(body)

    def _respond(
        self, status: int, payload: dict[str, Any], request_id: str
    ) -> None:
        with span("serve.encode"):
            payload = {"schema": SERVE_SCHEMA, **payload}
            body = json.dumps(payload).encode("utf-8")
        self._send(status, body, "application/json", request_id)

    def _respond_error(self, exc: _ApiError, request_id: str) -> None:
        self.server.engine.metrics.counter(
            f"serve.errors.{exc.code}"
        ).inc()
        payload = {
            "schema": SERVE_SCHEMA,
            "error": str(exc),
            "code": exc.code,
            "request_id": request_id,
        }
        body = json.dumps(payload).encode("utf-8")
        self._send(
            exc.status, body, "application/json", request_id,
            allow=exc.allow,
        )

    def _read_pairs(self) -> tuple[np.ndarray, dict[str, Any]]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise _ApiError("request body with a JSON object is required")
        if length > MAX_BODY_BYTES:
            raise _ApiError(
                f"request body exceeds {MAX_BODY_BYTES} bytes", status=413
            )
        try:
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _ApiError(f"body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict) or "pairs" not in payload:
            raise _ApiError('body must be an object with a "pairs" key')
        try:
            pairs = np.asarray(payload["pairs"], dtype=np.int64)
            if pairs.size == 0:
                pairs = pairs.reshape(0, 2)
            if pairs.ndim != 2 or pairs.shape[1] != 2:
                raise ValueError(f"got shape {pairs.shape}")
        except (TypeError, ValueError, OverflowError) as exc:
            raise _ApiError(
                f'"pairs" must be a list of [u, v] integer pairs ({exc})'
            ) from exc
        if not isinstance(payload.get("fingerprint"), (str, type(None))):
            raise _ApiError(
                '"fingerprint" must be a string graph digest when present'
            )
        return pairs, payload

    # -- dispatch -------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    def do_PUT(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("PUT")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        engine: ScoringEngine = self.server.engine
        request_id = (
            self.headers.get("X-Request-Id") or new_request_id()
        ).strip()[:64]
        split = urlsplit(self.path)
        path, query = split.path, parse_qs(split.query)
        start = time.perf_counter()
        status = 500
        log_fields: dict[str, Any] = {}

        tracer: Tracer | None = self.server.tracer
        # Handler threads start with an empty contextvars context, so
        # the server's tracer is installed explicitly per request.
        scope = use_tracer(tracer) if tracer is not None else nullcontext()
        with scope:
            with span(
                "serve.request",
                request_id=request_id,
                method=method,
                path=path,
            ) as sp:
                try:
                    allowed = ROUTES.get(path)
                    if allowed is None:
                        raise _ApiError(
                            f"unknown path {path!r}",
                            status=404,
                            code="not_found",
                        )
                    if method not in allowed:
                        raise _ApiError(
                            f"{method} is not allowed on {path} "
                            f"(allowed: {', '.join(allowed)})",
                            status=405,
                            code="bad_request",
                            allow=", ".join(allowed),
                        )
                    handler = getattr(self, f"_route{path.replace('/', '_')}")
                    status = handler(
                        engine, query, request_id, start, log_fields
                    )
                except _ApiError as exc:
                    status = exc.status
                    log_fields["error"] = exc.code
                    self._respond_error(exc, request_id)
                except GraphMismatchError as exc:
                    # Before the generic ValueError branch: a pinned-
                    # but-wrong graph is the *client's* request being
                    # unanswerable here, not an engine rejection.
                    status = 400
                    log_fields["error"] = "bad_request"
                    self._respond_error(
                        _ApiError(str(exc), status=400, code="bad_request"),
                        request_id,
                    )
                except KeyError as exc:
                    # The engine rejected a pair (no such oriented tie).
                    status = 404
                    log_fields["error"] = "engine"
                    self._respond_error(
                        _ApiError(
                            str(exc.args[0]) if exc.args else "unknown tie",
                            status=404,
                            code="engine",
                        ),
                        request_id,
                    )
                except ValueError as exc:
                    status = 400
                    log_fields["error"] = "engine"
                    self._respond_error(
                        _ApiError(str(exc), status=400, code="engine"),
                        request_id,
                    )
                except (BrokenPipeError, ConnectionResetError):
                    # The client went away mid-response (load generators
                    # hitting their deadline do this); nothing to send.
                    status = 499
                    log_fields["error"] = "disconnect"
                    engine.metrics.counter("serve.disconnects").inc()
                except Exception as exc:  # noqa: BLE001 - last resort
                    status = 500
                    log_fields["error"] = "internal"
                    try:
                        self._respond_error(
                            _ApiError(
                                f"internal error: {type(exc).__name__}: "
                                f"{exc}",
                                status=500,
                                code="internal",
                            ),
                            request_id,
                        )
                    except OSError:  # pragma: no cover - socket gone
                        pass
                finally:
                    sp.set(status=status)

        latency_ms = (time.perf_counter() - start) * 1e3
        if path in ROUTES:
            endpoint = path.strip("/")
            engine.metrics.histogram(
                f"serve.http.{endpoint}.latency_ms"
            ).observe(latency_ms)
        access_log: AccessLog | None = self.server.access_log
        if access_log is not None:
            access_log.log(
                request_id=request_id,
                method=method,
                path=path,
                status=status,
                latency_ms=round(latency_ms, 3),
                **log_fields,
            )

    # -- endpoints ------------------------------------------------------

    def _route_score(
        self,
        engine: ScoringEngine,
        query: dict[str, list[str]],
        request_id: str,
        start: float,
        log_fields: dict[str, Any],
    ) -> int:
        with span("serve.parse"):
            pairs, payload = self._read_pairs()
        fingerprint = payload.get("fingerprint")
        info: dict[str, Any] = {}
        if payload.get("cache", True):
            scores = engine.score_pairs_coalesced(
                pairs, info=info, fingerprint=fingerprint
            )
        else:
            scores = engine.score_pairs(
                pairs, use_cache=False, info=info, fingerprint=fingerprint
            )
        log_fields["n_pairs"] = int(len(pairs))
        log_fields.update(
            (k, v) for k, v in info.items() if not k.startswith("_")
        )
        self._respond(
            200,
            {
                "scores": scores.tolist(),
                "count": int(len(scores)),
                "latency_ms": round((time.perf_counter() - start) * 1e3, 3),
            },
            request_id,
        )
        return 200

    def _route_discover(
        self,
        engine: ScoringEngine,
        query: dict[str, list[str]],
        request_id: str,
        start: float,
        log_fields: dict[str, Any],
    ) -> int:
        with span("serve.parse"):
            pairs, payload = self._read_pairs()
        directions = engine.discover_pairs(
            pairs, fingerprint=payload.get("fingerprint")
        )
        log_fields["n_pairs"] = int(len(pairs))
        self._respond(
            200,
            {
                "directions": directions.tolist(),
                "count": int(len(directions)),
                "latency_ms": round((time.perf_counter() - start) * 1e3, 3),
            },
            request_id,
        )
        return 200

    def _route_healthz(
        self,
        engine: ScoringEngine,
        query: dict[str, list[str]],
        request_id: str,
        start: float,
        log_fields: dict[str, Any],
    ) -> int:
        self._respond(
            200,
            {
                "status": "ok",
                "model": type(engine.model).__name__,
                "fingerprint": engine.fingerprint,
                "n_nodes": int(engine.network.n_nodes),
                "n_ties": int(engine.network.n_ties),
                "uptime_s": round(time.time() - engine.started_at, 3),
                "requests": engine.metrics.counter("serve.requests").value,
            },
            request_id,
        )
        return 200

    def _route_metrics(
        self,
        engine: ScoringEngine,
        query: dict[str, list[str]],
        request_id: str,
        start: float,
        log_fields: dict[str, Any],
    ) -> int:
        fmt = (query.get("format") or ["json"])[0]
        if fmt == "prometheus":
            text = render_prometheus(engine.metrics, namespace="repro")
            self._send(
                200,
                text.encode("utf-8"),
                PROMETHEUS_CONTENT_TYPE,
                request_id,
            )
        elif fmt == "json":
            self._respond(200, {"metrics": engine.snapshot()}, request_id)
        else:
            raise _ApiError(
                f"unknown metrics format {fmt!r} "
                "(expected 'json' or 'prometheus')"
            )
        return 200


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    # Attributes attached by ModelServer before the first request.
    engine: ScoringEngine
    verbose: bool
    tracer: Tracer | None
    access_log: AccessLog | None

    def handle_error(self, request, client_address):  # noqa: D102
        import sys

        exc = sys.exc_info()[1]
        if isinstance(exc, (BrokenPipeError, ConnectionResetError)):
            # Abandoned connections are routine under load; count them
            # instead of dumping a traceback per socket.
            engine = getattr(self, "engine", None)
            if engine is not None:
                engine.metrics.counter("serve.disconnects").inc()
            return
        if getattr(self, "verbose", True):  # pragma: no cover
            super().handle_error(request, client_address)


class ModelServer:
    """A threaded HTTP server around one :class:`ScoringEngine`.

    >>> from repro.serve import ModelServer  # doctest: +SKIP
    >>> server = ModelServer(engine, port=0)  # doctest: +SKIP
    >>> with server:                          # doctest: +SKIP
    ...     print(server.url)

    Parameters
    ----------
    engine:
        The scoring engine to expose.
    host, port:
        Bind address; ``port=0`` picks a free ephemeral port (the bound
        port is available as :attr:`port` / :attr:`url`).
    verbose:
        Log one line per request to stderr (off by default; the
        structured ``access_log`` is the supported request log).
    access_log:
        ``None`` (default), a path to write a JSONL access log to, or
        an :class:`~repro.obs.AccessLog` instance to share.  Paths are
        opened lazily and closed on :meth:`shutdown`.
    tracer:
        Optional :class:`~repro.obs.Tracer`; when given, every request
        records a ``serve.request`` span tagged with its request id
        (handler threads cannot inherit the CLI's context-local tracer,
        so it is passed explicitly).
    """

    def __init__(
        self,
        engine: ScoringEngine,
        host: str = "127.0.0.1",
        port: int = 8000,
        verbose: bool = False,
        access_log: AccessLog | str | Path | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.engine = engine
        self._owns_access_log = isinstance(access_log, (str, Path))
        if self._owns_access_log:
            access_log = AccessLog(access_log)
        self.access_log: AccessLog | None = access_log
        self._httpd = _Server((host, port), _Handler)
        self._httpd.engine = engine
        self._httpd.verbose = verbose
        self._httpd.tracer = tracer
        self._httpd.access_log = self.access_log
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The actually-bound port (resolves ``port=0`` requests)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ModelServer":
        """Serve on a daemon thread; returns immediately."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-serve",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        self._httpd.serve_forever()

    def shutdown(self) -> None:
        """Stop serving and release the socket (and owned access log)."""
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()
        if self._owns_access_log and self.access_log is not None:
            self.access_log.close()

    def __enter__(self) -> "ModelServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.shutdown()
