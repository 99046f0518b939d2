"""Stdlib JSON-over-HTTP front for the inference service.

No framework, no dependencies: a ``ThreadingHTTPServer`` whose handler
translates three routes onto :class:`~repro.serve.service.InferenceService`
calls —

``POST /predict``
    Body ``{"input": [...], "model": "...", "version": "...",
    "use_cache": true}`` (model, version and use_cache optional;
    ``"inputs": [[...], ...]`` answers a list in one request).
    ``"use_cache": false`` forces real inference past the prediction
    cache (the fresh result still refreshes the cache).  Response is the
    service's prediction dict (or a list of them).
``GET /healthz``
    Liveness: status, model count, request count, uptime.
``GET /metrics``
    The full telemetry payload: latency percentiles, batch-size histogram,
    cache hit rate, per-request energy, model listing.  With
    ``?format=prometheus`` (or ``Accept: text/plain``) the same payload is
    rendered in the Prometheus text exposition format instead.
``POST /admin/...``
    Control-plane routes, available only when the injected service exposes
    ``handle_admin(path, request)`` (the cluster front end does, for
    rolling hot-swap); plain services keep a pure data-plane surface.

The handler is duck-typed over the injected service: anything with
``predict`` / ``predict_many`` / ``healthz`` / ``metrics`` works, which is
how ``repro.cluster`` reuses this file unchanged for its front-end router.
A service may raise :class:`~repro.serve.errors.Overloaded` to refuse a
request under admission control; it maps to ``503`` + ``Retry-After``.

Each HTTP connection is handled on its own thread, so concurrent clients
land in the micro-batcher together — the HTTP layer adds no serialization
of its own.

Connections are HTTP/1.1 keep-alive, which makes body accounting part of
correctness: an error response sent with request bytes still unread would
leave those bytes in front of the next request on the same connection and
desync it.  Error paths therefore either drain the unread body first
(small bodies, wrong route) or send ``Connection: close`` (oversized,
invalid or conflicting ``Content-Length``, where draining is the wrong
tool).

Keep-alive is also why accepted sockets run with Nagle's algorithm off
(``TCP_NODELAY``).  Each response leaves in two writes, head then body;
with Nagle on, the kernel holds the small body until the client ACKs the
head, and a client on a reused connection delays that ACK (up to ~40 ms
on Linux), so every response would stall by that much.  A client that
opens a connection per request ACKs at once and never sees it.
"""

from __future__ import annotations

import json
import math
import signal
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from ..obs import prom
from .errors import Overloaded

MAX_BODY_BYTES = 8 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    service = None  # injected by the server factory (InferenceService-like)
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted socket (see the module docstring).
    # wfile stays unbuffered: handle_expect_100 writes "100 Continue"
    # through it, which a buffered writer would hold until the response.
    disable_nagle_algorithm = True

    # -- plumbing --------------------------------------------------------

    def log_message(self, fmt, *args):  # quiet by default
        pass

    def _send_json(self, payload, status: int = 200, close: bool = False,
                   extra_headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        if close:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str, close: bool = False,
                         extra_headers: Optional[Dict[str, str]] = None,
                         ) -> None:
        self._send_json({"error": message}, status=status, close=close,
                        extra_headers=extra_headers)

    def _send_overloaded(self, exc: Overloaded) -> None:
        """503 + Retry-After: admission control refused the request."""
        retry_after = max(1, math.ceil(exc.retry_after_s))
        self._send_error_json(503, str(exc),
                              extra_headers={"Retry-After": str(retry_after)})

    def _content_length(self) -> int:
        """The body length the request declares, or -1 if it is unusable.

        RFC 9112 §6.3: a length that is not all ASCII digits (``int()``
        would read ``1_4`` or ``+14`` as 14), or repeated lines that
        disagree, leave the request's end unknowable.  No header means an
        empty body.
        """
        values = [v.strip(" \t")
                  for v in self.headers.get_all("Content-Length", ["0"])]
        if not all(v.isascii() and v.isdigit() for v in values):
            return -1
        try:
            lengths = {int(v) for v in values}
        except ValueError:  # more digits than int() will convert
            return -1
        return lengths.pop() if len(lengths) == 1 else -1

    def _drain_body(self, remaining: int) -> None:
        """Discard unread request body so keep-alive framing stays aligned."""
        while remaining > 0:
            chunk = self.rfile.read(min(remaining, 64 * 1024))
            if not chunk:
                break
            remaining -= len(chunk)

    # -- routes ----------------------------------------------------------

    def _send_text(self, text: str, status: int = 200) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type",
                         "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        path, _, query = self.path.partition("?")
        if path == "/healthz":
            self._send_json(self.service.healthz())
        elif path == "/metrics":
            # JSON stays the default; Prometheus text is selected by
            # ?format=prometheus or an Accept header preferring text/plain
            # (what a Prometheus scraper sends).
            accept = self.headers.get("Accept", "")
            wants_prom = ("format=prometheus" in query
                          or ("text/plain" in accept
                              and "application/json" not in accept))
            payload = self.service.metrics()
            if wants_prom:
                self._send_text(prom.render_metrics_payload(payload))
            else:
                self._send_json(payload)
        else:
            self._send_error_json(404, f"no route {self.path}")

    def do_POST(self) -> None:  # noqa: N802
        if self.headers.get("Transfer-Encoding"):
            # The stdlib handler does not decode chunked bodies, so the
            # request's end is unknowable; close to resync the connection.
            self._send_error_json(
                411, "chunked bodies unsupported; send Content-Length",
                close=True)
            return
        length = self._content_length()
        if length < 0:
            # Without a valid length this request's end is unknowable; the
            # only way to resync the connection is to drop it.
            self._send_error_json(400, "bad Content-Length", close=True)
            return
        if length > MAX_BODY_BYTES:
            # Checked before any route handling (including the 404 drain
            # below): draining would defeat the limit's point — reading
            # the very bytes it refuses — so resync by closing instead.
            self._send_error_json(413, "request body too large", close=True)
            return
        admin = getattr(self.service, "handle_admin", None)
        is_admin = self.path.startswith("/admin/") and admin is not None
        if self.path != "/predict" and not is_admin:
            self._drain_body(length)
            self._send_error_json(404, f"no route {self.path}")
            return
        # The body is fully read from here on: 400s below are keep-alive
        # safe.
        try:
            request = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, TypeError) as exc:
            self._send_error_json(400, f"bad JSON body: {exc}")
            return
        if not isinstance(request, dict):
            self._send_error_json(
                400, f"body must be a JSON object, got "
                     f"{type(request).__name__}")
            return
        if is_admin:
            # Control-plane routes (e.g. the cluster's rolling hot-swap),
            # exposed only when the service opts in via handle_admin.
            try:
                payload = admin(self.path, request)
            except KeyError as exc:
                self._send_error_json(404, str(exc.args[0]))
            except ValueError as exc:
                self._send_error_json(400, str(exc))
            except Exception as exc:
                self._send_error_json(500, f"{type(exc).__name__}: {exc}")
            else:
                self._send_json(payload)
            return
        model = request.get("model")
        version = request.get("version")
        use_cache = request.get("use_cache", True)
        if not isinstance(use_cache, bool):
            # bool("false") is True: a silently miscoerced string would
            # invert the caller's intent, so demand a real JSON boolean.
            self._send_error_json(
                400, f'"use_cache" must be a JSON boolean, got '
                     f'{use_cache!r}')
            return
        try:
            if "inputs" in request:
                payload = self.service.predict_many(
                    request["inputs"], model=model, version=version,
                    use_cache=use_cache)
            elif "input" in request:
                payload = self.service.predict(request["input"], model=model,
                                               version=version,
                                               use_cache=use_cache)
            else:
                self._send_error_json(
                    400, 'body needs "input" (one sample) or "inputs" '
                         '(a list of samples)')
                return
        except Overloaded as exc:  # admission control refused
            self._send_overloaded(exc)
            return
        except KeyError as exc:  # unknown model/version
            self._send_error_json(404, str(exc.args[0]))
            return
        except Exception as exc:  # model raised / shapes wrong / shut down
            self._send_error_json(500, f"{type(exc).__name__}: {exc}")
            return
        self._send_json(payload)


class _Server(ThreadingHTTPServer):
    """ThreadingHTTPServer with explicit rebind semantics.

    ``SO_REUSEADDR`` is always set (``allow_reuse_address``), so a restart
    never trips over the previous instance's TIME_WAIT socket.
    ``SO_REUSEPORT`` is opt-in: several processes may then bind the same
    port and let the kernel spread accepted connections across them — the
    multi-process alternative to a userspace router, and what a
    ``repro.cluster`` front end can hide behind on platforms that have it.
    """

    allow_reuse_address = True
    reuse_port = False  # overridden per-instance before bind via subclassing
    # socketserver's default listen backlog is 5; clients that open a
    # connection per request (urllib, curl) overflow it under modest
    # concurrency, and every dropped SYN costs a full 1 s retransmit —
    # which shows up as a mysterious ~1000 ms p99 and occasional resets.
    request_queue_size = 128

    def server_bind(self):
        if self.reuse_port:
            if not hasattr(socket, "SO_REUSEPORT"):
                raise OSError("SO_REUSEPORT is not supported on this "
                              "platform")
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()


class InferenceHTTPServer:
    """Owns the listening socket and its serve thread.

    ``port=0`` binds an ephemeral port — the actually bound one is in
    ``.port`` (and ``.url``) as soon as the constructor returns, which is
    what the tests, the cluster front end, and the load harness use so they
    never race on fixed port numbers.  ``reuse_port=True`` additionally
    sets ``SO_REUSEPORT`` before binding (Linux/BSD; raises ``OSError``
    where unsupported).
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 8100,
                 reuse_port: bool = False):
        handler = type("BoundHandler", (_Handler,), {"service": service})
        server_cls = type("BoundServer", (_Server,),
                          {"reuse_port": bool(reuse_port)})
        self.service = service
        self._httpd = server_cls((host, port), handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def port(self) -> int:
        return self.address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "InferenceHTTPServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="serve-http", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting connections; the service itself is left running."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def serve_until_signal(self, signals: Tuple[int, ...] = (
            signal.SIGINT, signal.SIGTERM)) -> Optional[int]:
        """Foreground mode for the CLI: block until one of ``signals``.

        Installs handlers for the given signals (previous handlers are
        restored on exit), serves until one arrives, then stops accepting
        connections and returns the signal number received — so the caller
        can drain the service and report the drained bool instead of dying
        mid-batch on SIGTERM the way the default handler would.

        Must be called from the main thread (CPython delivers signals
        there).  The HTTP server itself runs on a background thread; the
        main thread only waits, so handlers fire promptly.
        """
        stop = threading.Event()
        received: Dict[str, int] = {}

        def on_signal(signum, frame):
            del frame
            received.setdefault("signum", signum)
            stop.set()

        previous = {s: signal.signal(s, on_signal) for s in signals}
        if self._thread is None:
            self.start()
        try:
            # wait() without a timeout blocks in C and can starve signal
            # delivery on some platforms; a coarse polling loop keeps the
            # main thread interruptible everywhere.
            while not stop.is_set():
                stop.wait(0.2)
        except KeyboardInterrupt:  # SIGINT not in `signals`
            received.setdefault("signum", int(signal.SIGINT))
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
            self.stop()
        return received.get("signum")

    def serve_until_interrupt(self) -> None:
        """Backward-compatible foreground mode: Ctrl-C/SIGTERM stop cleanly."""
        self.serve_until_signal()
