"""Stdlib HTTP/JSON transport for the planner service.

A thin :class:`http.server.ThreadingHTTPServer` front end over
:class:`repro.service.planner.PlannerService` -- every concern beyond
"decode JSON, dispatch, encode JSON" (dedup, sweeps, telemetry) lives in
the planner, so tests exercise the logic without sockets and this
module stays boring.  Endpoints:

====================  =====================================================
``GET /v1/healthz``   Liveness: status, uptime, cache entry count.
``GET /v1/stats``     Request telemetry + cache hit/miss split + sweeps.
``GET /v1/sweeps``    Background sweeps launched by this process.
``POST /v1/plan``     Resolve a workload to ranked plans (coalescing).
``POST /v1/sweep``    Launch a background neighbourhood pre-fill.
====================  =====================================================

Errors are JSON too: a malformed or unresolvable request gets ``400``
with the validator's message, unknown paths ``404``, wrong methods
``405``.  A response that leaves a declared request body unread closes
the connection, so the body is never parsed as the next request, and
says so with ``Connection: close``.  The server is threaded with daemon
handler threads, so slow plan evaluations never block health checks and
Ctrl-C exits promptly.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.service.planner import PlannerService

__all__ = ["PlannerAPIHandler", "PlannerServer", "create_server"]

#: Largest request body the server will read, to bound a hostile or
#: buggy client (a plan request is a few hundred bytes).
_MAX_BODY_BYTES = 1 << 20


class PlannerServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the shared :class:`PlannerService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service: PlannerService) -> None:
        super().__init__(address, PlannerAPIHandler)
        self.service = service


class PlannerAPIHandler(BaseHTTPRequestHandler):
    """Route table and JSON encode/decode for :class:`PlannerServer`."""

    server: PlannerServer
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on every accepted socket.  Headers and body leave as
    #: two sends; with Nagle's algorithm on, the body of a response on a
    #: kept-alive connection waits for the client's delayed ACK of the
    #: headers (~40 ms on Linux).
    disable_nagle_algorithm = True
    #: Routes as ``(method, path) -> handler-method name``.
    ROUTES = {
        ("GET", "/v1/healthz"): "_handle_healthz",
        ("GET", "/v1/stats"): "_handle_stats",
        ("GET", "/v1/sweeps"): "_handle_sweeps",
        ("POST", "/v1/plan"): "_handle_plan",
        ("POST", "/v1/sweep"): "_handle_sweep",
    }

    # -- plumbing ---------------------------------------------------------

    @property
    def service(self) -> PlannerService:
        return self.server.service

    def log_message(self, format: str, *args: Any) -> None:
        # Quiet by default; telemetry (not stderr) is the access record.
        pass

    def _send_json(self, status: int, payload: Any) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:  # tell a keep-alive client to reconnect
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self.service.telemetry.record_error()
        self._send_json(status, {"error": message})

    def _close_if_body_declared(self) -> None:
        """Close after this response if the request declared a body.

        Only handlers that call :meth:`_read_body` read one; an unread
        body left in the socket would be parsed as the next request on
        this connection, and that request would get an HTML error page.
        """
        if self.headers.get("Content-Length", "0").strip() != "0":
            self.close_connection = True

    def _read_body(self) -> Any:
        try:
            length = int(self.headers.get("Content-Length") or 0)
            if length < 0:  # rfile.read(-1) would wait for the client to close
                raise ValueError(f"negative Content-Length {length}")
            if length > _MAX_BODY_BYTES:
                raise ValueError(
                    f"request body of {length} bytes exceeds the "
                    f"{_MAX_BODY_BYTES}-byte limit"
                )
        except ValueError:
            # The body stays unread: close after the 400.
            self.close_connection = True
            raise
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw)
        except json.JSONDecodeError as err:
            raise ValueError(f"request body is not valid JSON: {err}") from None

    def _dispatch(self, method: str) -> None:
        if "Transfer-Encoding" in self.headers:
            # Only Content-Length bodies are read; a chunked body left in
            # the socket would be parsed as the next request, so close.
            self.close_connection = True
            self._send_error_json(
                400, "Transfer-Encoding is not supported; send a Content-Length"
            )
            return
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        name = self.ROUTES.get((method, path))
        if name is None:
            self._close_if_body_declared()
            known = {p for (_, p) in self.ROUTES}
            if path in known:
                self._send_error_json(405, f"{method} not allowed on {path}")
            else:
                self._send_error_json(404, f"unknown endpoint {path}")
            return
        self.service.telemetry.record_request(path)
        try:
            getattr(self, name)()
        except ValueError as err:
            self._send_error_json(400, str(err))
        except Exception as err:  # keep the server up; report the request
            self._send_error_json(500, f"{type(err).__name__}: {err}")

    def do_GET(self) -> None:  # noqa: N802 (http.server contract)
        self._close_if_body_declared()  # no GET endpoint reads a body
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 (http.server contract)
        self._dispatch("POST")

    # -- endpoints --------------------------------------------------------

    def _handle_healthz(self) -> None:
        self._send_json(200, self.service.healthz())

    def _handle_stats(self) -> None:
        self._send_json(200, self.service.stats())

    def _handle_sweeps(self) -> None:
        self._send_json(200, {"sweeps": self.service.sweeps()})

    def _handle_plan(self) -> None:
        self._send_json(200, self.service.plan(self._read_body()))

    def _handle_sweep(self) -> None:
        self._send_json(202, self.service.start_sweep(self._read_body()))


def create_server(
    host: str, port: int, service: PlannerService
) -> PlannerServer:
    """Bind a :class:`PlannerServer`; ``port=0`` picks a free port."""
    return PlannerServer((host, port), service)
