"""Live Prometheus text exporter over stdlib ``http.server``.

``--metrics-port`` starts one of these beside a run: a daemon-thread
:class:`~http.server.ThreadingHTTPServer` serving

* ``/metrics`` — the registry's Prometheus text exposition, scraped
  straight from the live instruments (no dump file in between), and
* ``/status`` — a JSON run-status page (``repro.status.v1``): run id,
  rounds completed, simulated time, active alerts, series/event
  counts — what a fleet dashboard polls between scrapes.

The exporter only ever *reads* telemetry state and holds the owning
:class:`~repro.telemetry.core.Telemetry`'s flush lock while
rendering, so a scrape races neither a flush nor itself.  Hot-loop
increments deliberately skip that lock (they must stay cheap), so a
render can observe a dict resized mid-iteration; the handler retries
the render a few times rather than taxing every sample with a lock.

Port 0 asks the OS for a free port; :attr:`MetricsExporter.port`
reports the bound one (how the tests and the obs-smoke CI job find
it).
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.core import Telemetry

logger = logging.getLogger(__name__)

#: Prometheus text exposition content type.
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_RENDER_RETRIES = 5


class _Handler(BaseHTTPRequestHandler):
    exporter: "MetricsExporter"  # assigned by the server factory

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        logger.debug("exporter: " + format, *args)

    def _respond(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                body = self.exporter.render_metrics().encode("utf-8")
                self._respond(200, METRICS_CONTENT_TYPE, body)
            elif path == "/status":
                body = (
                    json.dumps(
                        self.exporter.status(), indent=1, sort_keys=True
                    )
                    + "\n"
                ).encode("utf-8")
                self._respond(200, "application/json", body)
            else:
                self._respond(
                    404, "text/plain; charset=utf-8",
                    b"repro exporter: try /metrics or /status\n",
                )
        except BrokenPipeError:  # pragma: no cover - client went away
            pass


class MetricsExporter:
    """Serves a :class:`Telemetry`'s live state over HTTP."""

    def __init__(
        self,
        telemetry: "Telemetry",
        port: int = 0,
        host: str = "127.0.0.1",
    ) -> None:
        self.telemetry = telemetry
        handler = type("_BoundHandler", (_Handler,), {"exporter": self})
        self._server = ThreadingHTTPServer((host, port), handler)
        self._server.daemon_threads = True
        self._thread: threading.Thread | None = None
        self._closed = False

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    def start(self) -> "MetricsExporter":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name="repro-metrics-exporter",
                daemon=True,
            )
            self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving and release the socket.  Idempotent: the CLI's
        ``finally`` teardown and an error path may both close the same
        exporter, and ``server_close`` on an already-closed socket is
        not guaranteed harmless across platforms."""
        if self._closed:
            return
        self._closed = True
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=5)
            self._thread = None
        self._server.server_close()

    # ------------------------------------------------------------------
    # Rendering (called from handler threads)
    # ------------------------------------------------------------------
    def render_metrics(self) -> str:
        last_error: RuntimeError | None = None
        for _ in range(_RENDER_RETRIES):
            try:
                with self.telemetry.lock:
                    return self.telemetry.registry.render_text()
            except RuntimeError as exc:
                # An unlocked hot-loop increment resized a series dict
                # mid-iteration; the next pass sees a consistent view.
                last_error = exc
        raise last_error  # pragma: no cover - needs a pathological race

    def status(self) -> dict:
        with self.telemetry.lock:
            return self.telemetry.status_snapshot()
