"""The HTTP shell: stdlib ``ThreadingHTTPServer`` over a ServiceState.

Dependency-free by design (``http.server`` + the ``ThreadingMixIn``
built into :class:`~http.server.ThreadingHTTPServer`): one daemon thread
per connection, all real work delegated to
:meth:`repro.service.handlers.ServiceState.handle`.  Concurrency is
governed by the state's :class:`~repro.service.admission.AdmissionController`,
not by the socket layer — threads past the cap either queue or get 429.

Two entry points:

* :class:`ReproServer` — embeddable: binds (port 0 = ephemeral), runs in
  a background thread, exposes ``.port``/``.url``; the shape the tests
  and notebooks use;
* :func:`serve` — blocking convenience for ``repro serve``.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from ..errors import ConfigError, ReproError
from .handlers import PayloadTooLarge, ServiceState

__all__ = ["MAX_BODY_BYTES", "ReproServer", "serve"]

#: Largest request body the shell will read (the default cache budget).
MAX_BODY_BYTES = 64 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """Parses HTTP, forwards to the state, writes the reply.  Nothing else."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-service"
    # One write per response (``handle_one_request`` flushes the buffer), and
    # a body past the buffer does not wait for the ACK of the headers.
    wbufsize = -1
    disable_nagle_algorithm = True

    # The ThreadingHTTPServer subclass carries the state.
    @property
    def state(self) -> ServiceState:
        return self.server.state  # type: ignore[attr-defined]

    def _dispatch(self, method: str) -> None:
        announced = self.headers.get("Content-Length") or "0"
        digits = announced.isascii() and announced.isdigit() and len(announced) < 20
        length = int(announced) if digits else None  # int() alone takes "1_0"
        refused: Optional[ReproError] = None
        if length is None:
            refused = ConfigError("Content-Length must be a non-negative integer "
                                  f"under 20 digits, not {announced[:32]!r}")
        elif length > MAX_BODY_BYTES:
            refused = PayloadTooLarge(
                f"a {length}-byte body exceeds the {MAX_BODY_BYTES}-byte cap")
        body = self.rfile.read(length) if length and refused is None else None
        status, content_type, payload, headers = self.state.handle(
            method, self.path, body, refused
        )
        if refused is not None:
            # The body was not read, so the next request cannot be found.
            headers["Connection"] = "close"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server convention
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    def log_message(self, format: str, *args) -> None:
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    #: Reuse the port promptly across quick restarts (tests, CI smoke).
    allow_reuse_address = True

    def __init__(self, address, state: ServiceState, verbose: bool = False):
        super().__init__(address, _Handler)
        self.state = state
        self.verbose = verbose


class ReproServer:
    """An embeddable service: bind, serve in a thread, shut down cleanly.

    >>> server = ReproServer(ServiceState())
    >>> server.start()
    >>> server.url
    'http://127.0.0.1:<port>'
    >>> server.close()

    ``port=0`` (the default) binds an ephemeral port — read ``.port``
    after construction.
    """

    def __init__(self, state: Optional[ServiceState] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 verbose: bool = False) -> None:
        self.state = state or ServiceState()
        self._server = _Server((host, port), self.state, verbose=verbose)
        self.host = host
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ReproServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-service", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking serve (the CLI path); Ctrl-C returns cleanly."""
        try:
            self._server.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            self._server.server_close()

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve(state: Optional[ServiceState] = None, host: str = "127.0.0.1",
          port: int = 8750, verbose: bool = True) -> None:
    """Run the service until interrupted (the ``repro serve`` entry)."""
    server = ReproServer(state, host=host, port=port, verbose=verbose)
    print(f"repro service listening on {server.url}")
    server.serve_forever()
