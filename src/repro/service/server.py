"""The async stdlib HTTP server behind ``repro serve``.

One asyncio loop accepts connections and parses HTTP; CPU-bound engine
work runs on the engine's thread pool via ``run_in_executor`` so the loop
stays responsive while searches grind.  Every request gets a cooperative
deadline — the smaller of the client's requested budget and the server's
``--deadline`` cap — which the search machinery converts into a
structured ``timeout`` verdict; a hard ``asyncio.wait_for`` backstop
(budget + grace) guarantees a well-formed timeout response even if a
worker wedges, so a connection is never left hanging.

Connections are HTTP/1.1, one request each (``Connection: close``): the
clients this serves are schema-registry hooks and CI probes, not
browsers, and the single-shot model keeps the parser honest and small.

The server is usable three ways: ``repro serve`` (CLI, runs until
SIGTERM/SIGINT, exits 0 on either), :func:`serve` (embed in an existing
asyncio program), and :class:`ServiceThread` (tests: background thread,
real sockets, deterministic startup/shutdown).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import threading
from typing import Callable, NamedTuple, Optional

from repro.engine import Engine, EngineConfig
from repro.errors import ReproError
from repro.service import protocol
from repro.service.progress import ProgressBroker

_MAX_BODY = 1 << 20  # 1 MiB: schema catalogs are tiny; refuse anything huge
_MAX_HEADER = 64 * 1024
_GRACE = 10.0  # seconds past the cooperative budget before the hard backstop

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class ServiceConfig(NamedTuple):
    """Server-side knobs; engine-side knobs live in :class:`EngineConfig`."""

    host: str = "127.0.0.1"
    port: int = 8420
    deadline: Optional[float] = None  # per-request budget cap
    grace: float = _GRACE


class _HttpRequest(NamedTuple):
    method: str
    path: str
    headers: dict
    body: bytes


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


async def _read_request(reader: asyncio.StreamReader) -> Optional[_HttpRequest]:
    """Parse one HTTP/1.x request; None on immediate EOF (probe connects)."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise _HttpError(400, "truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise _HttpError(413, "request head too large") from exc
    if len(head) > _MAX_HEADER:
        raise _HttpError(413, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _HttpError(400, f"malformed request line: {lines[0]!r}")
    method, path = parts[0].upper(), parts[1]
    headers = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise _HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise _HttpError(400, f"bad Content-Length: {length_text!r}") from None
    if length < 0:
        raise _HttpError(400, f"bad Content-Length: {length_text!r}")
    if length > _MAX_BODY:
        raise _HttpError(413, f"request body exceeds {_MAX_BODY} bytes")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise _HttpError(400, "truncated request body") from exc
    return _HttpRequest(method, path.split("?", 1)[0], headers, body)


def _response_bytes(
    status: int, body: bytes, content_type: str = "application/json"
) -> bytes:
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


class ServiceServer:
    """One engine, one listening socket, N concurrent requests."""

    def __init__(
        self,
        engine: Engine,
        config: ServiceConfig = ServiceConfig(),
        broker: Optional[ProgressBroker] = None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.broker = broker if broker is not None else ProgressBroker()
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping: Optional[asyncio.Event] = None
        self.port: Optional[int] = None

    # ---------------------------------------------------------------- lifecycle

    async def start(self) -> "ServiceServer":
        loop = asyncio.get_running_loop()
        self.broker.bind(loop)
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=_MAX_HEADER,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self._stopping is not None:
            self._stopping.set()
        self.broker.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_until_stopped(self) -> None:
        """Run until :meth:`request_stop` (or a signal handler) fires."""
        assert self._stopping is not None, "call start() first"
        await self._stopping.wait()
        await self.stop()

    def request_stop(self) -> None:
        """Signal-safe stop request (usable from loop callbacks)."""
        if self._stopping is not None:
            self._stopping.set()

    # --------------------------------------------------------------- connection

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                request = await _read_request(reader)
            except _HttpError as exc:
                writer.write(
                    _response_bytes(
                        exc.status,
                        protocol.canonical_bytes(
                            protocol.error_payload(exc.message)
                        ),
                    )
                )
                await writer.drain()
                return
            if request is None:
                return
            await self._dispatch(request, writer)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _dispatch(
        self, request: _HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        route = _ROUTES.get(request.path)
        if route is None:
            await self._send(
                writer, 404,
                protocol.error_payload(f"unknown path {request.path!r}"),
            )
            return
        method, handler = route
        if request.method != method:
            await self._send(
                writer, 405,
                protocol.error_payload(
                    f"{request.path} expects {method}, got {request.method}"
                ),
            )
            return
        await handler(self, request, writer)

    async def _send(
        self, writer: asyncio.StreamWriter, status: int, payload: dict
    ) -> None:
        writer.write(_response_bytes(status, protocol.canonical_bytes(payload)))
        await writer.drain()

    # ------------------------------------------------------------------ routes

    async def _handle_healthz(
        self, request: _HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        payload = {
            "status": "ok",
            "engine": {
                "max_atoms": self.engine.config.max_atoms,
                "n_workers": self.engine.config.n_workers,
                "request_workers": self.engine.config.request_workers,
            },
            "deadline": self.config.deadline,
            "result_cache": {
                "entries": len(self.engine.result_cache),
                "hits": self.engine.result_cache.hits,
                "misses": self.engine.result_cache.misses,
            },
        }
        await self._send(writer, 200, payload)

    async def _handle_metrics(
        self, request: _HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        from repro.obs.export import prometheus_text

        registry = self.engine.metrics
        text = prometheus_text(registry.snapshot(), registry.gauges())
        writer.write(
            _response_bytes(
                200, text.encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        )
        await writer.drain()

    async def _handle_events(
        self, request: _HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        """Server-sent events: stream progress until the client hangs up."""
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n"
            b"\r\n"
            b": connected\n\n"
        )
        await writer.drain()
        queue = self.broker.subscribe()
        try:
            while not self._stopping.is_set():
                try:
                    event = await asyncio.wait_for(queue.get(), timeout=15.0)
                except asyncio.TimeoutError:
                    writer.write(b": keep-alive\n\n")
                    await writer.drain()
                    continue
                if event is None:  # broker closed (server shutdown)
                    break
                name = event.get("event", "message")
                data = json.dumps(event, sort_keys=True, separators=(",", ":"))
                writer.write(f"event: {name}\ndata: {data}\n\n".encode("utf-8"))
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self.broker.unsubscribe(queue)

    # ------------------------------------------------------------ verdict POSTs

    def _effective_deadline(
        self, requested: Optional[float]
    ) -> Optional[float]:
        """min(requested, server cap), None-aware: the cap always binds."""
        cap = self.config.deadline
        if requested is None:
            return cap
        if cap is None:
            return requested
        return min(requested, cap)

    async def _run_engine(
        self,
        kind: str,
        writer: asyncio.StreamWriter,
        deadline: Optional[float],
        call: Callable[[], dict],
        request_id: Optional[int] = None,
    ) -> None:
        """Run a blocking engine call on the pool under the hard backstop."""
        if request_id is None:
            request_id = self.broker.next_request_id()
        self.broker.publish({"event": "request", "id": request_id, "kind": kind})
        loop = asyncio.get_running_loop()
        backstop = None if deadline is None else deadline + self.config.grace
        try:
            payload = await asyncio.wait_for(
                loop.run_in_executor(self.engine.executor, call), backstop
            )
        except asyncio.TimeoutError:
            payload = protocol.timeout_payload(kind, deadline)
        except ReproError as exc:
            self.broker.publish(
                {"event": "done", "id": request_id, "verdict": "error"}
            )
            await self._send(writer, 400, protocol.error_payload(str(exc)))
            return
        self.broker.publish(
            {
                "event": "done",
                "id": request_id,
                "verdict": payload.get("verdict", "ok"),
            }
        )
        await self._send(writer, 200, payload)

    async def _handle_equivalence(
        self, request: _HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        try:
            parsed = protocol.parse_equivalence_request(
                protocol.parse_body(request.body)
            )
        except ReproError as exc:
            await self._send(writer, 400, protocol.error_payload(str(exc)))
            return

        def call() -> dict:
            payload = self.engine.equivalence_request(
                parsed.schema1, parsed.schema2
            )
            return self._with_ddl(payload, parsed)

        await self._run_engine(
            "equivalence", writer, self._effective_deadline(parsed.deadline), call
        )

    async def _handle_dominance(
        self, request: _HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        try:
            parsed = protocol.parse_dominance_request(
                protocol.parse_body(request.body)
            )
        except ReproError as exc:
            await self._send(writer, 400, protocol.error_payload(str(exc)))
            return
        deadline = self._effective_deadline(parsed.deadline)
        request_id = self.broker.next_request_id()
        on_progress = self.broker.reporter(request_id, "dominance")

        def call() -> dict:
            payload = self.engine.dominance_request(
                parsed.schema1,
                parsed.schema2,
                max_atoms=parsed.max_atoms,
                deadline=deadline,
                on_progress=on_progress,
            )
            return self._with_ddl(payload, parsed)

        await self._run_engine(
            "dominance", writer, deadline, call, request_id=request_id
        )

    async def _handle_mapping_check(
        self, request: _HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        try:
            parsed = protocol.parse_mapping_request(
                protocol.parse_body(request.body)
            )
        except ReproError as exc:
            await self._send(writer, 400, protocol.error_payload(str(exc)))
            return

        def call() -> dict:
            payload = self.engine.mapping_request(
                parsed.source, parsed.target, parsed.mapping
            )
            if parsed.include_ddl:
                payload = dict(payload)
                payload["ddl"] = protocol.ddl_echo(
                    {"source": parsed.source, "target": parsed.target}
                )
            return payload

        await self._run_engine("mapping-check", writer, None, call)

    def _with_ddl(self, payload: dict, parsed) -> dict:
        """Attach the optional DDL echo without mutating a cached payload."""
        if not getattr(parsed, "include_ddl", False):
            return payload
        payload = dict(payload)
        payload["ddl"] = protocol.ddl_echo(
            {"schema1": parsed.schema1, "schema2": parsed.schema2}
        )
        return payload


_ROUTES: dict = {
    "/healthz": ("GET", ServiceServer._handle_healthz),
    "/metrics": ("GET", ServiceServer._handle_metrics),
    "/v1/events": ("GET", ServiceServer._handle_events),
    "/v1/equivalence": ("POST", ServiceServer._handle_equivalence),
    "/v1/dominance": ("POST", ServiceServer._handle_dominance),
    "/v1/mapping-check": ("POST", ServiceServer._handle_mapping_check),
}


async def serve(
    engine_config: EngineConfig = EngineConfig(),
    service_config: ServiceConfig = ServiceConfig(),
    ready: Optional[Callable[[ServiceServer], None]] = None,
    install_signal_handlers: bool = True,
) -> int:
    """Run the service until stopped; returns the process exit code.

    ``ready`` is called once the socket is bound (the CLI prints the
    actual port there — ``--port 0`` asks the OS for a free one).
    SIGTERM and SIGINT both request a graceful stop: in-flight requests
    finish, the result cache is persisted, exit code 0.
    """
    engine = Engine(engine_config)
    server = ServiceServer(engine, service_config)
    await server.start()
    loop = asyncio.get_running_loop()
    if install_signal_handlers:
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(signum, server.request_stop)
    try:
        if ready is not None:
            ready(server)
        await server.serve_until_stopped()
    finally:
        if install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError, ValueError):
                    loop.remove_signal_handler(signum)
        engine.close()
    return 0


class ServiceThread:
    """A real server on a background thread, for tests and embedding.

    Binds an OS-assigned port by default; :meth:`start` returns once the
    socket accepts connections, :meth:`stop` shuts the loop down and
    joins the thread.  The engine's lifecycle is owned here: built on the
    service thread, closed (cache persisted) at stop.
    """

    def __init__(
        self,
        engine_config: EngineConfig = EngineConfig(),
        service_config: ServiceConfig = ServiceConfig(port=0),
    ) -> None:
        self.engine_config = engine_config
        self.service_config = service_config
        self.port: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._failed: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[ServiceServer] = None

    def start(self, timeout: float = 30.0) -> "ServiceThread":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service thread failed to start in time")
        if self._failed is not None:
            raise RuntimeError(f"service thread failed: {self._failed!r}")
        return self

    def _run(self) -> None:
        def on_ready(server: ServiceServer) -> None:
            self._server = server
            self._loop = asyncio.get_running_loop()
            self.port = server.port
            self._ready.set()

        try:
            asyncio.run(
                serve(
                    self.engine_config,
                    self.service_config,
                    ready=on_ready,
                    install_signal_handlers=False,
                )
            )
        except BaseException as exc:  # pragma: no cover - startup failures
            self._failed = exc
            self._ready.set()

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self._server is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._server.request_stop)
        if self._thread is not None:
            self._thread.join(timeout)
            if self._thread.is_alive():
                raise RuntimeError("service thread did not stop in time")
            self._thread = None

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
