"""HTTP/1.1 ingress: the second ``serve`` front-end (socket transport).

The stdin front-end makes extraction scriptable; this module makes it
*reachable* — a minimal HTTP/1.1 layer on ``asyncio.start_server``
(stdlib only) in front of the same :class:`~repro.service.serve.
ServeHandler` the stdin loop drives, so a page POSTed over HTTP yields
a record **byte-identical** to what ``serve`` writes on stdout for the
same input line.

:class:`HttpFrontEnd` is the serving tier's one HTTP server: a
multi-worker fleet (:mod:`repro.service.supervisor`) runs it in every
child and on the supervisor's own port, which overrides only the
endpoint bodies.

The record stream is the protocol: application-level failures
(malformed request JSON, unparseable HTML, unroutable pages, handler
crashes) come back as error *records* with HTTP 200, exactly as on
stdin.  4xx/5xx are reserved for HTTP-layer violations, and those
responses carry an error record body too, so a client can always parse
what it gets.

Endpoints:

* ``POST /extract`` — one ``{"url", "html"}`` JSON body in, one record
  line out (``Content-Length`` framed).
* ``POST /batch`` — an NDJSON body in (``Content-Length`` or
  ``Transfer-Encoding: chunked``), a **chunked NDJSON stream** out:
  one record line per input line, one HTTP chunk per record (a chunk
  boundary never splits a record), in input order.  The body is
  consumed incrementally: each line is answered and its record sent
  before the next line is read, with the handler's
  :class:`~repro.service.serve.ServePolicy` supplying the
  consecutive-undecodable-line cap.
* ``GET /healthz`` — liveness plus session counters (served pages,
  requests, connections, drift events/refits).

One execution model: a request line of at most
:data:`INLINE_LINE_BYTES` is answered on the event loop's own thread,
and a longer one on a single extraction thread, so that a large page
never holds up ``/healthz``, ``/metrics``, a signal or another
connection.  ``handle_line`` holds the GIL, so more threads would add
no parallelism; a fleet (:mod:`repro.service.supervisor`) adds
processes.

Connections are persistent per HTTP/1.1 semantics (``Connection:
close`` honoured; HTTP/1.0 closes unless asked to keep alive).
Graceful shutdown (:meth:`HttpFrontEnd.shutdown`) closes the listener,
hangs up idle connections, lets every in-flight request finish and
stops the extraction thread — no response is ever truncated
mid-record.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

from repro.service.metrics import AdmissionController, AdmissionDecision
from repro.service.serve import (
    contained_handle,
    _adopt_adapter_counts,
    _dumps,
    _metrics_of,
    _policy_of,
    _undecodable_record,
)
from repro.service.sink import make_error_record

#: Request-line / single-header length bound (DoS hygiene).
MAX_REQUEST_LINE_BYTES = 8192

#: Total header block bound per request.
MAX_HEADER_BYTES = 32768

#: Default request-body bound; ``HttpFrontEnd(max_body_bytes=...)``
#: overrides (a million-page corpus belongs on ``/batch`` streamed,
#: not in one ``/extract`` body).
DEFAULT_MAX_BODY_BYTES = 64 * 1024 * 1024

#: RFC 9112 framing numbers: ``Content-Length`` is ``1*DIGIT``, and a
#: chunk-size line is ``1*HEXDIG``, then optional extensions (``;...``,
#: which spaces or tabs may precede) and the line end.  ``int()`` alone
#: would also take a sign, ``0x`` and ``_`` separators; a framing two
#: parsers read differently is a request-smuggling vector.
_CONTENT_LENGTH = re.compile(r"[0-9]+")
_CHUNK_SIZE_LINE = re.compile(r"([0-9A-Fa-f]+)(?:[ \t]*;[^\r\n]*)?\r?\n?")

#: RFC 9110 §5.1: a field name is a ``token`` (so ``Name : v`` is a 400,
#: RFC 9112 §5.1).  Only SP and HTAB pad a value: ``str.strip()`` would
#: also eat control bytes, ``\x85`` and ``\xa0``.
_FIELD_NAME = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")

#: RFC 9112 §3: the request line's three parts are separated by SP; a
#: lenient parser may also split on HTAB, VT, FF and bare CR, but on no
#: other byte (not NEL, NBSP or the \x1c-\x1f separators Python's
#: ``str.split()`` would also take).
_REQUEST_LINE_SPACE = " \t\x0b\x0c\r"
_REQUEST_LINE_SEPARATOR = re.compile(f"[{_REQUEST_LINE_SPACE}]+")

#: Seconds a graceful shutdown waits for in-flight requests before
#: force-closing their connections.
DEFAULT_DRAIN_TIMEOUT = 30.0

#: A request line up to this many bytes is answered on the event loop's
#: own thread; a longer one on the extraction thread, so the loop stays
#: live.  Serving costs 0.55–0.86 ms per KB (2 vCPU, py3.11: parse,
#: signature and scoring, all five families), so 8 KiB is about one GIL
#: switch interval (5 ms), the wait the loop already had whenever
#: another thread held the GIL.  Inline, a page at the 64 MB body cap
#: would hold the loop ~50 s, past the supervisor's 5 s ``/healthz``
#: gather and the drain timeout.  A liveness guard, not a tuning knob.
INLINE_LINE_BYTES = 8 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}

#: Endpoint label values for ``repro_http_requests_total`` — a bounded
#: set, so an URL-scanning client cannot explode series cardinality.
_KNOWN_ENDPOINTS = ("/extract", "/batch", "/healthz", "/metrics")


class HttpProtocolError(Exception):
    """An HTTP-layer violation (maps to a 4xx/5xx and hangs up)."""

    def __init__(self, status: int, detail: str) -> None:
        super().__init__(detail)
        self.status = status
        self.detail = detail


@dataclass
class HttpStats:
    """What one HTTP serve session did (the front-end's report)."""

    connections: int = 0
    requests: int = 0
    #: Request lines answered with a record (served + error + gap).
    pages: int = 0
    #: Successfully extracted pages (the stdin loop's counter).
    served: int = 0
    #: Requests refused at the HTTP layer (4xx/5xx).
    protocol_errors: int = 0
    #: Requests refused 429 by a per-client rate limit.
    rate_limited: int = 0
    #: Requests shed 503 at the in-flight saturation bound.
    shed: int = 0
    #: Connections the graceful-shutdown drain path closed — kept in
    #: lockstep with ``repro_http_drained_connections_total`` so the
    #: drain log line and ``/metrics`` can never disagree.
    drained_connections: int = 0
    #: Drift events / refits the handler's adapter performed during
    #: this session (0 without ``--adapt``).
    drift_events: int = 0
    refits: int = 0
    #: Canary verdicts the adapter's deployer reached during this
    #: session (0 without ``--registry``/``--canary-fraction``).
    promotions: int = 0
    rollbacks: int = 0


# --------------------------------------------------------------------- #
# Request parsing
# --------------------------------------------------------------------- #


@dataclass
class _Request:
    method: str
    target: str
    version: str
    headers: dict[str, str]

    @property
    def keep_alive(self) -> bool:
        """Whether the client asked to reuse the connection."""
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"


async def _read_line(reader, limit: int, context: str) -> bytes:
    try:
        line = await reader.readline()
    except (ValueError, asyncio.LimitOverrunError) as exc:
        raise HttpProtocolError(431, f"{context} too long") from exc
    if len(line) > limit:
        raise HttpProtocolError(431, f"{context} too long")
    return line


async def _read_request_head(reader) -> Optional[_Request]:
    """Parse one request line + headers; ``None`` on clean EOF."""
    request_line = b"\r\n"
    # RFC 9112 §2.2: tolerate stray CRLFs between pipelined requests —
    # a few of them, not a firehose that pins the connection forever.
    for _ in range(64):
        request_line = await _read_line(
            reader, MAX_REQUEST_LINE_BYTES, "request line"
        )
        if request_line not in (b"\r\n", b"\n"):
            break
    else:
        raise HttpProtocolError(400, "too many stray blank lines")
    if not request_line:
        return None
    parts = _REQUEST_LINE_SEPARATOR.split(
        request_line.decode("latin-1")
        .removesuffix("\n")
        .strip(_REQUEST_LINE_SPACE)
    )
    if len(parts) != 3:
        raise HttpProtocolError(400, "malformed request line")
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise HttpProtocolError(400, f"unsupported version {version}")
    headers: dict[str, str] = {}
    total = 0
    while True:
        line = await _read_line(reader, MAX_REQUEST_LINE_BYTES, "header")
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise HttpProtocolError(400, "connection closed mid-headers")
        total += len(line)
        if total > MAX_HEADER_BYTES:
            raise HttpProtocolError(431, "header block too large")
        text = line.decode("latin-1").removesuffix("\n").removesuffix("\r")
        if text.startswith((" ", "\t")):
            # RFC 9112 §5.2: obsolete line folding; refuse, never unfold.
            raise HttpProtocolError(400, "header line starts with whitespace")
        name, sep, value = text.partition(":")
        if not sep or not _FIELD_NAME.fullmatch(name):
            raise HttpProtocolError(400, f"malformed header {name!r}")
        headers[name.lower()] = value.strip(" \t")
    return _Request(method, target, version, headers)


# --------------------------------------------------------------------- #
# Body framing (both request framings feed one incremental line reader)
# --------------------------------------------------------------------- #


class _LengthFramedBody:
    """Read exactly ``Content-Length`` bytes, never past the request."""

    def __init__(self, reader, remaining: int) -> None:
        self._reader = reader
        self._remaining = remaining

    async def read_some(self) -> bytes:
        """The next body chunk (``b""`` once the framed length is read)."""
        if self._remaining <= 0:
            return b""
        data = await self._reader.read(min(65536, self._remaining))
        if not data:
            raise HttpProtocolError(400, "connection closed mid-body")
        self._remaining -= len(data)
        return data


class _ChunkedBody:
    """Decode ``Transfer-Encoding: chunked`` request framing."""

    def __init__(self, reader, max_bytes: int) -> None:
        self._reader = reader
        self._max_bytes = max_bytes
        self._consumed = 0
        self._chunk_left = 0
        self._done = False

    async def read_some(self) -> bytes:
        """The next decoded chunk (``b""`` after the final chunk)."""
        if self._done:
            return b""
        if self._chunk_left == 0:
            size_line = await _read_line(
                self._reader, MAX_REQUEST_LINE_BYTES, "chunk size"
            )
            if not size_line:
                raise HttpProtocolError(400, "connection closed mid-body")
            # Chunk extensions (";...") are legal; ignore them.
            size_text = size_line.decode("latin-1")
            match = _CHUNK_SIZE_LINE.fullmatch(size_text)
            if match is None:
                raise HttpProtocolError(
                    400, f"malformed chunk size {size_text.strip()!r}"
                )
            size = int(match.group(1), 16)
            if size == 0:
                # Trailer section: skip until the blank line, within
                # the same budget that bounds a header block.
                trailer_bytes = 0
                while True:
                    trailer = await _read_line(
                        self._reader, MAX_REQUEST_LINE_BYTES, "trailer"
                    )
                    if trailer in (b"\r\n", b"\n", b""):
                        break
                    trailer_bytes += len(trailer)
                    if trailer_bytes > MAX_HEADER_BYTES:
                        raise HttpProtocolError(
                            431, "trailer block too large"
                        )
                self._done = True
                return b""
            self._consumed += size
            if self._consumed > self._max_bytes:
                raise HttpProtocolError(413, "chunked body too large")
            self._chunk_left = size
        data = await self._reader.read(min(65536, self._chunk_left))
        if not data:
            raise HttpProtocolError(400, "connection closed mid-body")
        self._chunk_left -= len(data)
        if self._chunk_left == 0:
            crlf = await self._reader.readexactly(2)
            if crlf != b"\r\n":
                raise HttpProtocolError(400, "malformed chunk terminator")
        return data


def _framed_body(request: _Request, reader, max_bytes: int):
    """The request's body framer, or an :class:`HttpProtocolError`."""
    encoding = request.headers.get("transfer-encoding", "").lower()
    if encoding:
        if "content-length" in request.headers:
            # RFC 9112 §6.3: a message carrying both framings is a
            # request-smuggling vector (a proxy in front may frame by
            # the one this server ignores) — reject, never guess.
            raise HttpProtocolError(
                400, "both Transfer-Encoding and Content-Length given"
            )
        if encoding != "chunked":
            raise HttpProtocolError(
                501, f"unsupported transfer-encoding {encoding!r}"
            )
        return _ChunkedBody(reader, max_bytes)
    length_text = request.headers.get("content-length")
    if length_text is None:
        raise HttpProtocolError(411, "Content-Length required")
    try:
        if not _CONTENT_LENGTH.fullmatch(length_text):
            raise ValueError
        length = int(length_text)
    except ValueError:
        raise HttpProtocolError(
            400, f"malformed Content-Length {length_text!r}"
        ) from None
    if length > max_bytes:
        raise HttpProtocolError(
            413, f"body of {length} bytes exceeds the {max_bytes} cap"
        )
    return _LengthFramedBody(reader, length)


async def _body_lines(body):
    """Yield the body's NDJSON lines incrementally, as they arrive.

    Items are ``str`` lines (newline stripped; a final unterminated
    line included, exactly like the stdin loop's EOF handling) or, for
    a line that is not valid UTF-8, the ``UnicodeDecodeError`` itself
    — the caller turns those into error records under the shared
    consecutive-failure cap.
    """
    buffer = bytearray()
    while True:
        data = await body.read_some()
        if not data:
            break
        buffer.extend(data)
        while True:
            newline = buffer.find(b"\n")
            if newline < 0:
                break
            raw = bytes(buffer[:newline])
            del buffer[: newline + 1]
            yield _decode_line(raw)
    if buffer:
        yield _decode_line(bytes(buffer))


def _decode_line(raw: bytes):
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return exc


async def _read_whole_body(body, max_bytes: int) -> bytes:
    parts = []
    total = 0
    while True:
        data = await body.read_some()
        if not data:
            return b"".join(parts)
        total += len(data)
        if total > max_bytes:
            raise HttpProtocolError(413, "body too large")
        parts.append(data)


# --------------------------------------------------------------------- #
# Response writing
# --------------------------------------------------------------------- #


def _response_head(
    status: int,
    headers: list[tuple[str, str]],
) -> bytes:
    lines = [f"HTTP/1.1 {status} {_REASONS[status]}"]
    lines.extend(f"{name}: {value}" for name, value in headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def _write_payload_response(
    writer,
    status: int,
    body: bytes,
    keep_alive: bool,
    content_type: str = "application/json; charset=utf-8",
    extra_headers: tuple = (),
) -> None:
    writer.write(_response_head(status, [
        ("Content-Type", content_type),
        ("Content-Length", str(len(body))),
        ("Connection", "keep-alive" if keep_alive else "close"),
        *extra_headers,
    ]) + body)


def _open_record_stream(request: _Request, writer):
    """Send a streaming NDJSON ``200`` head; return ``(write, chunked)``.

    HTTP/1.1 gets one chunk per record line and may keep the
    connection; HTTP/1.0 predates chunked (RFC 9112 §7.1), so its
    stream ends at the close.  ``write(record)`` appends the newline
    and says whether the connection is still open; the caller sends a
    chunked stream's last chunk.
    """
    chunked = request.version == "HTTP/1.1"
    headers = [("Content-Type", "application/x-ndjson; charset=utf-8")]
    if chunked:
        headers.append(("Transfer-Encoding", "chunked"))
    keep_alive = chunked and request.keep_alive
    headers.append(("Connection", "keep-alive" if keep_alive else "close"))
    writer.write(_response_head(200, headers))

    def write(record: bytes) -> bool:
        data = record + b"\n"
        if chunked:
            writer.write(b"%x\r\n" % len(data) + data + b"\r\n")
        else:
            writer.write(data)
        return not writer.is_closing()

    return write, chunked


def _error_body(message: str) -> bytes:
    # serve._dumps is the one record serializer every front-end's
    # byte-identity rests on; error bodies go through it too.
    return (_dumps(make_error_record(message)) + "\n").encode("utf-8")


# --------------------------------------------------------------------- #
# The front-end
# --------------------------------------------------------------------- #


class _Connection:
    """Book-keeping for one open socket (shutdown needs the state)."""

    def __init__(self, writer) -> None:
        self.writer = writer
        self.busy = False


class HttpFrontEnd:
    """The ``serve --http`` ingress: sockets in, record lines out.

    Args:
        handler: the shared :class:`~repro.service.serve.ServeHandler`
            (its :class:`~repro.service.serve.ServePolicy` supplies
            the decode-failure cap and the admission limits).
        host, port: bind address; port 0 picks a free port (the bound
            one is on :attr:`port` after :meth:`start`).
        max_body_bytes: request-body cap (413 beyond it).
        drain_timeout: seconds :meth:`shutdown` waits for in-flight
            requests before force-closing their connections — a client
            that stops reading its response must not be able to wedge
            SIGTERM forever.

    Admission control: the handler's
    :class:`~repro.service.metrics.AdmissionController` (configured by
    its :class:`~repro.service.serve.ServePolicy`) guards ``/extract``
    and ``/batch`` — over-rate clients get 429, saturation sheds 503,
    both with ``Retry-After``.  ``/healthz`` and ``/metrics`` are
    exempt: an operator must be able to observe a saturated server.

    Lifecycle: ``await start()`` binds and serves in the background;
    :meth:`stop` (thread-safe) releases :meth:`wait_stopped`; ``await
    shutdown()`` closes the listener, finishes in-flight requests,
    hangs up idle connections, stops the extraction thread and returns
    the final :class:`HttpStats`.
    """

    def __init__(
        self,
        handler,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
        sock=None,
        worker_id: Optional[str] = None,
    ) -> None:
        policy = _policy_of(handler)
        self.handler = handler
        self.host = host
        self.port = port
        #: A pre-bound, already-listening socket to serve on instead of
        #: binding ``host:port`` — a shared-port child's ``SO_REUSEPORT``
        #: listener, or the supervisor's own port, bound before the
        #: fork so that no address is resolved on an executor thread.
        self._sock = sock
        #: Stamped by the supervisor so an operator hitting the shared
        #: REUSEPORT port can tell which child answered /healthz.
        self.worker_id = worker_id
        self.max_body_bytes = max_body_bytes
        self.drain_timeout = drain_timeout
        self.stats = HttpStats()
        self._metrics = _metrics_of(handler)
        admission = getattr(handler, "admission", None)
        self._admission = (
            admission
            if admission is not None
            else AdmissionController(
                rate_limit=policy.rate_limit,
                rate_burst=policy.rate_burst,
                max_concurrent=policy.max_concurrent_requests,
                metrics=self._metrics,
            )
        )
        self._m_http_requests = self._metrics.from_spec(
            "repro_http_requests_total"
        )
        self._m_open_connections = self._metrics.from_spec(
            "repro_http_open_connections"
        )
        self._m_drained = self._metrics.from_spec(
            "repro_http_drained_connections_total"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._extra_servers: list[asyncio.AbstractServer] = []
        #: Answers lines over :data:`INLINE_LINE_BYTES`; created on the
        #: first one, so a process that never sees one runs one thread.
        self._extractor: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopped: Optional[asyncio.Event] = None
        self._closing = False
        self._connections: dict[int, _Connection] = {}
        self._conn_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind and start accepting connections (non-blocking)."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        if self._sock is not None:
            self._server = await asyncio.start_server(
                self._on_connection, sock=self._sock
            )
        else:
            self._server = await asyncio.start_server(
                self._on_connection, self.host, self.port
            )
        self.port = self._server.sockets[0].getsockname()[1]

    async def add_listener(self, host: str = "127.0.0.1",
                           port: int = 0) -> int:
        """Bind one extra listener answering on the same handler.

        The supervisor gives each shared-port child a private control
        listener this way (the parent's aggregation traffic must reach
        a *specific* child, which the shared REUSEPORT port cannot
        guarantee).  Returns the bound port; closed by :meth:`shutdown`
        alongside the primary listener.
        """
        server = await asyncio.start_server(self._on_connection, host, port)
        self._extra_servers.append(server)
        return server.sockets[0].getsockname()[1]

    def stop(self) -> None:
        """Release :meth:`wait_stopped` (safe from any thread, any time
        — including after the session's event loop is already gone)."""
        if self._loop is None or self._stopped is None:
            return
        try:
            self._loop.call_soon_threadsafe(self._stopped.set)
        except RuntimeError:
            pass  # loop already closed: there is nothing left to stop

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` is called (the CLI's signal path)."""
        assert self._stopped is not None, "start() first"
        await self._stopped.wait()

    async def shutdown(self) -> HttpStats:
        """Graceful teardown: drain in-flight work, then hang up.

        New connections are refused first (listener closed); idle
        keep-alive connections are hung up; requests already being
        answered get up to ``drain_timeout`` seconds to run to
        completion — within that window no response is ever truncated.
        A connection still unfinished after the window (a client that
        stopped reading its response, or a batch genuinely longer than
        the timeout — size ``drain_timeout`` for the deployment's
        largest legitimate batch) is force-closed mid-stream: the
        operator's SIGTERM must always win.  Idempotent.
        """
        # Every connection still open now is the drain path's to close
        # (idle hang-up, in-flight completion, or force-close below);
        # counted once, in both the session stats and the metrics
        # counter, so the drain log and /metrics always agree (a
        # repeated shutdown() call must not recount survivors).
        drained = 0 if self._closing else len(self._connections)
        self._closing = True
        servers = [
            s for s in (self._server, *self._extra_servers) if s is not None
        ]
        self._server = None
        self._extra_servers = []
        for server in servers:
            server.close()
        for connection in list(self._connections.values()):
            if not connection.busy:
                connection.writer.close()
        wedged = False
        if self._conn_tasks:
            _, pending = await asyncio.wait(
                list(self._conn_tasks), timeout=self.drain_timeout
            )
            if pending:
                # Flow-controlled writers (client gone deaf) wake with
                # a connection error once their transport aborts.
                for connection in list(self._connections.values()):
                    connection.writer.transport.abort()
                _, still = await asyncio.wait(pending, timeout=5.0)
                # Anything left is wedged inside the handler itself;
                # leave it behind rather than hang the shutdown.
                wedged = bool(still)
        for server in servers:
            # From Python 3.12.1 this waits for every connection to
            # drop, so it comes after the drain: an idle keep-alive
            # client would otherwise hold the shutdown forever.
            await server.wait_closed()
        if self._extractor is not None:
            self._extractor.shutdown(wait=not wedged)
            self._extractor = None
        if drained:
            self.stats.drained_connections += drained
            self._m_drained.inc(drained)
        _adopt_adapter_counts(self.handler, self.stats)
        if self._stopped is not None:
            self._stopped.set()
        return self.stats

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        connection = _Connection(writer)
        self._connections[id(connection)] = connection
        self.stats.connections += 1
        self._m_open_connections.inc()
        try:
            await self._serve_connection(reader, writer, connection)
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass  # client hung up mid-exchange; nothing to answer
        finally:
            del self._connections[id(connection)]
            self._m_open_connections.dec()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _serve_connection(self, reader, writer, connection) -> None:
        while not self._closing:
            try:
                request = await _read_request_head(reader)
            except HttpProtocolError as exc:
                await self._refuse(reader, writer, exc)
                break
            if request is None:
                break  # client closed the idle connection
            connection.busy = True
            self.stats.requests += 1
            try:
                keep_alive = await self._dispatch(request, reader, writer)
            except HttpProtocolError as exc:
                await self._refuse(reader, writer, exc, request.target)
                break
            finally:
                connection.busy = False
            await writer.drain()
            if not keep_alive:
                break

    def _count_request(self, endpoint: str, status: int) -> None:
        """One ``repro_http_requests_total`` tick, cardinality-bounded."""
        if endpoint not in _KNOWN_ENDPOINTS:
            endpoint = "other"
        self._m_http_requests.labels(endpoint, str(status)).inc()

    @staticmethod
    def _client_of(writer) -> str:
        """The peer's address, the admission controller's client key."""
        peername = writer.get_extra_info("peername")
        if isinstance(peername, (tuple, list)) and peername:
            return str(peername[0])
        return str(peername) if peername else "unknown"

    async def _refuse(
        self, reader, writer, exc: HttpProtocolError, target: str = "other"
    ) -> None:
        """One HTTP-layer rejection; the connection closes after it.

        The body is still an error record, so even a client that hits
        a framing bug gets a parseable line back.  Unread request
        bytes are drained (bounded) before the close: closing a socket
        with inbound data pending makes the kernel RST it, which would
        destroy the very response the client needs to see.
        """
        self.stats.protocol_errors += 1
        self._count_request(target, exc.status)
        extra = []
        if exc.status == 405:
            extra = [("Allow", exc.detail.rsplit(" ", 1)[-1])]
        body = _error_body(f"{exc.status} {_REASONS[exc.status]}: "
                           f"{exc.detail}")
        writer.write(_response_head(exc.status, [
            ("Content-Type", "application/json; charset=utf-8"),
            ("Content-Length", str(len(body))),
            ("Connection", "close"),
            *extra,
        ]) + body)
        await self._drain_unread(reader, writer)

    async def _drain_unread(self, reader, writer) -> None:
        """Discard unread inbound bytes so close() cannot RST us.

        Best-effort and bounded in bytes *and* wall-clock: a refused
        client gets a few seconds, total, to finish sending — a
        trickler cannot pin the connection task by keeping each
        individual read just under a per-read timeout.
        """
        try:
            await writer.drain()
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 5.0
            remaining = self.max_body_bytes
            while remaining > 0:
                timeout = min(1.0, deadline - loop.time())
                if timeout <= 0:
                    break
                data = await asyncio.wait_for(
                    reader.read(min(65536, remaining)), timeout=timeout
                )
                if not data:
                    break
                remaining -= len(data)
        except (asyncio.TimeoutError, OSError):
            pass  # slow or vanished client: best effort is spent

    async def _dispatch(self, request: _Request, reader, writer) -> bool:
        """Route one request; returns whether to keep the connection."""
        route = (request.method, request.target)
        if route == ("POST", "/extract"):
            return await self._handle_extract(request, reader, writer)
        if route == ("POST", "/batch"):
            return await self._handle_batch(request, reader, writer)
        if route == ("GET", "/healthz"):
            return await self._handle_healthz(request, reader, writer)
        if route == ("GET", "/metrics"):
            return await self._handle_metrics(request, reader, writer)
        if request.target in ("/extract", "/batch"):
            raise HttpProtocolError(
                405, f"{request.target} accepts only POST"
            )
        if request.target in ("/healthz", "/metrics"):
            raise HttpProtocolError(
                405, f"{request.target} accepts only GET"
            )
        raise HttpProtocolError(404, f"no such endpoint {request.target!r}")

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #

    def _answer_expect(self, request, writer) -> None:
        """Honour ``Expect: 100-continue`` once the body is wanted.

        curl adds the expectation to any large POST and waits a full
        second for the interim response before sending the body; not
        answering stalls every big request by that second.  Sent only
        after :func:`_framed_body` validated the framing, so a request
        refused outright (411/413) gets its final status instead.
        """
        if request.headers.get("expect", "").lower() == "100-continue":
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")

    async def _reject(
        self, request, reader, writer, decision: AdmissionDecision
    ) -> bool:
        """Answer a refused ``POST`` without losing the connection.

        The framed request body is consumed first (its bytes would
        otherwise prefix the next request line on this keep-alive
        connection), then the 429/503 goes out with a whole-second
        ``Retry-After`` and an error-record body — so even a refusal
        is a parseable line.  No ``100 Continue`` is sent: a client
        holding its body on ``Expect`` sees the final status instead.
        """
        if decision.status == 429:
            self.stats.rate_limited += 1
        else:
            self.stats.shed += 1
        # Counted at decision time, before the first await: a shutdown
        # (or client reset) racing the refusal mid-body must not leave
        # the stderr summary and HttpStats claiming a rejection the
        # /metrics series never saw.
        self._count_request(request.target, decision.status)
        framing_ok = True
        try:
            body_framer = _framed_body(request, reader, self.max_body_bytes)
            await _read_whole_body(body_framer, self.max_body_bytes)
        except HttpProtocolError:
            # The refusal outranks the framing violation — and this
            # request is already counted, so routing it through
            # _refuse would tick the series twice.  Answer 429/503
            # and stop reusing the connection.
            framing_ok = False
        retry_after = decision.retry_after_seconds
        payload = _error_body(
            f"{decision.status} {_REASONS[decision.status]}: "
            f"{decision.reason}; retry after {retry_after}s"
        )
        keep_alive = framing_ok and request.keep_alive and not self._closing
        _write_payload_response(
            writer,
            decision.status,
            payload,
            keep_alive,
            extra_headers=(("Retry-After", str(retry_after)),),
        )
        return keep_alive

    async def _handle_extract(self, request, reader, writer) -> bool:
        decision = self._admission.admit(self._client_of(writer))
        if not decision.admitted:
            return await self._reject(request, reader, writer, decision)
        try:
            return await self._extract_admitted(request, reader, writer)
        finally:
            self._admission.release()

    async def _extract_admitted(self, request, reader, writer) -> bool:
        body = _framed_body(request, reader, self.max_body_bytes)
        self._answer_expect(request, writer)
        raw = await _read_whole_body(body, self.max_body_bytes)
        decoded = _decode_line(raw)
        if isinstance(decoded, UnicodeDecodeError):
            line, served = _undecodable_record(decoded)
        else:
            line, served = await self._answer(decoded.strip())
        payload = (line + "\n").encode("utf-8")
        self.stats.pages += 1
        self.stats.served += served
        keep_alive = request.keep_alive and not self._closing
        _write_payload_response(writer, 200, payload, keep_alive)
        self._count_request("/extract", 200)
        return keep_alive

    async def _handle_batch(self, request, reader, writer) -> bool:
        decision = self._admission.admit(self._client_of(writer))
        if not decision.admitted:
            return await self._reject(request, reader, writer, decision)
        try:
            return await self._batch_admitted(request, reader, writer)
        finally:
            self._admission.release()

    async def _batch_admitted(self, request, reader, writer) -> bool:
        body = _framed_body(request, reader, self.max_body_bytes)
        self._answer_expect(request, writer)
        # The response head goes out before the body has fully arrived:
        # from here on, failures are records in the stream, not status
        # codes (the client already has its 200).
        write, chunked = _open_record_stream(request, writer)

        def _write_chunk(line: str) -> bool:
            return write(line.encode("utf-8"))

        max_failures = _policy_of(self.handler).max_decode_failures
        failures = 0
        clean = True
        try:
            async for item in _body_lines(body):
                if isinstance(item, UnicodeDecodeError):
                    failures += 1
                    record, served = _undecodable_record(item)
                else:
                    failures = 0
                    line = item.strip()
                    if not line:
                        continue
                    record, served = await self._answer(line)
                # Counted once answered: a drain below may raise
                # ConnectionResetError on a client that hung up.
                self.stats.pages += 1
                if not _write_chunk(record):
                    clean = False
                    break
                self.stats.served += served
                if failures >= max_failures:
                    # The stdin loop signals this on stderr + exit
                    # code; an HTTP client only has the stream, so say
                    # it there — a truncated batch must never look
                    # fully processed.
                    clean = False
                    _write_chunk(_dumps(make_error_record(
                        "too many undecodable input lines; giving up"
                    )))
                    break
                # Socket-level backpressure: bounds the kernel send queue.
                await writer.drain()
        except HttpProtocolError as exc:
            # Mid-stream framing failure (body lies about its chunks,
            # or outgrows the cap): the 200 is gone, so surface it as
            # a final error record after every page record, and hang
            # up.
            self.stats.protocol_errors += 1
            clean = False
            _write_chunk(_dumps(make_error_record(
                f"{exc.status} {_REASONS[exc.status]}: {exc.detail}"
            )))
        if chunked:
            writer.write(b"0\r\n\r\n")
        self._count_request("/batch", 200)
        if not clean:
            # Aborted with body bytes still unread (the cap tripped,
            # or the framing lied): drain them before the close, or
            # the kernel's RST would destroy the very records — the
            # give-up marker above included — that explain the abort.
            await self._drain_unread(reader, writer)
        await writer.drain()
        return (
            clean
            and chunked
            and request.keep_alive
            and not self._closing
        )

    async def _answer(self, line: str) -> tuple[str, bool]:
        """One request line's ``(record, served)``, where it belongs.

        A line of at most :data:`INLINE_LINE_BYTES` is answered right
        here, on the event loop's thread; a longer one on the
        extraction thread while the loop serves everyone else.
        """
        # A character is at least one UTF-8 byte, so a line longer in
        # characters is over the bound without encoding it.
        if (len(line) <= INLINE_LINE_BYTES
                and len(line.encode("utf-8")) <= INLINE_LINE_BYTES):
            return contained_handle(self.handler, line)
        if self._extractor is None:
            self._extractor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="http-extract"
            )
        return await asyncio.get_running_loop().run_in_executor(
            self._extractor, contained_handle, self.handler, line
        )

    async def _discard_stray_body(self, request, reader) -> None:
        """Consume the body a ``GET`` nonetheless ships.

        ``curl -d`` with ``-X GET`` does that; unread, its bytes would
        prefix the next request line on this keep-alive connection.
        """
        if (
            "content-length" in request.headers
            or "transfer-encoding" in request.headers
        ):
            body = _framed_body(request, reader, self.max_body_bytes)
            await _read_whole_body(body, self.max_body_bytes)

    async def _handle_healthz(self, request, reader, writer) -> bool:
        await self._discard_stray_body(request, reader)
        payload = await self._health()
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        keep_alive = request.keep_alive and not self._closing
        _write_payload_response(writer, 200, body, keep_alive)
        self._count_request("/healthz", 200)
        return keep_alive

    async def _health(self) -> dict:
        """The ``/healthz`` payload: liveness plus session counters."""
        adapter = getattr(self.handler, "adapter", None)
        deployer = getattr(adapter, "deployer", None)
        canary = deployer.status() if deployer is not None else {}
        payload = {
            "status": "closing" if self._closing else "ok",
            "connections": self.stats.connections,
            "requests": self.stats.requests,
            "pages": self.stats.pages,
            "served": self.stats.served,
            "protocol_errors": self.stats.protocol_errors,
            "rate_limited": self.stats.rate_limited,
            "shed": self.stats.shed,
            "drained_connections": self.stats.drained_connections,
            "drift_events": 0 if adapter is None else adapter.drift_events,
            "refits": 0 if adapter is None else adapter.refits,
            "registry_version": canary.get("registry_version")
            or getattr(self.handler, "artifact_version", None),
            "shadow_version": canary.get("shadow_version"),
            "canary_promotions": canary.get("canary_promotions", 0),
            "canary_rollbacks": canary.get("canary_rollbacks", 0),
            "canary_shadow_pages": canary.get("canary_shadow_pages", 0),
        }
        if self.worker_id is not None:
            payload["worker_id"] = self.worker_id
            payload["pid"] = os.getpid()
        return payload

    async def _handle_metrics(self, request, reader, writer) -> bool:
        """``GET /metrics``: the exposition in Prometheus text format.

        Exempt from admission control — observability of a saturated
        server is the whole point.
        """
        await self._discard_stray_body(request, reader)
        body = (await self._exposition()).encode("utf-8")
        keep_alive = request.keep_alive and not self._closing
        _write_payload_response(
            writer, 200, body, keep_alive,
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )
        self._count_request("/metrics", 200)
        return keep_alive

    async def _exposition(self) -> str:
        """The handler's registry: every layer's series, one scrape."""
        return self._metrics.render()
