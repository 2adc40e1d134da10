"""Pre-fork multi-worker supervisor for the HTTP serving tier.

``serve --http --workers N`` puts every core of one box behind one
port.  The parent process loads the repository and compiles the
wrapper artifact *once* (the pinned registry version is stamped into
the shared :class:`~repro.service.serve.ServeHandler`), then forks N
ingress children that inherit the compiled artifact for free —
copy-on-write, no per-worker compile, no version skew.

Two modes, each of which wins one traffic shape:

* **Shared port** (the default; best for many small ``/extract``
  requests) — each child binds its own ``SO_REUSEPORT`` listener on
  the public address and the kernel load-balances accepted
  connections across them.  The parent holds a bound (never
  listening) probe socket on the same address, so ``--http :0``
  resolves one concrete port that stays reserved across child
  restarts without the probe ever stealing a connection.  The
  parent's own port is a status port.
* **Gateway** (``--gateway``; the only mode that spreads one large
  ``/batch``) — the children bind loopback-only and the parent owns
  the public port, fanning ``POST /batch`` bodies across workers in
  fixed-size line slices (:func:`slice_body`).  Slice outputs are
  buffered whole and streamed back in input order; a slice whose
  worker dies mid-response is re-run from its
  :class:`SliceCheckpoint` on another worker, so
  the merged stream is byte-identical to a single-process ``batch``
  run even across a worker crash.

The parent's port — public in gateway mode, status otherwise — runs
on the same :class:`~repro.service.http.HttpFrontEnd` as every child,
so framing, refusals, admission and the drain are one code path; only
the endpoint bodies differ.  ``GET /healthz`` sums every child's
health payload and ``GET /metrics`` merges the children's expositions
with the supervisor's own series (``repro_serve_workers_active``,
``repro_worker_restarts_total``, per-child
``repro_worker_requests_total``).

The supervisor owns the lifecycle: a watcher reaps dead children and
restarts them under bounded exponential backoff
(:func:`restart_backoff`, giving up after
:data:`MAX_CONSECUTIVE_FAILURES` rapid deaths of one slot).  SIGTERM,
or a first SIGINT, drains from the outside in, as one process does:
the parent's port finishes what it admitted, then the children get
SIGTERM and drain theirs; a second SIGINT aborts.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import re
import signal
import socket
import stat
import sys
import time
from typing import Dict, Optional

from repro.service.http import (
    DEFAULT_DRAIN_TIMEOUT,
    DEFAULT_MAX_BODY_BYTES,
    HttpFrontEnd,
    HttpProtocolError,
    _framed_body,
    _open_record_stream,
    _read_whole_body,
    _write_payload_response,
)
from repro.service.metrics import (
    AdmissionController,
    MetricsRegistry,
    merge_expositions,
    parse_exposition,
)
from repro.service.sink import make_error_record

__all__ = [
    "DEFAULT_SLICE_LINES",
    "GatewayError",
    "MAX_CONSECUTIVE_FAILURES",
    "ServeSupervisor",
    "SliceCheckpoint",
    "SupervisorStats",
    "restart_backoff",
    "slice_body",
]

#: Lines per gateway batch slice — the unit of fan-out, ordering and
#: crash re-run.  Small enough to balance across workers, large enough
#: to amortise one HTTP round-trip per slice.
DEFAULT_SLICE_LINES = 64

#: Re-runs one slice gets before the whole batch is declared failed.
MAX_SLICE_ATTEMPTS = 5

#: First-restart delay; doubles per consecutive rapid death.
RESTART_BACKOFF_BASE = 0.1

#: Restart delay ceiling (seconds).
RESTART_BACKOFF_CAP = 5.0

#: Consecutive rapid deaths of one slot before the supervisor stops
#: restarting it (a child that cannot come up is a config bug, not a
#: transient — backoff must not mask it forever).
MAX_CONSECUTIVE_FAILURES = 8

#: A child that survived this long resets its slot's failure streak.
STABLE_SECONDS = 5.0

#: Parent poll interval for ``waitpid(WNOHANG)`` reaping.
_REAP_POLL_SECONDS = 0.1

#: The session counters every front-end reports (exit summary,
#: ``/healthz``).
_SESSION_COUNTS = (
    "connections", "requests", "pages", "served",
    "protocol_errors", "rate_limited", "shed", "drained_connections",
)

#: A ``repro_http_*`` exposition line (sample, ``HELP`` or ``TYPE``):
#: those series describe whoever answered the connections.
_HTTP_SERIES_LINE = re.compile(r"(?:# (?:HELP|TYPE) )?repro_http_")


def restart_backoff(failures: int) -> float:
    """Delay before restart attempt ``failures`` (1-based), capped.

    0.1s, 0.2s, 0.4s ... :data:`RESTART_BACKOFF_CAP`: fast enough that
    a transient crash barely dents capacity, slow enough that a
    crash-looping child cannot busy-spin the supervisor.
    """
    return min(
        RESTART_BACKOFF_CAP,
        RESTART_BACKOFF_BASE * (2 ** max(0, failures - 1)),
    )


def _inherited_sockets() -> list[int]:  # pragma: no cover - child only
    """The socket fds this process holds, bar stdin, stdout and stderr.

    ``/dev/fd`` lists the open fds (on Linux it is ``/proc/self/fd``);
    the directory's own fd is closed again by the time it is checked.
    """
    fds = []
    for name in os.listdir("/dev/fd"):
        fd = int(name)
        try:
            if fd > 2 and stat.S_ISSOCK(os.fstat(fd).st_mode):
                fds.append(fd)
        except OSError:
            pass
    return fds


@dataclasses.dataclass
class SliceCheckpoint:
    """In-memory manifest for one gateway batch slice.

    The gateway's re-run contract is a shard's interrupted checkpoint
    scaled down to one request: a slice whose worker died mid-stream
    is marked interrupted — its partial records dropped, because a
    retried slice must never half-emit — and re-posted elsewhere from
    the recorded payload.  Extraction is deterministic per line, so
    the re-run reproduces the original slice byte for byte and the
    merged stream stays identical to a single-process ``batch`` run.
    """

    index: int
    start_line: int
    lines: int
    #: The slice's raw request bytes: everything a re-run needs.
    payload: bytes = b""
    attempts: int = 0
    interrupted: bool = False
    records: list = dataclasses.field(default_factory=list)

    def begin_attempt(self) -> int:
        """Mark one (re-)run starting; returns the attempt ordinal."""
        self.attempts += 1
        self.interrupted = False
        return self.attempts

    def interrupt(self) -> None:
        """The serving worker died mid-slice: drop partial output."""
        self.records.clear()
        self.interrupted = True

    def complete(self, records) -> None:
        """One full, ordered record set for the slice."""
        self.records = list(records)
        self.interrupted = False


def slice_body(data: bytes, slice_lines: int) -> list[SliceCheckpoint]:
    """Split one ``/batch`` body into line-aligned, re-runnable slices.

    The slices partition ``data`` exactly (raw bytes, newlines
    included; a final unterminated line rides in the last slice), so
    each worker sees precisely the lines a single-process run would
    have seen in that window — the foundation of the gateway's
    byte-identity guarantee.
    """
    if slice_lines < 1:
        raise ValueError("slice_lines must be >= 1")
    slices: list[SliceCheckpoint] = []
    start = 0
    line_start = 0
    while start < len(data):
        end = start
        lines = 0
        while lines < slice_lines and end < len(data):
            newline = data.find(b"\n", end)
            end = len(data) if newline < 0 else newline + 1
            lines += 1
        slices.append(SliceCheckpoint(
            index=len(slices), start_line=line_start, lines=lines,
            payload=data[start:end],
        ))
        line_start += lines
        start = end
    return slices


class GatewayError(Exception):
    """A gateway batch could not be completed (workers gone/failing)."""


@dataclasses.dataclass
class SupervisorStats:
    """What one supervised serve session did, fleet-wide.

    Children's counts come from their exit reports (clean exits only).
    ``pages`` and ``served`` are theirs; the connection counts describe
    the public port, so in gateway mode the parent's own port keeps them.
    """

    workers: int = 0
    restarts: int = 0
    connections: int = 0
    requests: int = 0
    pages: int = 0
    served: int = 0
    protocol_errors: int = 0
    rate_limited: int = 0
    shed: int = 0
    drained_connections: int = 0
    gateway_slices: int = 0
    gateway_retries: int = 0


class _Child:
    """Parent-side book-keeping for one ingress child."""

    def __init__(self, slot: int, pid: int, read_fd: int,
                 failures: int = 0) -> None:
        self.slot = slot
        self.pid: Optional[int] = pid
        self.read_fd: Optional[int] = read_fd
        self.buffer = bytearray()
        self.started = time.monotonic()
        self.failures = failures
        self.given_up = False
        self.ready = False
        self.control_port: Optional[int] = None

    @property
    def alive(self) -> bool:
        return self.pid is not None


class ServeSupervisor:
    """The ``serve --http --workers N`` parent process.

    Args:
        handler: the pre-built, pre-compiled
            :class:`~repro.service.serve.ServeHandler` every child
            inherits through ``fork`` — compile once, serve N times.
        host, port: the public bind address (port 0 picks one).
        workers: ingress children to run.
        gateway: parent owns the public port and fans ``POST /batch``
            across workers in deterministic slices; children bind
            loopback-only.
        slice_lines: lines per gateway slice.
        status_port: non-gateway mode only — where the parent serves
            the aggregated ``/healthz`` and ``/metrics`` (0 picks a
            free port; gateway mode serves them on the public port).
        max_body_bytes, drain_timeout: front-end knobs, mirroring
            :class:`~repro.service.http.HttpFrontEnd`, for the
            children and the parent's own port alike.
        metrics: the supervisor's own registry (restart counters, the
            active-workers gauge, gateway slice counters, the parent
            port's HTTP series).  Kept *separate* from the handler's
            registry on purpose: the children inherited a fork-time
            copy of that one, so the parent's aggregation must never
            render it twice.

    The supervisor is also its own port's handler: it carries the
    ``policy``, ``metrics`` and ``admission`` an
    :class:`~repro.service.http.HttpFrontEnd` reads.
    """

    def __init__(
        self,
        handler,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        gateway: bool = False,
        slice_lines: int = DEFAULT_SLICE_LINES,
        status_port: int = 0,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if slice_lines < 1:
            raise ValueError("slice_lines must be >= 1")
        self.handler = handler
        self.host = host
        self.port = port
        self.workers = workers
        self.gateway = gateway
        self.slice_lines = slice_lines
        self.status_port = status_port
        self.max_body_bytes = max_body_bytes
        self.drain_timeout = drain_timeout
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_workers = self.metrics.from_spec("repro_serve_workers_active")
        self._m_restarts = self.metrics.from_spec(
            "repro_worker_restarts_total"
        )
        self._m_slices = self.metrics.from_spec("repro_gateway_slices_total")
        self.policy = handler.policy
        # Gateway mode: admission is enforced here, at the public
        # ingress, with the handler's own policy — the children's
        # controllers are disabled so the parent's slice fan-out is
        # never rate-limited against itself.
        self.admission = AdmissionController(
            rate_limit=self.policy.rate_limit,
            rate_burst=self.policy.rate_burst,
            max_concurrent=self.policy.max_concurrent_requests,
            metrics=self.metrics,
        )
        self.stats = SupervisorStats(workers=workers)
        self.mode = "gateway" if gateway else "reuseport"
        self.failed = False
        #: The counters the children's reports contribute; a gateway's
        #: connection counts are its own port's (see SupervisorStats).
        self._child_counts = ("pages", "served") if gateway else _SESSION_COUNTS
        self._children: Dict[int, _Child] = {}
        self._family = socket.AF_INET
        self._bind_addr: tuple = (host, port)
        self._probe_sock: Optional[socket.socket] = None
        self._listen_sock: Optional[socket.socket] = None
        self._front: Optional[_FleetPort] = None
        self._watcher: Optional[asyncio.Task] = None
        self._drain_task: Optional[asyncio.Task] = None
        self._restart_tasks: set[asyncio.Task] = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopped: Optional[asyncio.Event] = None
        self._stopping = False
        self._shut_down = False
        self._interrupts = 0
        self._rr = 0

    # ------------------------------------------------------------------ #
    # Sockets
    # ------------------------------------------------------------------ #

    def _resolve_bind(self) -> None:
        """Resolve the public address synchronously, pre-fork.

        Children re-bind the resolved numeric address; resolving once
        here keeps ``getaddrinfo`` (and the DNS executor threads
        asyncio would spawn for it) out of every fork path.
        """
        info = socket.getaddrinfo(
            self.host or None, self.port, type=socket.SOCK_STREAM,
            flags=socket.AI_PASSIVE,
        )
        self._family, _, _, _, sockaddr = info[0]
        self._bind_addr = sockaddr

    def _bind_sockets(self) -> None:
        self._resolve_bind()
        if self.gateway:
            self._listen_sock = self._make_listener(self._bind_addr)
            self.port = self._listen_sock.getsockname()[1]
            self.status_port = self.port
            return
        # Bound but never listening: reserves the port (and keeps it
        # stable across child restarts) without ever joining the accept
        # distribution group.
        probe = socket.socket(self._family, socket.SOCK_STREAM)
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        probe.bind(self._bind_addr)
        self._probe_sock = probe
        self._bind_addr = probe.getsockname()
        self.port = self._bind_addr[1]
        status_addr = (self._bind_addr[0], self.status_port)
        self._listen_sock = self._make_listener(status_addr)
        self.status_port = self._listen_sock.getsockname()[1]

    def _make_listener(
        self, sockaddr, option: int = socket.SO_REUSEADDR
    ) -> socket.socket:
        sock = socket.socket(self._family, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, option, 1)
        sock.bind(sockaddr)
        sock.listen(128)
        sock.setblocking(False)
        return sock

    # ------------------------------------------------------------------ #
    # Children
    # ------------------------------------------------------------------ #

    def _spawn(self, slot: int, failures: int = 0) -> None:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # pragma: no cover - runs in the forked child
            # -- child ------------------------------------------------- #
            os.close(read_fd)
            self._child_reset(write_fd)
            self._child_main(slot, write_fd)  # never returns
            os._exit(70)  # pragma: no cover - _child_main always exits
        # -- parent ---------------------------------------------------- #
        os.close(write_fd)
        os.set_blocking(read_fd, False)
        child = _Child(slot=slot, pid=pid, read_fd=read_fd,
                       failures=failures)
        self._children[slot] = child
        assert self._loop is not None
        self._loop.add_reader(read_fd, self._on_status_data, child)

    def _child_reset(self, write_fd: int) -> None:  # pragma: no cover
        """Strip the forked child of the parent's runtime plumbing.

        Runs only in the just-forked child, where the coverage
        tracer cannot report (``os._exit`` skips its atexit save)
        — exercised by the subprocess integration tests instead.
        """
        try:
            signal.set_wakeup_fd(-1)
        except (ValueError, OSError):  # pragma: no cover - no wakeup fd
            pass
        for signum in (signal.SIGINT, signal.SIGTERM, signal.SIGCHLD):
            signal.signal(signum, signal.SIG_DFL)
        # The fork copied every socket the parent has open, at whatever
        # stage of its life: the ports, client connections accepted but
        # not yet served or closed but not yet released, requests to
        # other children.  A copy left open keeps its connection alive
        # after the parent closes it, and the peer waits for an end
        # until this child dies, so the child closes them all.
        fds = {c.read_fd for c in self._children.values() if c.read_fd is not None}
        fds.update(_inherited_sockets())
        for fd in fds:
            try:
                os.close(fd)
            except OSError:  # pragma: no cover - already closed
                pass
        # Their fds are closed: detach, so nothing closes a reused number.
        for sock in (self._listen_sock, self._probe_sock):
            if sock is not None:
                sock.detach()
        # The fork happened inside the parent's running loop; clear the
        # inherited "a loop is running" marker so the child can run its
        # own fresh loop.
        try:
            asyncio.events._set_running_loop(None)
        except AttributeError:  # pragma: no cover - private API moved
            pass
        asyncio.set_event_loop(None)

    def _child_main(self, slot: int, write_fd: int) -> None:  # pragma: no cover
        status = os.fdopen(write_fd, "w", buffering=1)
        try:
            code = asyncio.run(self._child_serve(slot, status))
        except BaseException:  # noqa: BLE001 - child must never return
            import traceback

            traceback.print_exc(file=sys.stderr)
            os._exit(70)
        os._exit(code)

    async def _child_serve(self, slot: int, status) -> int:  # pragma: no cover
        sock = None
        if self.gateway:
            # Admission moved to the parent's public ingress; a child
            # must admit every slice the gateway sends it.
            self.handler.admission = AdmissionController(
                metrics=self.handler.metrics
            )
        else:
            sock = self._make_listener(self._bind_addr, socket.SO_REUSEPORT)
        # A gateway child binds a loopback port of its own instead.
        front = HttpFrontEnd(
            self.handler,
            host="127.0.0.1",
            port=0,
            max_body_bytes=self.max_body_bytes,
            drain_timeout=self.drain_timeout,
            sock=sock,
            worker_id=str(slot),
        )
        await front.start()
        # The parent must reach this very child: a gateway child's own
        # port does; the kernel picks who answers a shared port, so a
        # shared-port child adds a private listener.
        if self.gateway:
            control_port = front.port
        else:
            control_port = await front.add_listener("127.0.0.1", 0)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, front.stop)
            except (NotImplementedError, ValueError, RuntimeError):
                pass  # pragma: no cover - platform without loop signals
        status.write(json.dumps({
            "event": "ready", "slot": slot, "pid": os.getpid(),
            "control_port": control_port,
        }) + "\n")
        await front.wait_stopped()
        stats = await front.shutdown()
        status.write(json.dumps({
            "event": "exit", "slot": slot,
            "stats": dataclasses.asdict(stats),
        }) + "\n")
        status.close()
        return 0

    # ------------------------------------------------------------------ #
    # Status pipe + reaping
    # ------------------------------------------------------------------ #

    def _on_status_data(self, child: _Child) -> None:
        assert self._loop is not None
        if child.read_fd is None:  # pragma: no cover - late callback
            return
        try:
            data = os.read(child.read_fd, 65536)
        except BlockingIOError:  # pragma: no cover - spurious wakeup
            return
        except OSError:
            data = b""
        if not data:
            self._loop.remove_reader(child.read_fd)
            os.close(child.read_fd)
            child.read_fd = None
            return
        child.buffer.extend(data)
        while True:
            newline = child.buffer.find(b"\n")
            if newline < 0:
                break
            raw = bytes(child.buffer[:newline])
            del child.buffer[:newline + 1]
            try:
                event = json.loads(raw)
            except json.JSONDecodeError:  # pragma: no cover - noise
                continue
            self._on_child_event(child, event)

    def _on_child_event(self, child: _Child, event: dict) -> None:
        if event.get("event") == "ready":
            child.ready = True
            child.control_port = event.get("control_port")
            self._update_workers_gauge()
        elif event.get("event") == "exit":
            stats = event.get("stats") or {}
            for field in self._child_counts:
                setattr(self.stats, field,
                        getattr(self.stats, field)
                        + int(stats.get(field, 0)))

    def _update_workers_gauge(self) -> None:
        self._m_workers.set(sum(
            1 for child in self._children.values()
            if child.ready and child.alive
        ))

    def _any_alive(self) -> bool:
        return any(child.alive for child in self._children.values())

    async def _watch(self) -> None:
        """Reap (and, while serving, restart) children until drained."""
        while True:
            await asyncio.sleep(_REAP_POLL_SECONDS)
            for child in list(self._children.values()):
                if child.pid is None:
                    continue
                try:
                    pid, _ = os.waitpid(  # sc: ok (WNOHANG)
                        child.pid, os.WNOHANG
                    )
                except ChildProcessError:  # pragma: no cover - raced
                    pid = child.pid
                if pid == 0:
                    continue
                self._reap(child)
            if self._stopping and not self._any_alive():
                return

    def _reap(self, child: _Child) -> None:
        child.pid = None
        child.ready = False
        self._update_workers_gauge()
        if self._stopping:
            return
        lived = time.monotonic() - child.started
        child.failures = 1 if lived >= STABLE_SECONDS else child.failures + 1
        if child.failures > MAX_CONSECUTIVE_FAILURES:
            child.given_up = True
            print(
                f"supervisor: worker {child.slot} crash-looping; "
                f"giving up after {MAX_CONSECUTIVE_FAILURES} restarts",
                file=sys.stderr,
            )
            if all(c.given_up for c in self._children.values()):
                self.failed = True
                self._begin_drain()
            return
        self.stats.restarts += 1
        self._m_restarts.labels(str(child.slot)).inc()
        task = asyncio.ensure_future(
            self._restart_later(child.slot, child.failures)
        )
        self._restart_tasks.add(task)
        task.add_done_callback(self._restart_tasks.discard)

    async def _restart_later(self, slot: int, failures: int) -> None:
        await asyncio.sleep(restart_backoff(failures))
        if not self._stopping:
            self._spawn(slot, failures=failures)

    def _signal_children(self, signum: int) -> None:
        for child in self._children.values():
            if child.alive:
                try:
                    os.kill(child.pid, signum)
                except ProcessLookupError:  # pragma: no cover - raced
                    pass

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> None:
        """Bind, fork the fleet, and serve the parent's port (non-blocking)."""
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._bind_sockets()
        for slot in range(self.workers):
            self._spawn(slot)
        self._watcher = asyncio.ensure_future(self._watch())
        self._front = _FleetPort(self)
        await self._front.start()
        await self._wait_ready()

    async def _wait_ready(self, timeout: float = 60.0) -> None:
        assert self._loop is not None
        deadline = self._loop.time() + timeout
        while self._loop.time() < deadline:
            children = self._children.values()
            if all(c.ready for c in children if c.alive) and any(
                c.ready for c in children
            ):
                return
            if self._stopping or self.failed:
                return
            await asyncio.sleep(0.05)
        raise TimeoutError("supervisor children failed to come up")

    def stop(self) -> None:
        """Begin a fleet-wide graceful drain (safe from any thread)."""
        if self._loop is None:
            return
        try:
            self._loop.call_soon_threadsafe(self._begin_drain)
        except RuntimeError:  # pragma: no cover - loop already gone
            pass

    def interrupt(self) -> None:
        """SIGINT contract: first call drains, the second aborts."""
        self._interrupts += 1
        if self._interrupts == 1:
            self._begin_drain()
        else:
            self._abort()

    def _begin_drain(self) -> None:
        if self._stopping:
            return
        self._stopping = True
        for task in self._restart_tasks:
            task.cancel()
        self._drain_task = asyncio.ensure_future(self._drain())

    async def _drain(self) -> None:
        """Drain from the outside in, as one process does.

        The parent's port finishes what it admitted first (a gateway
        batch still needs its workers); only then do the children get
        SIGTERM and their own drain window, after which a straggler is
        killed.  A gateway drain can thus take twice ``drain_timeout``.
        """
        assert self._front is not None and self._watcher is not None
        await self._front.shutdown()
        self._signal_children(signal.SIGTERM)
        _, pending = await asyncio.wait(
            [self._watcher], timeout=self.drain_timeout + 5.0
        )
        if pending:
            self._signal_children(signal.SIGKILL)
            await self._watcher
        assert self._stopped is not None
        self._stopped.set()

    def _abort(self) -> None:
        self._signal_children(signal.SIGKILL)
        if self._front is not None:
            # The drain still runs, but finds nothing left to wait for.
            self._front.abort_connections()
        if self._stopped is not None:
            self._stopped.set()

    async def wait_stopped(self) -> None:
        """Block until the fleet has drained (the CLI's signal path)."""
        assert self._stopped is not None, "start() first"
        await self._stopped.wait()

    async def shutdown(self) -> SupervisorStats:
        """Drain the fleet (or finish an abort) and return its stats."""
        if self._shut_down:
            return self.stats
        self._shut_down = True
        self._begin_drain()
        assert self._drain_task is not None and self._loop is not None
        await self._drain_task
        for child in self._children.values():
            if child.read_fd is not None:
                # Pull any final exit report still sitting in the pipe.
                self._on_status_data(child)
                if child.read_fd is not None:
                    self._loop.remove_reader(child.read_fd)
                    os.close(child.read_fd)
                    child.read_fd = None
        if self._probe_sock is not None:
            self._probe_sock.close()
            self._probe_sock = None
        return self.stats

    # ------------------------------------------------------------------ #
    # The parent port's endpoint bodies (aggregation + gateway)
    # ------------------------------------------------------------------ #

    # -- aggregation --------------------------------------------------- #

    def _ready_children(self) -> list[_Child]:
        return [
            self._children[slot]
            for slot in sorted(self._children)
            if self._children[slot].ready and self._children[slot].alive
        ]

    async def _gather_children(self, path: str) -> Dict[int, bytes]:
        raw = (
            f"GET {path} HTTP/1.1\r\nHost: supervisor\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        bodies: Dict[int, bytes] = {}
        for child in self._ready_children():
            try:
                status, _, body = await asyncio.wait_for(
                    self._child_request(child, raw), timeout=5.0
                )
            except (OSError, ValueError, asyncio.IncompleteReadError,
                    asyncio.TimeoutError):
                continue
            if status == 200:
                bodies[child.slot] = body
        return bodies

    async def _health(self) -> dict:
        """The fleet's ``/healthz`` payload."""
        payloads: Dict[int, dict] = {}
        for slot, body in (await self._gather_children("/healthz")).items():
            try:
                payloads[slot] = json.loads(body)
            except json.JSONDecodeError:  # pragma: no cover - noise
                continue
        expected = [c for c in self._children.values() if not c.given_up]
        healthy = sum(
            1 for p in payloads.values() if p.get("status") == "ok"
        )
        if self._stopping:
            status = "closing"
        elif healthy == len(expected) and healthy == self.workers:
            status = "ok"
        else:
            status = "degraded"
        payload = {
            "status": status,
            "supervisor": True,
            "gateway": self.gateway,
            "mode": self.mode,
            "workers": self.workers,
            "workers_active": len(self._ready_children()),
            "restarts": self.stats.restarts,
            "registry_version": getattr(
                self.handler, "artifact_version", None
            ),
            "gateway_slices": self.stats.gateway_slices,
            "gateway_retries": self.stats.gateway_retries,
            "workers_detail": {
                str(slot): payloads[slot] for slot in sorted(payloads)
            },
        }
        for field in _SESSION_COUNTS:
            payload[field] = getattr(self.stats, field)
            if field in self._child_counts:
                payload[field] += sum(
                    int(p.get(field, 0)) for p in payloads.values()
                )
        return payload

    async def _exposition(self) -> str:
        """The fleet's ``/metrics``: every registry, merged point-wise.

        The ``repro_http_*`` series come from whoever owns the public
        port — the parent's own in gateway mode, where the children's
        describe the loopback slices, forwards and gathers; the
        children's on a shared port, where the parent's describe the
        status port.
        """

        def public(text: str, owns_port: bool) -> str:
            if owns_port:
                return text
            return "".join(
                line for line in text.splitlines(keepends=True)
                if not _HTTP_SERIES_LINE.match(line)
            )

        texts = [public(self.metrics.render(), self.gateway)]
        for text in (await self._gather_children("/metrics")).values():
            decoded = text.decode("utf-8", errors="replace")
            try:
                parse_exposition(decoded)
            except ValueError:  # pragma: no cover - corrupt child
                continue
            texts.append(public(decoded, not self.gateway))
        requests_lines = ["# TYPE repro_worker_requests_total counter"]
        for slot, body in (await self._gather_children("/healthz")).items():
            try:
                health = json.loads(body)
            except json.JSONDecodeError:  # pragma: no cover - noise
                continue
            requests_lines.append(
                f'repro_worker_requests_total{{worker="{slot}"}} '
                f'{int(health.get("requests", 0))}'
            )
        if len(requests_lines) > 1:
            texts.append("\n".join(requests_lines) + "\n")
        return merge_expositions(texts)

    # -- gateway ------------------------------------------------------- #

    async def _pick_worker(self, timeout: float = 30.0) -> Optional[_Child]:
        assert self._loop is not None
        deadline = self._loop.time() + timeout
        while True:
            ready = self._ready_children()
            if ready:
                child = ready[self._rr % len(ready)]
                self._rr += 1
                return child
            # A drain keeps the children until the parent's port has
            # finished, and restarts none: give up once all are gone.
            if self._loop.time() > deadline or (
                self._stopping and not self._any_alive()
            ):
                return None
            await asyncio.sleep(0.05)

    async def _child_request(self, child: _Child, raw: bytes):
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection("127.0.0.1", child.control_port),
            timeout=10.0,
        )
        try:
            writer.write(raw)
            await writer.drain()
            return await _read_client_response(reader)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _run_slice(self, checkpoint: SliceCheckpoint) -> None:
        while checkpoint.attempts < MAX_SLICE_ATTEMPTS:
            child = await self._pick_worker()
            if child is None:
                raise GatewayError(
                    f"no live worker for slice {checkpoint.index}"
                )
            checkpoint.begin_attempt()
            head = (
                "POST /batch HTTP/1.1\r\nHost: gateway\r\n"
                f"Content-Length: {len(checkpoint.payload)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
            try:
                status, _, body = await self._child_request(
                    child, head + checkpoint.payload
                )
            except (OSError, ValueError, asyncio.IncompleteReadError,
                    asyncio.TimeoutError):
                # The worker died (or was killed) mid-slice: the
                # interrupted checkpoint drops partial output and the
                # slice re-runs, whole, on another worker.
                checkpoint.interrupt()
                self._m_slices.labels("retried").inc()
                self.stats.gateway_retries += 1
                await asyncio.sleep(0.05)
                continue
            if status != 200:
                raise GatewayError(
                    f"worker {child.slot} answered {status} for "
                    f"slice {checkpoint.index}"
                )
            records = body.split(b"\n")
            if records and records[-1] == b"":
                records.pop()
            checkpoint.complete(records)
            self._m_slices.labels("ok").inc()
            self.stats.gateway_slices += 1
            return
        raise GatewayError(
            f"slice {checkpoint.index} failed after "
            f"{checkpoint.attempts} attempts"
        )

    async def _fan_out(self, raw: bytes, write, writer) -> bool:
        """Stream one ``/batch`` body's records through the fleet.

        Slices run concurrently but are written in input order; a
        batch that cannot complete ends with one gateway error record.
        Returns whether every slice came back.
        """
        slices = slice_body(raw, self.slice_lines)
        semaphore = asyncio.Semaphore(max(2, 2 * self.workers))

        async def _bounded(checkpoint: SliceCheckpoint) -> None:
            async with semaphore:
                await self._run_slice(checkpoint)

        tasks = [
            asyncio.ensure_future(_bounded(checkpoint))
            for checkpoint in slices
        ]
        try:
            # Ordered emission: slice k's records go out only after
            # every earlier slice's did — the deterministic merge.
            for task, checkpoint in zip(tasks, slices):
                try:
                    await task
                except GatewayError as exc:
                    write(json.dumps(
                        make_error_record(f"gateway: {exc}"),
                        sort_keys=True,
                    ).encode("utf-8"))
                    return False
                for record in checkpoint.records:
                    write(record)
                await writer.drain()
        finally:
            for task in tasks:
                task.cancel()
        return True

    async def _forward_extract(self, raw: bytes) -> tuple[int, bytes]:
        """One ``/extract`` body through one child: its status and body."""
        head = (
            "POST /extract HTTP/1.1\r\nHost: gateway\r\n"
            f"Content-Length: {len(raw)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        for _ in range(MAX_SLICE_ATTEMPTS):
            child = await self._pick_worker()
            if child is None:
                break
            try:
                status, _, body = await self._child_request(
                    child, head + raw
                )
            except (OSError, ValueError, asyncio.IncompleteReadError,
                    asyncio.TimeoutError):
                await asyncio.sleep(0.05)
                continue
            return status, body
        raise HttpProtocolError(503, "no live worker for /extract")


class _FleetPort(HttpFrontEnd):
    """The supervisor's own port, on the serving tier's one HTTP server.

    Its handler is the supervisor; only the endpoint bodies differ from
    a child's.  ``/healthz`` and ``/metrics`` aggregate the fleet; in
    gateway mode ``/extract`` goes to one child and ``/batch`` is fanned
    across all, while a status port answers both with 404.  Overriding
    both endpoints keeps :meth:`HttpFrontEnd._answer` from ever creating
    its extraction thread here: restarts fork from this process, which
    must never start a thread.
    """

    def __init__(self, supervisor: ServeSupervisor) -> None:
        super().__init__(
            supervisor,
            max_body_bytes=supervisor.max_body_bytes,
            drain_timeout=supervisor.drain_timeout,
            sock=supervisor._listen_sock,
        )
        self.supervisor = supervisor
        if supervisor.gateway:
            # The public port: its clients are the fleet's clients.
            self.stats = supervisor.stats

    def abort_connections(self) -> None:
        """Cut every open connection now (the second SIGINT)."""
        for connection in self._connections.values():
            connection.writer.transport.abort()

    async def _dispatch(self, request, reader, writer) -> bool:
        if not self.supervisor.gateway and request.target in (
            "/extract", "/batch"
        ):
            raise HttpProtocolError(
                404, f"no such endpoint {request.target!r}"
            )
        return await super()._dispatch(request, reader, writer)

    async def _health(self) -> dict:
        return await self.supervisor._health()

    async def _exposition(self) -> str:
        return await self.supervisor._exposition()

    async def _whole_body(self, request, reader, writer) -> bytes:
        body = _framed_body(request, reader, self.max_body_bytes)
        self._answer_expect(request, writer)
        return await _read_whole_body(body, self.max_body_bytes)

    async def _extract_admitted(self, request, reader, writer) -> bool:
        raw = await self._whole_body(request, reader, writer)
        status, body = await self.supervisor._forward_extract(raw)
        keep_alive = request.keep_alive and not self._closing
        _write_payload_response(writer, status, body, keep_alive)
        self._count_request("/extract", status)
        return keep_alive

    async def _batch_admitted(self, request, reader, writer) -> bool:
        raw = await self._whole_body(request, reader, writer)
        write, chunked = _open_record_stream(request, writer)
        clean = await self.supervisor._fan_out(raw, write, writer)
        if chunked:
            writer.write(b"0\r\n\r\n")
        self._count_request("/batch", 200)
        await writer.drain()
        return (
            clean
            and chunked
            and request.keep_alive
            and not self._closing
        )


async def _read_client_response(reader) -> tuple:
    """Parse one child HTTP response fully: ``(status, headers, body)``.

    Raises :class:`asyncio.IncompleteReadError` when the connection
    dies before the response is complete — the gateway's mid-slice
    worker-death signal.
    """
    status_line = await reader.readline()
    if not status_line:
        raise asyncio.IncompleteReadError(b"", 1)
    status = int(status_line.split(None, 2)[1])
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise asyncio.IncompleteReadError(b"", 1)
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    if status == 100:
        # Interim response: the real one follows.
        return await _read_client_response(reader)
    if headers.get("transfer-encoding", "").lower() == "chunked":
        body = bytearray()
        while True:
            size_line = await reader.readline()
            if not size_line:
                raise asyncio.IncompleteReadError(b"", 1)
            size = int(size_line.decode("latin-1").strip().split(";")[0], 16)
            if size == 0:
                while True:
                    trailer = await reader.readline()
                    if trailer in (b"\r\n", b"\n", b""):
                        break
                break
            chunk = await reader.readexactly(size + 2)
            body.extend(chunk[:-2])
        return status, headers, bytes(body)
    length = headers.get("content-length")
    if length is not None:
        return status, headers, await reader.readexactly(int(length))
    return status, headers, await reader.read()
