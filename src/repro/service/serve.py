"""Online serving: one request-processing core, two front-ends.

``serve`` reads ``{"url", "html"}`` JSON requests and writes one record
line per request — a served record, an unroutable record, or an error
record.  Every front-end drives the same :class:`ServeHandler`, which
wraps a single-page **inline** :class:`~repro.service.runtime.
StreamingRuntime` (error containment on, post-processing identical to
batch), so a page served online yields byte-for-byte the same values a
batch run would emit:

* :func:`serve_async` is the stdin front-end: reads never block
  extraction, up to ``max_inflight`` pages are processed concurrently
  on a thread pool, and an :class:`~repro.service.runtime.
  OrderedEmitter` releases output lines strictly in input order, so
  the stream is identical to one-line-at-a-time processing.  The
  in-flight bound is the memory bound (backpressure: the reader stops
  admitting lines while the window is full) and also caps how far the
  reorder buffer can grow;
* :class:`~repro.service.http.HttpFrontEnd` (``serve --http``) exposes
  the same contract over a socket; its batch path runs the same
  :class:`AsyncLinePipeline` as :func:`serve_async`.

Shared robustness policy (one definition, every front-end):

* a closed downstream consumer (``BrokenPipeError``, or a stream
  object closed under us) stops the session cleanly instead of
  crashing it — :func:`write_line_to`;
* undecodable input surfaces as error records, with one
  *consecutive*-failure cap (:class:`ServePolicy`) before the loop
  gives up rather than spins;
* a handler crash that escapes containment becomes an error record in
  that request's slot, never a damming of the output stream —
  :func:`contained_handle`;
* interruption mid-stream (``KeyboardInterrupt``, task cancellation)
  drains what is in flight, flushes the output, and reports itself on
  :attr:`ServeStats.interrupted`, so partial runs stay audit-readable
  line by line.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.repository import RuleRepository
from repro.errors import HtmlParseError
from repro.extraction.postprocess import PostProcessor
from repro.service.metrics import (
    NULL_METRICS,
    AdmissionController,
    default_registry,
)
from repro.service.router import ClusterRouter
from repro.service.runtime import (
    IterablePageSource,
    OrderedEmitter,
    StreamingRuntime,
)
from repro.service.sink import (
    CollectingSink,
    make_error_record,
    make_unroutable_record,
)
from repro.sites.page import WebPage

#: ``serve`` gives up (rather than spin) if the input stream raises
#: this many *consecutive* decode errors without yielding a line.
MAX_DECODE_FAILURES = 1000

#: Concurrent pages the async front-ends hold in flight (and the size
#: of their extraction thread pools) unless overridden.
DEFAULT_MAX_INFLIGHT = 8

#: Daemon reader threads the asyncio stdin front-end rotates between.
#: Reads stay strictly sequential (a 1-permit slot serializes them);
#: the rotation exists because a freshly-parked thread resumes past
#: the GIL faster than one still unwinding its previous delivery —
#: with a single reader, each line pays an extra GIL handoff against
#: the extraction workers (measured ~40% throughput loss).
READER_THREADS = 2


@dataclass(frozen=True)
class ServePolicy:
    """The serving-loop robustness knobs, shared by every front-end.

    The policy lives on the :class:`ServeHandler` every front-end
    shares, so the stdin loop and the HTTP front-end can never disagree
    about when to give up on a broken input stream or how many pages
    to hold in flight.

    Args:
        max_decode_failures: consecutive undecodable reads before the
            loop gives up (the counter resets on any successful read).
        max_inflight: concurrent pages an async front-end admits — its
            memory bound and thread-pool size.
        rate_limit: per-client admitted requests/second at the HTTP
            ingress; over-rate clients get ``429`` with ``Retry-After``
            (0 — the default — disables rate limiting).
        rate_burst: per-client token-bucket burst capacity (``None``
            defaults to ``rate_limit`` rounded up, minimum 1).
        max_concurrent_requests: in-flight HTTP request bound across
            all clients; beyond it requests are shed with ``503`` and
            ``Retry-After`` (0 — the default — disables shedding).
            Distinct from ``max_inflight``: that bounds *pages* inside
            one batch pipeline, this bounds whole requests.
    """

    max_decode_failures: int = MAX_DECODE_FAILURES
    max_inflight: int = DEFAULT_MAX_INFLIGHT
    rate_limit: float = 0.0
    rate_burst: Optional[int] = None
    max_concurrent_requests: int = 0

    def __post_init__(self) -> None:
        if self.max_decode_failures < 1:
            raise ValueError("max_decode_failures must be >= 1")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.rate_limit < 0:
            raise ValueError("rate_limit must be >= 0 (0 disables)")
        if self.rate_burst is not None and self.rate_burst < 1:
            raise ValueError("rate_burst must be >= 1")
        if self.max_concurrent_requests < 0:
            raise ValueError(
                "max_concurrent_requests must be >= 0 (0 disables)"
            )


class ServeHandler:
    """Turn one request line into one response line.

    Args:
        repository: the served rules.
        router: route each page by signature; mutually exclusive in
            spirit with ``cluster`` (the router wins when both given).
        cluster: serve every page with this cluster's rules.
        postprocessor: optional value clean-up, as in batch.
        adapter: an :class:`~repro.service.adapt.AdaptiveRouter`
            (mutually exclusive with ``router``): pages route through
            it, extraction outcomes feed back into its drift monitor,
            and it refits the underlying router across requests —
            ``serve --adapt``.
        policy: the shared :class:`ServePolicy`; front-ends default
            their decode-failure cap, in-flight bound and admission
            limits from it.
        metrics: a :class:`~repro.service.metrics.MetricsRegistry` for
            request latency/outcome series and admission counters
            (default: the process-wide registry, which is what
            ``GET /metrics`` renders).

    Thread-safe: the wrapped inline runtime keeps no per-run state
    (and the adapter guards its own), so the async front-ends call
    :meth:`handle_line` from many worker threads at once.
    """

    def __init__(
        self,
        repository: RuleRepository,
        router: Optional[ClusterRouter] = None,
        cluster: Optional[str] = None,
        postprocessor: Optional[PostProcessor] = None,
        adapter=None,
        policy: Optional[ServePolicy] = None,
        metrics=None,
        artifact_version: Optional[str] = None,
    ) -> None:
        if adapter is not None and router is not None:
            raise ValueError("pass router or adapter, not both")
        if router is None and adapter is None and not cluster:
            raise ValueError(
                "ServeHandler needs a router, an adapter or a cluster"
            )
        self.router = adapter if adapter is not None else router
        self.adapter = adapter
        self.cluster = cluster
        #: The pinned registry version this handler serves, when the
        #: artifact came out of a registry — the supervisor compiles
        #: once in the parent and stamps the same version into every
        #: forked child, so /healthz can prove fleet consistency.
        self.artifact_version = artifact_version
        self.policy = policy if policy is not None else ServePolicy()
        self.metrics = metrics if metrics is not None else default_registry()
        self._m_request_seconds = self.metrics.from_spec(
            "repro_request_seconds"
        )
        self._m_requests = self.metrics.from_spec("repro_requests_total")
        self.admission = AdmissionController(
            rate_limit=self.policy.rate_limit,
            rate_burst=self.policy.rate_burst,
            max_concurrent=self.policy.max_concurrent_requests,
            metrics=self.metrics,
        )
        self.runtime = StreamingRuntime(
            repository,
            router=router,
            postprocessor=postprocessor,
            workers=1,
            executor="inline",
            chunk_size=1,
            contain_errors=True,
            adapter=adapter,
            metrics=self.metrics,
        )

    @property
    def deployer(self):
        """The adapter's canary controller, if one is attached."""
        return getattr(self.adapter, "deployer", None)

    def handle_line(self, line: str) -> tuple[str, bool]:
        """One request line in, one JSON response line out.

        Returns ``(response line, served)`` — ``served`` is True only
        for a successfully extracted page (the session's counter).
        Never raises on bad input: malformed JSON, missing/mistyped
        fields and unparseable HTML come back as error records.
        """
        url: Optional[str] = None
        try:
            request = json.loads(line)
            url, html = request["url"], request["html"]
            if not isinstance(url, str) or not isinstance(html, str):
                raise TypeError("url and html must be strings")
            page = WebPage(url=url, html=html)
            page.root_element  # parse eagerly so bad HTML fails here
        except (json.JSONDecodeError, KeyError, TypeError,
                HtmlParseError) as exc:
            return _dumps(make_error_record(str(exc), url=url)), False
        return self.handle_page(page)

    def handle_page(self, page: WebPage) -> tuple[str, bool]:
        """Route and extract one parsed page through the runtime."""
        if self.router is None and self.cluster:
            page.cluster_hint = self.cluster
        sink = CollectingSink()
        self.runtime.run(IterablePageSource([page]), sink)
        if sink.records:
            record = sink.records[0]
            return _dumps({
                "url": record.url,
                "cluster": record.cluster,
                "values": record.values,
                "failures": [list(f) for f in record.failures],
            }), True
        if sink.errors:
            return _dumps(sink.errors[0]), False
        # Unroutable, or routed to a cluster with no rules: same
        # auditable gap either way.
        return _dumps(make_unroutable_record(page.url)), False


def _dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def contained_handle(handler: ServeHandler, line: str) -> tuple[str, bool]:
    """``handle_line`` with last-resort containment, for every loop.

    The handler contains its own errors; anything that still escapes
    (a router bug, RecursionError from a pathological page) must not
    kill the serving loop — or, in the async front-ends, leave a
    sequence slot un-emitted and dam every later response behind it.

    This is also the one chokepoint every front-end funnels requests
    through, so the request latency histogram and per-outcome counter
    live here (instruments are pre-bound on the handler; bare test
    handlers without them run uninstrumented).
    """
    started = time.perf_counter()
    try:
        outcome = handler.handle_line(line)
    except Exception as exc:
        outcome = (
            _dumps(make_error_record(f"{type(exc).__name__}: {exc}")),
            False,
        )
    seconds_hist = getattr(handler, "_m_request_seconds", None)
    if seconds_hist is not None:
        seconds_hist.observe(time.perf_counter() - started)
        handler._m_requests.labels(
            "served" if outcome[1] else "error"
        ).inc()
    return outcome


def write_line_to(stream, line: str) -> bool:
    """One whole response line to a possibly-dying output stream.

    The line and its newline go down in a single ``write`` call (so an
    interrupt can never leave a half-record on the stream) followed by
    a flush.  Returns ``False`` when the consumer has closed the
    output — a real pipe raises ``BrokenPipeError``, a stream object
    closed under us raises ``ValueError`` — which every front-end
    treats as a clean end of session rather than a crash.

    ``UnicodeEncodeError`` (a ``ValueError`` subclass — an output
    stream whose encoding cannot represent a record character) is
    deliberately *not* treated as the consumer hanging up: that would
    silently drop every remaining page behind an "output closed"
    report.  It propagates loudly instead.
    """
    try:
        stream.write(line + "\n")
        stream.flush()
        return True
    except BrokenPipeError:
        return False
    except UnicodeError:
        raise
    except ValueError:
        return False


def _flush_quietly(stream) -> None:
    """Best-effort flush on the way out of an interrupted session."""
    try:
        stream.flush()
    except (OSError, ValueError):
        pass


# --------------------------------------------------------------------- #
# Session accounting
# --------------------------------------------------------------------- #


@dataclass
class ServeStats:
    """What one serve session did (every front-end reports this)."""

    served: int = 0
    #: True when the consecutive-decode-failure cap tripped.
    gave_up: bool = False
    #: True when the consumer closed our output mid-run.
    output_closed: bool = False
    #: True when the session was interrupted mid-stream
    #: (``KeyboardInterrupt`` / task cancellation); whatever was in
    #: flight has been drained and flushed, line-complete.
    interrupted: bool = False
    #: Drift events / refits the handler's adapter performed during
    #: this session (0 without ``--adapt``).
    drift_events: int = 0
    refits: int = 0
    #: Canary verdicts the adapter's deployer reached during this
    #: session (0 without ``--registry``/``--canary-fraction``).
    promotions: int = 0
    rollbacks: int = 0


def _adopt_adapter_counts(handler, stats: ServeStats) -> None:
    adapter = getattr(handler, "adapter", None)
    if adapter is not None:
        stats.drift_events = adapter.drift_events
        stats.refits = adapter.refits
        deployer = getattr(adapter, "deployer", None)
        if deployer is not None:
            stats.promotions = deployer.promotions
            stats.rollbacks = deployer.rollbacks


def _policy_of(handler) -> ServePolicy:
    policy = getattr(handler, "policy", None)
    return policy if policy is not None else ServePolicy()


def _metrics_of(handler):
    """The handler's registry (bare test handlers run uninstrumented)."""
    metrics = getattr(handler, "metrics", None)
    return metrics if metrics is not None else NULL_METRICS


# --------------------------------------------------------------------- #
# The shared async machinery
# --------------------------------------------------------------------- #


class AsyncLinePipeline:
    """Bounded in-flight, input-order line processing.

    The core both async front-ends share — :func:`serve_async` over
    stdin and the HTTP batch path (:mod:`repro.service.http`): request
    lines are extracted concurrently on a thread pool, response lines
    leave strictly in input order, and ``max_inflight`` is the
    *memory* bound, not just a concurrency bound — a sequence slot is
    acquired at admission and released only when its response line
    leaves the reorder buffer, so a slow head-of-line page stalls
    admission instead of letting completed outcomes pile up behind it.
    Progress is always possible: when every slot is taken, the
    blocking sequence is by construction a still-running page, and its
    completion releases the whole contiguous run behind it.

    Args:
        handler: the shared :class:`ServeHandler` (or anything with a
            ``handle_line``); its :class:`ServePolicy` supplies the
            defaults.
        pool: the executor running ``handle_line`` calls.
        write: ``write(line) -> bool`` — emit one response line;
            ``False`` means the consumer closed the output (the
            pipeline stops counting and suppresses further writes,
            and ``on_output_closed`` fires once).
        stats: the session's :class:`ServeStats` (shared with the
            caller, which watches ``output_closed``/``gave_up``).
    """

    def __init__(
        self,
        handler,
        pool,
        write: Callable[[str], bool],
        stats: ServeStats,
        max_inflight: Optional[int] = None,
        max_decode_failures: Optional[int] = None,
        on_output_closed: Optional[Callable[[], None]] = None,
    ) -> None:
        policy = _policy_of(handler)
        self.max_inflight = (
            max_inflight if max_inflight is not None else policy.max_inflight
        )
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.max_decode_failures = (
            max_decode_failures
            if max_decode_failures is not None
            else policy.max_decode_failures
        )
        self.handler = handler
        self.pool = pool
        self.write = write
        self.stats = stats
        self.on_output_closed = on_output_closed
        self.loop = asyncio.get_running_loop()
        self.semaphore = asyncio.Semaphore(self.max_inflight)
        self.emitter = OrderedEmitter(self._release)
        self.tasks: set[asyncio.Task] = set()
        self.admitted = 0
        self._decode_failures = 0
        self._write_failure: Optional[BaseException] = None
        self._m_inflight = _metrics_of(handler).from_spec(
            "repro_inflight_pages"
        )

    def _release(self, payload: tuple[str, bool]) -> None:
        line, served = payload
        try:
            if self._write_failure is None and not self.stats.output_closed:
                if self.write(line):
                    if served:
                        self.stats.served += 1
                else:
                    self.stats.output_closed = True
                    if self.on_output_closed is not None:
                        self.on_output_closed()
        except BaseException as exc:
            # A write that *raises* (UnicodeEncodeError on a narrow
            # output encoding, say — deliberately not part of
            # write_line_to's closed-consumer protocol) runs inside a
            # worker task, where raising through would leak this slot
            # and silently deadlock admission once the window fills.
            # Park it; submit()/drain() re-raise it on the session's
            # own stack.
            self._write_failure = exc
        finally:
            # The slot frees only now, when this sequence's output has
            # left the reorder buffer — that bounds held memory.
            self.semaphore.release()
            self._m_inflight.dec()

    def _check_write_failure(self) -> None:
        if self._write_failure is not None:
            raise self._write_failure

    async def _process(self, seq: int, line: str) -> None:
        try:
            outcome = await self.loop.run_in_executor(
                self.pool, contained_handle, self.handler, line
            )
        except Exception as exc:
            # contained_handle already catches handler crashes; this
            # guards the executor hand-off itself, so the sequence
            # slot can never go un-emitted and dam the stream.
            outcome = (
                _dumps(make_error_record(f"{type(exc).__name__}: {exc}")),
                False,
            )
        self.emitter.emit(seq, outcome)

    def note_read_ok(self) -> None:
        """Any successful read resets the *consecutive* failure count."""
        self._decode_failures = 0

    async def submit(self, line: str) -> None:
        """Admit one request line (blocks while the window is full)."""
        self._check_write_failure()
        self._decode_failures = 0
        await self.semaphore.acquire()
        self._m_inflight.inc()
        task = self.loop.create_task(self._process(self.admitted, line))
        self.admitted += 1
        self.tasks.add(task)
        task.add_done_callback(self.tasks.discard)

    async def submit_decode_failure(self, exc: UnicodeDecodeError) -> bool:
        """Emit an undecodable-input error record in this slot's turn.

        Returns ``True`` when the consecutive-failure cap tripped (the
        caller should stop the session; ``stats.gave_up`` is set).
        """
        self._check_write_failure()
        await self.semaphore.acquire()
        self._m_inflight.inc()
        self.emitter.emit(self.admitted, (
            _dumps(make_error_record(f"undecodable input: {exc}")),
            False,
        ))
        self.admitted += 1
        self._decode_failures += 1
        if self._decode_failures >= self.max_decode_failures:
            self.stats.gave_up = True
            return True
        return False

    async def drain(self) -> None:
        """Wait out every in-flight page (their outcomes emit in order).

        Survives being called from an interrupted session: a worker
        task that was itself cancelled is tolerated (its slot stays
        unreleased, so only the contiguous completed prefix reaches
        the output — whole lines, never a truncated one).  A write
        failure parked by :meth:`_release` re-raises here.
        """
        if self.tasks:
            await asyncio.gather(*list(self.tasks), return_exceptions=True)
        self._check_write_failure()


class _ReadFailed:
    """A reader-thread exception in transit to the event loop."""

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


async def serve_async(
    handler: ServeHandler,
    stdin,
    stdout,
    max_inflight: Optional[int] = None,
    max_decode_failures: Optional[int] = None,
    on_output_closed: Optional[Callable[[], None]] = None,
) -> ServeStats:
    """Serve a line stream without ever blocking reads on extraction.

    Reads run on a small rotation of **daemon** threads (strictly one
    read at a time, one line of lookahead, so reading the next line
    overlaps extraction of the admitted ones — see
    :data:`READER_THREADS` for why it is a rotation); up to
    ``max_inflight`` request lines are extracted
    concurrently on a thread pool; output lines are released strictly
    in input order.  Works with any file-like pair — real pipes, ttys,
    or in-memory streams.  Both limits default from the handler's
    :class:`ServePolicy`.

    Blank lines are skipped, undecodable reads become error records
    (capped on *consecutive* failures), EOF on a final unterminated
    line still serves it, and a consumer closing the output stops the
    session cleanly (``on_output_closed`` fires once, before the
    stop).  On
    cancellation or ``KeyboardInterrupt`` mid-stream the in-flight
    pages are drained, their completed contiguous prefix is flushed
    line-complete, and :attr:`ServeStats.interrupted` is set — the
    daemon reader means a session interrupted while ``stdin`` is
    quiet still exits promptly instead of waiting on a ``readline``
    no signal can unblock.
    """
    stats = ServeStats()

    def _write(line: str) -> bool:
        return write_line_to(stdout, line)

    loop = asyncio.get_running_loop()
    policy = _policy_of(handler)
    inflight = max_inflight if max_inflight is not None else policy.max_inflight
    if inflight < 1:
        raise ValueError("max_inflight must be >= 1")

    queue: asyncio.Queue = asyncio.Queue()
    read_slots = threading.Semaphore(1)
    stop_reading = threading.Event()

    def _deliver(item) -> None:
        try:
            loop.call_soon_threadsafe(queue.put_nowait, item)
        except RuntimeError:  # loop already closed; session is over
            pass

    def _read_loop() -> None:
        while True:
            read_slots.acquire()
            if stop_reading.is_set():
                return
            try:
                item = stdin.readline()
            except UnicodeDecodeError as exc:
                item = exc
            except BaseException as exc:
                _deliver(_ReadFailed(exc))
                return
            _deliver(item)
            if isinstance(item, str) and not item:
                return  # EOF delivered; nothing left to read

    readers = [
        threading.Thread(
            target=_read_loop, name=f"serve-stdin-reader-{n}", daemon=True
        )
        for n in range(READER_THREADS)
    ]
    for reader in readers:
        reader.start()
    with ThreadPoolExecutor(max_workers=inflight) as pool:
        pipeline = AsyncLinePipeline(
            handler, pool, _write, stats,
            max_inflight=inflight,
            max_decode_failures=max_decode_failures,
            on_output_closed=on_output_closed,
        )
        try:
            while not stats.output_closed:
                item = await queue.get()
                if isinstance(item, _ReadFailed):
                    raise item.exc
                if isinstance(item, str) and not item:
                    # EOF — and no permit release: waking the spare
                    # reader now would cost one more blocking readline
                    # (on a tty, that read would eat keystrokes typed
                    # while the session drains).
                    break
                # The slot frees at *consumption*: the reader fetches
                # the next line while this one waits for admission, so
                # production latency overlaps even a full window — one
                # line of lookahead, never more.
                read_slots.release()
                if isinstance(item, UnicodeDecodeError):
                    if await pipeline.submit_decode_failure(item):
                        break
                    continue
                pipeline.note_read_ok()
                line = item.strip()
                if not line:
                    continue
                await pipeline.submit(line)
        except (asyncio.CancelledError, KeyboardInterrupt):
            stats.interrupted = True
        finally:
            # Wake readers waiting for their slot so the threads exit;
            # one blocked mid-``readline`` is abandoned (daemon) —
            # no join, so interrupt/teardown can never stall on it.
            stop_reading.set()
            for _ in readers:
                read_slots.release()
            await pipeline.drain()
            if stats.interrupted:
                _flush_quietly(stdout)
    _adopt_adapter_counts(handler, stats)
    return stats
