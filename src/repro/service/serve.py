"""Online serving: one request-processing core, two front-ends.

``serve`` reads ``{"url", "html"}`` JSON requests and writes one record
line per request — a served record, an unroutable record, or an error
record.  Every front-end drives the same :class:`ServeHandler`, which
calls :meth:`~repro.service.runtime.StreamingRuntime.process_page` — the
route and outcome steps (post-processing included) a batch run's drain
loop uses — so a page served online yields byte-for-byte the same
values a batch run would emit.  A page runs on the thread that read
it: ``handle_line`` holds the GIL, so more threads in one process add
no parallelism (processes do: the fleet and the batch pool).

* :func:`serve_lines` is the stdin front-end: read a line, answer it,
  write the record, read the next;
* :class:`~repro.service.http.HttpFrontEnd` (``serve --http``) exposes
  the same contract over a socket, answering each request line on its
  event loop (a long line goes to one extraction thread).

Shared robustness policy (one definition, every front-end):

* a closed downstream consumer (``BrokenPipeError``, or a stream
  object closed under us) stops the session cleanly instead of
  crashing it — :func:`write_line_to`;
* undecodable input surfaces as error records, with one
  *consecutive*-failure cap (:class:`ServePolicy`) before the loop
  gives up rather than spins;
* a handler crash that escapes containment becomes an error record in
  that request's place — :func:`contained_handle`;
* interruption mid-stream (``KeyboardInterrupt``) flushes the output
  and reports itself on :attr:`ServeStats.interrupted`; every record
  written by then is whole, so partial runs stay audit-readable line
  by line.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.repository import RuleRepository
from repro.extraction.postprocess import PostProcessor
from repro.service.metrics import (
    NULL_METRICS,
    AdmissionController,
    default_registry,
)
from repro.service.router import ClusterRouter
from repro.service.runtime import StreamingRuntime
from repro.service.sink import (
    PageRecord,
    make_error_record,
    make_unroutable_record,
)
from repro.sites.page import WebPage

#: ``serve`` gives up (rather than spin) if the input stream raises
#: this many *consecutive* decode errors without yielding a line.
MAX_DECODE_FAILURES = 1000


@dataclass(frozen=True)
class ServePolicy:
    """The serving-loop robustness knobs, shared by every front-end.

    The policy lives on the :class:`ServeHandler` every front-end
    shares, so the stdin loop and the HTTP front-end can never disagree
    about when to give up on a broken input stream.

    Args:
        max_decode_failures: consecutive undecodable reads before the
            loop gives up (the counter resets on any successful read).
        rate_limit: per-client admitted requests/second at the HTTP
            ingress; over-rate clients get ``429`` with ``Retry-After``
            (0 — the default — disables rate limiting).
        rate_burst: per-client token-bucket burst capacity (``None``
            defaults to ``rate_limit`` rounded up, minimum 1).
        max_concurrent_requests: in-flight HTTP request bound across
            all clients; beyond it requests are shed with ``503`` and
            ``Retry-After`` (0 — the default — disables shedding).
    """

    max_decode_failures: int = MAX_DECODE_FAILURES
    rate_limit: float = 0.0
    rate_burst: Optional[int] = None
    max_concurrent_requests: int = 0

    def __post_init__(self) -> None:
        if self.max_decode_failures < 1:
            raise ValueError("max_decode_failures must be >= 1")
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
        policy: the shared :class:`ServePolicy`; front-ends take their
            decode-failure cap and admission limits from it.
        metrics: a :class:`~repro.service.metrics.MetricsRegistry` for
            request latency/outcome series and admission counters
            (default: the process-wide registry, which is what
            ``GET /metrics`` renders).

    Thread-safe: :meth:`~repro.service.runtime.StreamingRuntime.
    process_page` keeps no state between calls (and the adapter guards
    its own), so the HTTP front-end may answer a short line on its
    event loop while its extraction thread answers a long one.
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
        Never raises on bad input: malformed JSON and missing or
        mistyped fields come back as error records, and the parser
        accepts any string.  The page is parsed once, in the runtime's
        per-page step, under ``repro_parse_seconds``.
        """
        url: Optional[str] = None
        try:
            request = json.loads(line)
            url, html = request["url"], request["html"]
            if not isinstance(url, str) or not isinstance(html, str):
                raise TypeError("url and html must be strings")
            page = WebPage(url=url, html=html)
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            return _dumps(make_error_record(str(exc), url=url)), False
        return self.handle_page(page)

    def handle_page(self, page: WebPage) -> tuple[str, bool]:
        """Parse, route and extract one page through the runtime."""
        if self.router is None and self.cluster:
            page.cluster_hint = self.cluster
        result = self.runtime.process_page(page)
        if isinstance(result, PageRecord):
            return _dumps({
                "url": result.url,
                "cluster": result.cluster,
                "values": result.values,
                "failures": [list(f) for f in result.failures],
            }), True
        if result is not None:
            return _dumps(result), False
        # Unroutable, or routed to a cluster with no rules: same
        # auditable gap either way.
        return _dumps(make_unroutable_record(page.url)), False


def _dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def contained_handle(handler: ServeHandler, line: str) -> tuple[str, bool]:
    """``handle_line`` with last-resort containment, for every loop.

    The handler answers bad input and raised extractions itself;
    anything that still escapes (a router bug, RecursionError from a
    pathological page) becomes that request's error record instead of
    killing the serving loop.

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
    """What one :func:`serve_lines` session did."""

    served: int = 0
    #: True when the consecutive-decode-failure cap tripped.
    gave_up: bool = False
    #: True when the consumer closed our output mid-run.
    output_closed: bool = False
    #: True when the session was interrupted mid-stream
    #: (``KeyboardInterrupt``); the output was flushed, line-complete.
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


def _undecodable_record(exc: UnicodeDecodeError) -> tuple[str, bool]:
    """The error record an undecodable input line gets, every front-end."""
    return _dumps(make_error_record(f"undecodable input: {exc}")), False


def serve_lines(
    handler: ServeHandler,
    stdin,
    stdout,
    on_output_closed: Optional[Callable[[], None]] = None,
) -> ServeStats:
    """Serve a line stream: read a line, answer it, write its record.

    Works with any file-like pair — real pipes, ttys, or in-memory
    streams.  Blank lines are skipped, undecodable reads become error
    records (the handler's :class:`ServePolicy` caps *consecutive*
    failures), EOF on a final unterminated line still serves it, and a
    consumer closing the output stops the session cleanly
    (``on_output_closed`` fires once, before the stop).  A
    ``KeyboardInterrupt`` — raised in this thread, even out of a
    blocked ``readline`` — ends the session with the output flushed
    and :attr:`ServeStats.interrupted` set; every record written
    before it is whole.
    """
    stats = ServeStats()
    max_failures = _policy_of(handler).max_decode_failures
    failures = 0
    try:
        while True:
            try:
                line = stdin.readline()
            except UnicodeDecodeError as exc:
                failures += 1
                record, served = _undecodable_record(exc)
            else:
                if not line:
                    break
                failures = 0
                line = line.strip()
                if not line:
                    continue
                record, served = contained_handle(handler, line)
            if not write_line_to(stdout, record):
                stats.output_closed = True
                if on_output_closed is not None:
                    on_output_closed()
                break
            stats.served += served
            if failures >= max_failures:
                stats.gave_up = True
                break
    except KeyboardInterrupt:
        stats.interrupted = True
        _flush_quietly(stdout)
    _adopt_adapter_counts(handler, stats)
    return stats
