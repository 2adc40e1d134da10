"""Production observability: metrics, admission control, progress.

Three small, dependency-free layers every entry point shares:

* **Metrics** — monotonic counters, gauges and fixed-bucket latency
  histograms (:class:`MetricsRegistry`), rendered in the Prometheus
  text exposition format (``GET /metrics`` on the HTTP ingress,
  ``--metrics PATH`` for batch/shard runs).  Every series the service
  layer emits is declared once in :data:`METRIC_SPECS`, so the
  reference table in ``docs/metrics.md`` can be generated from the
  same source of truth the registries instantiate from
  (:func:`render_metrics_table`) and a test can hold the two in sync.
* **Admission control** — per-client :class:`TokenBucket` rate limits
  and in-flight load shedding (:class:`AdmissionController`), the
  policy behind HTTP 429/503 + ``Retry-After`` responses.  Shed
  decisions are themselves counted.
* **Progress & cancellation** — structured JSONL progress lines for
  long batch/shard runs (:class:`ProgressEmitter`) and a cooperative
  :class:`CancellationToken` the runtime checks at chunk boundaries,
  so SIGINT drains in-flight work and checkpoints shard manifests
  instead of tearing output mid-record.

Instrumentation must never change output bytes or add measurable
latency: instruments are plain attribute calls guarded by one lock
each, and any component can be built with :data:`NULL_METRICS` to run
fully uninstrumented (what ``bench_metrics_overhead.py`` compares
against — the CI gate keeps the instrumented serve path at >= 0.95x
the uninstrumented one).
"""

from __future__ import annotations

import bisect
import json
import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "CancellationToken",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSpec",
    "METRIC_SPECS",
    "MetricsRegistry",
    "NULL_METRICS",
    "NullMetricsRegistry",
    "ProgressEmitter",
    "TokenBucket",
    "default_registry",
    "render_metrics_table",
]

#: Default latency histogram buckets (seconds) — wide enough for a
#: serve request (sub-millisecond to tens of seconds).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Fine-grained buckets for the routing stage, which completes in
#: microseconds — the default buckets would collapse it into one bin.
FINE_BUCKETS: Tuple[float, ...] = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001,
    0.0025, 0.005, 0.01, 0.05, 0.25, 1.0,
)


# --------------------------------------------------------------------- #
# The metric catalogue (single source of truth for docs/metrics.md)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class MetricSpec:
    """One declared series: name, kind, labels and meaning.

    Every instrument the service layer registers comes from this
    catalogue (:meth:`MetricsRegistry.from_spec`), which is also what
    :func:`render_metrics_table` renders into ``docs/metrics.md`` — so
    the documentation cannot drift from the registered series without
    the sync test failing.
    """

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    labels: Tuple[str, ...]
    help: str
    buckets: Tuple[float, ...] = DEFAULT_BUCKETS


METRIC_SPECS: Tuple[MetricSpec, ...] = (
    MetricSpec(
        "repro_pages_routed_total", "counter", ("cluster",),
        "Pages the runtime routed to a cluster with compiled rules.",
    ),
    MetricSpec(
        "repro_pages_unroutable_total", "counter", (),
        "Pages no cluster profile (or hint) matched.",
    ),
    MetricSpec(
        "repro_pages_skipped_total", "counter", (),
        "Pages routed to a cluster the repository has no rules for.",
    ),
    MetricSpec(
        "repro_pages_failed_total", "counter", ("cluster",),
        "Pages whose extraction raised in serve (answered with an "
        "error record).",
    ),
    MetricSpec(
        "repro_parse_seconds", "histogram", (),
        "HTML parse latency per page, timed where the page is parsed "
        "(seconds).",
        buckets=FINE_BUCKETS,
    ),
    MetricSpec(
        "repro_signature_seconds", "histogram", (),
        "Routing-signature latency per page, the part of "
        "repro_route_seconds before scoring (seconds).",
        buckets=FINE_BUCKETS,
    ),
    MetricSpec(
        "repro_route_seconds", "histogram", (),
        "Routing latency per page: signature and scoring, parse "
        "excluded (seconds).",
        buckets=FINE_BUCKETS,
    ),
    MetricSpec(
        "repro_extract_seconds", "histogram", ("cluster",),
        "Extraction latency per page, timed around that page alone "
        "(seconds).",
    ),
    MetricSpec(
        "repro_automaton_pages_total", "counter", ("cluster",),
        "Pages extracted through the single-pass automaton scan.",
    ),
    MetricSpec(
        "repro_request_seconds", "histogram", (),
        "Serve request wall latency per line, every front-end (seconds).",
    ),
    MetricSpec(
        "repro_requests_total", "counter", ("outcome",),
        "Serve requests by outcome (served or error).",
    ),
    MetricSpec(
        "repro_inflight_requests", "gauge", (),
        "Requests currently holding an admission-control slot.",
    ),
    MetricSpec(
        "repro_admission_rejected_total", "counter", ("reason",),
        "Requests refused by admission control "
        "(rate-limited => 429, saturated => 503).",
    ),
    MetricSpec(
        "repro_http_requests_total", "counter", ("endpoint", "status"),
        "HTTP requests by endpoint and response status.",
    ),
    MetricSpec(
        "repro_http_open_connections", "gauge", (),
        "Currently open HTTP connections.",
    ),
    MetricSpec(
        "repro_http_drained_connections_total", "counter", (),
        "Connections closed by graceful shutdown's drain path.",
    ),
    MetricSpec(
        "repro_drift_events_total", "counter", ("kind",),
        "Drift events raised by the adaptive layer, by trigger kind.",
    ),
    MetricSpec(
        "repro_refits_total", "counter", (),
        "Router refits performed in answer to drift events.",
    ),
    MetricSpec(
        "repro_canary_shadow_pages_total", "counter", (),
        "Pages shadow-routed by a staged canary candidate.",
    ),
    MetricSpec(
        "repro_canary_promotions_total", "counter", (),
        "Canary candidates promoted to the live router.",
    ),
    MetricSpec(
        "repro_canary_rollbacks_total", "counter", (),
        "Canary candidates rolled back with a logged reason.",
    ),
    MetricSpec(
        "repro_serve_workers_active", "gauge", (),
        "Supervisor ingress children currently alive.",
    ),
    MetricSpec(
        "repro_worker_restarts_total", "counter", ("worker",),
        "Supervisor child restarts after unexpected exits, per slot.",
    ),
    MetricSpec(
        "repro_worker_requests_total", "counter", ("worker",),
        "HTTP requests answered, per supervisor child slot.",
    ),
    MetricSpec(
        "repro_gateway_slices_total", "counter", ("outcome",),
        "Gateway batch slices by outcome (ok or retried).",
    ),
    MetricSpec(
        "repro_lint_findings_total", "counter", ("code",),
        "Analyzer findings surfaced by publish-time lint gates, by "
        "RW code (see docs/lint.md).",
    ),
)

_SPEC_BY_NAME: Dict[str, MetricSpec] = {
    spec.name: spec for spec in METRIC_SPECS
}


def render_metrics_table() -> str:
    """The ``docs/metrics.md`` reference table, straight from the specs.

    Returns a GitHub-flavoured Markdown table with one row per
    declared series; ``docs/metrics.md`` embeds this text verbatim and
    a test regenerates it on every run, so the reference can never
    drift from :data:`METRIC_SPECS`.
    """
    lines = [
        "| Metric | Type | Labels | Meaning |",
        "| --- | --- | --- | --- |",
    ]
    for spec in METRIC_SPECS:
        labels = ", ".join(f"`{label}`" for label in spec.labels) or "-"
        lines.append(
            f"| `{spec.name}` | {spec.kind} | {labels} | {spec.help} |"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Instruments
# --------------------------------------------------------------------- #


def _format_value(value: float) -> str:
    """Prometheus sample-value rendering (integers without the ``.0``)."""
    if value != value or value in (float("inf"), float("-inf")):
        return {float("inf"): "+Inf", float("-inf"): "-Inf"}.get(value, "NaN")
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_pairs(names: Sequence[str], values: Sequence[str]) -> str:
    return ",".join(
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(names, values)
    )


class Counter:
    """A monotonically increasing counter (one labelled child)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current count."""
        return self._value

    def _samples(self, series: str) -> list[str]:
        return [f"{series} {_format_value(self._value)}"]


class Gauge:
    """A value that goes up and down (one labelled child)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the gauge."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        """The current gauge value."""
        return self._value

    def _samples(self, series: str) -> list[str]:
        return [f"{series} {_format_value(self._value)}"]


class Histogram:
    """Fixed-bucket latency histogram (one labelled child).

    Buckets are cumulative in the rendered exposition (per the
    Prometheus format): ``le`` labels carry each upper bound plus the
    implicit ``+Inf``, alongside ``_sum`` and ``_count`` series.
    """

    __slots__ = ("_lock", "buckets", "_counts", "_sum", "_count")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(sorted(buckets))
        if not bounds:
            raise ValueError("a histogram needs at least one bucket")
        self._lock = threading.Lock()
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # + the +Inf bucket
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        """Observations recorded so far."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of every observed value."""
        return self._sum

    def _samples(self, series: str) -> list[str]:
        name, _, labels = series.partition("{")
        labels = labels[:-1]  # strip the closing brace, if any
        lines = []
        cumulative = 0
        with self._lock:
            counts = list(self._counts)
            total, total_sum = self._count, self._sum
        for bound, bucket_count in zip(self.buckets, counts):
            cumulative += bucket_count
            prefix = f"{labels}," if labels else ""
            lines.append(
                f'{name}_bucket{{{prefix}le="{_format_value(bound)}"}} '
                f"{cumulative}"
            )
        prefix = f"{labels}," if labels else ""
        lines.append(f'{name}_bucket{{{prefix}le="+Inf"}} {total}')
        suffix = f"{{{labels}}}" if labels else ""
        lines.append(f"{name}_sum{suffix} {_format_value(total_sum)}")
        lines.append(f"{name}_count{suffix} {total}")
        return lines


_CHILD_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric and its labelled children.

    Label-less families proxy the child interface directly (``inc`` /
    ``set`` / ``observe``), so call sites never branch on whether a
    series carries labels.
    """

    def __init__(self, spec: MetricSpec) -> None:
        self.spec = spec
        self._lock = threading.Lock()
        self._children: "OrderedDict[tuple, object]" = OrderedDict()
        if not spec.labels:
            # Materialise the default child eagerly so an untouched
            # series still renders (operators see an explicit 0, and
            # the docs sync test sees the series exists).
            self._children[()] = self._make_child()
        #: The label-less child the convenience methods below use
        #: without a ``labels()`` call (``None`` when labels are due,
        #: so those methods raise through ``labels()``).
        self._default = self._children.get(())

    def _make_child(self):
        if self.spec.kind == "histogram":
            return Histogram(self.spec.buckets)
        return _CHILD_KINDS[self.spec.kind]()

    def labels(self, *values: str):
        """The child for one label-value tuple (created on first use)."""
        if len(values) != len(self.spec.labels):
            raise ValueError(
                f"{self.spec.name} takes labels {self.spec.labels}, "
                f"got {values!r}"
            )
        key = tuple(str(value) for value in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._children[key] = self._make_child()
        return child

    # -- label-less convenience ----------------------------------------- #

    def inc(self, amount: float = 1.0) -> None:
        """``inc`` on the label-less child (counters and gauges)."""
        (self._default or self.labels()).inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        """``dec`` on the label-less child (gauges)."""
        (self._default or self.labels()).dec(amount)

    def set(self, value: float) -> None:
        """``set`` on the label-less child (gauges)."""
        (self._default or self.labels()).set(value)

    def observe(self, value: float) -> None:
        """``observe`` on the label-less child (histograms)."""
        (self._default or self.labels()).observe(value)

    @property
    def value(self) -> float:
        """The label-less child's current value."""
        return (self._default or self.labels()).value

    def render(self) -> list[str]:
        """This family's exposition lines (HELP, TYPE, every sample)."""
        spec = self.spec
        lines = [
            f"# HELP {spec.name} {spec.help}",
            f"# TYPE {spec.name} {spec.kind}",
        ]
        with self._lock:
            children = list(self._children.items())
        for key, child in sorted(children):
            if key:
                series = (
                    f"{spec.name}{{{_label_pairs(spec.labels, key)}}}"
                )
            else:
                series = spec.name
            lines.extend(child._samples(series))
        return lines


class MetricsRegistry:
    """A family registry rendering the Prometheus text format.

    Thread-safe; families are created once per name and shared by
    every component registering against the same registry.  The
    process-wide default registry (:func:`default_registry`) is what
    CLI entry points and ``GET /metrics`` expose; tests and benchmarks
    build private registries (or :data:`NULL_METRICS`) for isolation.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}

    def register(self, spec: MetricSpec) -> MetricFamily:
        """The family for ``spec`` (created on first registration).

        Raises:
            ValueError: when a family of the same name exists with a
                different kind or label set — two call sites
                disagreeing about a series is a bug, not a merge.
        """
        with self._lock:
            family = self._families.get(spec.name)
            if family is None:
                family = self._families[spec.name] = MetricFamily(spec)
            elif (
                family.spec.kind != spec.kind
                or family.spec.labels != spec.labels
            ):
                raise ValueError(
                    f"metric {spec.name} re-registered as {spec.kind}"
                    f"{spec.labels}, was {family.spec.kind}"
                    f"{family.spec.labels}"
                )
            return family

    def from_spec(self, name: str) -> MetricFamily:
        """The family for a catalogued series name.

        Raises:
            KeyError: when ``name`` is not in :data:`METRIC_SPECS` —
            every service-layer series must be declared (and therefore
            documented) before it can be registered.
        """
        try:
            spec = _SPEC_BY_NAME[name]
        except KeyError:
            raise KeyError(
                f"{name} is not a declared metric "
                "(see METRIC_SPECS in repro.service.metrics)"
            ) from None
        return self.register(spec)

    def counter(
        self, name: str, help: str, labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Register (or fetch) an ad-hoc counter family."""
        return self.register(MetricSpec(name, "counter", tuple(labels), help))

    def gauge(
        self, name: str, help: str, labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Register (or fetch) an ad-hoc gauge family."""
        return self.register(MetricSpec(name, "gauge", tuple(labels), help))

    def histogram(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        """Register (or fetch) an ad-hoc histogram family."""
        return self.register(
            MetricSpec(name, "histogram", tuple(labels), help, tuple(buckets))
        )

    def families(self) -> list[MetricFamily]:
        """Every registered family, name-sorted."""
        with self._lock:
            return [
                self._families[name] for name in sorted(self._families)
            ]

    def render(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        lines: list[str] = []
        for family in self.families():
            lines.extend(family.render())
        return "\n".join(lines) + ("\n" if lines else "")


class _NullInstrument:
    """A do-nothing child/family: the uninstrumented fast path."""

    __slots__ = ()

    def labels(self, *values: str) -> "_NullInstrument":
        """Return self — every label set maps to the same no-op."""
        return self

    def inc(self, amount: float = 1.0) -> None:
        """Discard the increment."""

    def dec(self, amount: float = 1.0) -> None:
        """Discard the decrement."""

    def set(self, value: float) -> None:
        """Discard the assignment."""

    def observe(self, value: float) -> None:
        """Discard the observation."""

    @property
    def value(self) -> float:
        """Always 0."""
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry:
    """A registry whose instruments do nothing.

    Pass this wherever a component takes ``metrics=`` to run it fully
    uninstrumented — the baseline ``bench_metrics_overhead.py``
    measures the instrumented path against.
    """

    def register(self, spec: MetricSpec) -> _NullInstrument:
        """Return the shared no-op instrument."""
        return _NULL_INSTRUMENT

    def from_spec(self, name: str) -> _NullInstrument:
        """Return the shared no-op instrument (name must be declared)."""
        _SPEC_BY_NAME[name]  # same KeyError contract as the real one
        return _NULL_INSTRUMENT

    def counter(self, name, help, labels=()) -> _NullInstrument:
        """Return the shared no-op instrument."""
        return _NULL_INSTRUMENT

    def gauge(self, name, help, labels=()) -> _NullInstrument:
        """Return the shared no-op instrument."""
        return _NULL_INSTRUMENT

    def histogram(self, name, help, labels=(), buckets=()) -> _NullInstrument:
        """Return the shared no-op instrument."""
        return _NULL_INSTRUMENT

    def families(self) -> list:
        """Always empty."""
        return []

    def render(self) -> str:
        """Always empty."""
        return ""


#: The shared do-nothing registry (``metrics=NULL_METRICS`` disables
#: instrumentation on any component).
NULL_METRICS = NullMetricsRegistry()

_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry every component defaults to.

    CLI entry points and ``GET /metrics`` expose this one; components
    built with an explicit ``metrics=`` argument use that instead.
    """
    return _DEFAULT_REGISTRY


# --------------------------------------------------------------------- #
# Admission control
# --------------------------------------------------------------------- #


class TokenBucket:
    """A thread-safe token bucket: ``rate`` tokens/second, cap ``burst``.

    The standard shape: the bucket starts full, each admitted request
    takes one token, and tokens accrue continuously at ``rate`` until
    the bucket holds ``burst`` again — so a client may burst up to
    ``burst`` requests instantly, then sustain ``rate`` per second.

    Args:
        rate: tokens added per second (> 0).
        burst: bucket capacity (>= 1).
        clock: monotonic-seconds source (injectable for tests).

    >>> now = [0.0]
    >>> bucket = TokenBucket(rate=1.0, burst=2, clock=lambda: now[0])
    >>> bucket.try_acquire(), bucket.try_acquire(), bucket.try_acquire()
    (True, True, False)
    >>> now[0] = 1.0  # one second later: exactly one token accrued
    >>> bucket.try_acquire()
    True
    """

    def __init__(
        self,
        rate: float,
        burst: int,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be > 0 tokens/second")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate = float(rate)
        self.burst = int(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._updated = clock()
        self._lock = threading.Lock()

    def _refill_locked(self) -> None:
        now = self._clock()
        elapsed = now - self._updated
        if elapsed > 0:
            self._tokens = min(
                float(self.burst), self._tokens + elapsed * self.rate
            )
        self._updated = now

    def try_acquire(self) -> bool:
        """Take one token if available; never blocks."""
        with self._lock:
            self._refill_locked()
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False

    def retry_after(self) -> float:
        """Seconds until one token will be available (0.0 if one is)."""
        with self._lock:
            self._refill_locked()
            if self._tokens >= 1.0:
                return 0.0
            return (1.0 - self._tokens) / self.rate


@dataclass(frozen=True)
class AdmissionDecision:
    """One admission verdict: admitted, or refused with retry advice."""

    admitted: bool
    #: HTTP status a refusal maps to (429 rate-limited, 503 saturated).
    status: int = 0
    #: ``"rate-limited"`` or ``"saturated"`` when refused.
    reason: str = ""
    #: Seconds the client should wait before retrying (the
    #: ``Retry-After`` header, rounded up to whole seconds on the wire).
    retry_after: float = 0.0

    @property
    def retry_after_seconds(self) -> int:
        """The on-the-wire ``Retry-After`` value: whole seconds, ceil.

        Sub-second waits must round *up*, never truncate: a 429 with
        ``Retry-After: 0`` invites an instant retry storm from clients
        that honour the header literally.  The floor is therefore 1
        even when the bucket reports a 0.0 wait.
        """
        return max(1, math.ceil(self.retry_after))


#: Per-client token buckets kept before the oldest is evicted (an
#: evicted client simply starts over with a full bucket).
DEFAULT_MAX_CLIENTS = 1024


class AdmissionController:
    """Per-client rate limiting plus in-flight load shedding.

    The decision order is deliberate: a client over its own rate gets
    the client-specific 429 even while the server is also saturated —
    429 tells *that* client to slow down, 503 tells *every* client the
    server is full.

    Args:
        rate_limit: per-client admitted requests/second (0 disables
            rate limiting).
        rate_burst: per-client burst capacity (default: ``rate_limit``
            rounded up, minimum 1).
        max_concurrent: in-flight request bound across all clients
            (0 disables shedding).
        shed_retry_after: ``Retry-After`` seconds suggested on a 503
            (a 429's comes from the client's own bucket).
        max_clients: token buckets kept (LRU-evicted beyond this, so
            an abusive client sweep cannot grow memory unboundedly).
        metrics: registry for the rejection counter and in-flight
            gauge (default: the process-wide registry).
        clock: monotonic-seconds source (injectable for tests).
    """

    def __init__(
        self,
        rate_limit: float = 0.0,
        rate_burst: Optional[int] = None,
        max_concurrent: int = 0,
        shed_retry_after: float = 1.0,
        max_clients: int = DEFAULT_MAX_CLIENTS,
        metrics=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate_limit < 0:
            raise ValueError("rate_limit must be >= 0 (0 disables)")
        if max_concurrent < 0:
            raise ValueError("max_concurrent must be >= 0 (0 disables)")
        if max_clients < 1:
            raise ValueError("max_clients must be >= 1")
        self.rate_limit = float(rate_limit)
        if rate_burst is None:
            rate_burst = max(1, math.ceil(rate_limit)) if rate_limit else 1
        if rate_burst < 1:
            raise ValueError("rate_burst must be >= 1")
        self.rate_burst = int(rate_burst)
        self.max_concurrent = int(max_concurrent)
        self.shed_retry_after = float(shed_retry_after)
        self.max_clients = int(max_clients)
        self._clock = clock
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()
        self._inflight = 0
        self._lock = threading.Lock()
        metrics = metrics if metrics is not None else default_registry()
        self._m_rejected = metrics.from_spec("repro_admission_rejected_total")
        self._m_inflight = metrics.from_spec("repro_inflight_requests")

    @property
    def inflight(self) -> int:
        """Requests currently holding an admission slot."""
        return self._inflight

    def _bucket_for(self, client: str) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = TokenBucket(
                    self.rate_limit, self.rate_burst, clock=self._clock
                )
                self._buckets[client] = bucket
                if len(self._buckets) > self.max_clients:
                    self._buckets.popitem(last=False)
            else:
                self._buckets.move_to_end(client)
            return bucket

    def admit(self, client: str = "") -> AdmissionDecision:
        """Decide one request; an admitted one must be :meth:`release`\\ d.

        Returns an :class:`AdmissionDecision`; when ``admitted`` the
        in-flight slot is already reserved (call :meth:`release` when
        the request finishes, success or not).
        """
        if self.rate_limit > 0:
            bucket = self._bucket_for(client)
            if not bucket.try_acquire():
                self._m_rejected.labels("rate-limited").inc()
                return AdmissionDecision(
                    admitted=False,
                    status=429,
                    reason="rate-limited",
                    retry_after=bucket.retry_after(),
                )
        with self._lock:
            if self.max_concurrent and self._inflight >= self.max_concurrent:
                saturated = True
            else:
                saturated = False
                self._inflight += 1
        if saturated:
            self._m_rejected.labels("saturated").inc()
            return AdmissionDecision(
                admitted=False,
                status=503,
                reason="saturated",
                retry_after=self.shed_retry_after,
            )
        self._m_inflight.inc()
        return AdmissionDecision(admitted=True)

    def release(self) -> None:
        """Give back the slot an admitted request held."""
        with self._lock:
            self._inflight -= 1
        self._m_inflight.dec()


# --------------------------------------------------------------------- #
# Progress events & cooperative cancellation
# --------------------------------------------------------------------- #


class CancellationToken:
    """A cooperative stop signal the runtime checks at chunk boundaries.

    Thread- and signal-safe (a plain :class:`threading.Event` under
    the hood): a SIGINT handler calls :meth:`cancel`, the runtime's
    source loop sees :meth:`is_set`, stops admitting pages, drains
    what is in flight and reports the run as cancelled — output stays
    line-complete and shard manifests are checkpointed, never torn.
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request a cooperative stop (idempotent)."""
        self._event.set()

    def is_set(self) -> bool:
        """Whether a stop has been requested."""
        return self._event.is_set()

    @property
    def cancelled(self) -> bool:
        """Alias of :meth:`is_set` for report-style call sites."""
        return self._event.is_set()


class ProgressEmitter:
    """Periodic structured progress lines for long batch/shard runs.

    Callable with a :class:`~repro.service.runtime.RuntimeReport`
    (what ``StreamingRuntime.run(on_progress=...)`` expects); emits
    one compact JSON object per line, throttled by page count *and*
    wall clock so both fast and slow corpora report at a readable
    cadence.

    Args:
        stream: where lines go (an ``stderr``-like text stream).
        label: run identity carried on every line (``"batch"``,
            ``"shard-0003"``, ...).
        every_pages: emit when this many new pages were seen (>= 1).
        every_seconds: also emit when this much wall time passed
            since the last line (0 disables the time trigger).
        clock: monotonic-seconds source (injectable for tests).
    """

    def __init__(
        self,
        stream,
        label: str = "batch",
        every_pages: int = 1000,
        every_seconds: float = 10.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if every_pages < 1:
            raise ValueError("every_pages must be >= 1")
        self.stream = stream
        self.label = label
        self.every_pages = every_pages
        self.every_seconds = every_seconds
        self._clock = clock
        self._started = clock()
        self._last_pages = 0
        self._last_time = self._started
        self.emitted = 0

    def _line(self, report, done: bool) -> dict:
        payload = {
            "event": "progress",
            "label": self.label,
            "pages": report.total_pages,
            "served": report.pages_served,
            "unroutable": report.unroutable_count,
            "elapsed": round(self._clock() - self._started, 3),
        }
        if done:
            payload["done"] = True
        if getattr(report, "cancelled", False):
            payload["cancelled"] = True
        return payload

    def _emit(self, report, done: bool = False) -> None:
        try:
            self.stream.write(
                json.dumps(self._line(report, done), sort_keys=True) + "\n"
            )
            self.stream.flush()
        except (OSError, ValueError):
            return  # a dying stderr must never kill the run
        self.emitted += 1
        self._last_pages = report.total_pages
        self._last_time = self._clock()

    def __call__(self, report) -> None:
        """Maybe emit one progress line (the runtime's hook)."""
        if report.total_pages - self._last_pages >= self.every_pages:
            self._emit(report)
            return
        if (
            self.every_seconds > 0
            and self._clock() - self._last_time >= self.every_seconds
            and report.total_pages > self._last_pages
        ):
            self._emit(report)

    def finish(self, report) -> None:
        """Emit the final line unconditionally (``"done": true``)."""
        self._emit(report, done=True)

    def announce_compile(self, stats_by_cluster: Dict[str, object]) -> None:
        """Emit one ``"event": "compile"`` line with per-cluster stats.

        ``stats_by_cluster`` maps cluster name to a
        :class:`~repro.service.compiler.CompilerStats` (anything with
        an ``as_dict()``); entry points call this once after wrapper
        compilation so operators watching ``--progress`` see the
        automaton sharing the run starts with.
        """
        payload = {
            "event": "compile",
            "label": self.label,
            "clusters": {
                cluster: stats.as_dict()
                for cluster, stats in sorted(stats_by_cluster.items())
            },
        }
        try:
            self.stream.write(json.dumps(payload, sort_keys=True) + "\n")
            self.stream.flush()
        except (OSError, ValueError):
            return  # a dying stderr must never kill the run
        self.emitted += 1


def parse_exposition(text: str) -> Dict[str, Dict[str, float]]:
    """Parse Prometheus text exposition into ``{name: {series: value}}``.

    A deliberately strict reader used by tests (schema checking) and
    by operators' one-off scripts: every non-comment line must be
    ``series value``; ``# HELP``/``# TYPE`` comments are validated to
    refer to series that actually appear.

    Raises:
        ValueError: on any line that is not valid exposition syntax.
    """
    samples: Dict[str, Dict[str, float]] = {}
    typed: Dict[str, str] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 4 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {line_number}: bad comment {line!r}")
            if parts[1] == "TYPE":
                typed[parts[2]] = parts[3]
            continue
        series, _, value_text = line.rpartition(" ")
        if not series:
            raise ValueError(f"line {line_number}: bad sample {line!r}")
        name = series.split("{", 1)[0]
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in typed:
                base = name[: -len(suffix)]
        if base not in typed:
            raise ValueError(f"line {line_number}: untyped series {name!r}")
        try:
            value = float(value_text)
        except ValueError:
            raise ValueError(
                f"line {line_number}: bad value {value_text!r}"
            ) from None
        samples.setdefault(base, {})[series] = value
    return samples


def merge_expositions(texts: Sequence[str]) -> str:
    """Sum several expositions into one fleet-wide exposition.

    The supervisor's aggregated ``GET /metrics`` is built from this:
    each ingress child renders its own registry, the parent sums every
    series point-wise (counters add, gauges add — "open connections"
    across the fleet *is* the sum — and histogram ``_bucket``/``_sum``/
    ``_count`` lines add like counters) and re-renders one text body.
    ``HELP``/``TYPE`` come from :data:`METRIC_SPECS` when the series is
    declared there, else from the first input that carried them.

    Raises:
        ValueError: when any input is not valid exposition text.
    """
    merged: Dict[str, Dict[str, float]] = {}
    typed: Dict[str, str] = {}
    helps: Dict[str, str] = {}
    order: list[str] = []
    for text in texts:
        for line in text.splitlines():
            if line.startswith("#"):
                parts = line.split(None, 3)
                if len(parts) == 4 and parts[1] == "TYPE":
                    typed.setdefault(parts[2], parts[3])
                elif len(parts) == 4 and parts[1] == "HELP":
                    helps.setdefault(parts[2], parts[3])
        for base, series_map in parse_exposition(text).items():
            if base not in merged:
                merged[base] = {}
                order.append(base)
            totals = merged[base]
            for series, value in series_map.items():
                totals[series] = totals.get(series, 0.0) + value
    lines = []
    for base in order:
        spec = _SPEC_BY_NAME.get(base)
        help_text = spec.help if spec else helps.get(base, base)
        kind = spec.kind if spec else typed.get(base, "untyped")
        lines.append(f"# HELP {base} {help_text}")
        lines.append(f"# TYPE {base} {kind}")
        for series in sorted(merged[base]):
            lines.append(f"{series} {_format_value(merged[base][series])}")
    return "\n".join(lines) + "\n" if lines else ""

