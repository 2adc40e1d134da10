"""The streaming extraction runtime every entry point shares.

``batch``, ``shard run`` and ``serve`` are one pipeline wearing three
front-ends: pages come from somewhere (:class:`PageSource`), are routed
to a cluster, extracted by a compiled wrapper, post-processed, stamped
with their global submission index, and written into a
:class:`~repro.service.sink.ResultSink`.  One route step
(:meth:`StreamingRuntime._route`) and one per-page outcome step
(:meth:`StreamingRuntime._finish`: post-processing, metrics, drift
feedback, the record) serve both ways in:

* :meth:`StreamingRuntime.run` streams a source through chunks.
  ``batch`` runs it over a :class:`LoadingPageSource` of the
  directory's files, numbered by corpus position; library callers
  number an in-memory stream with :class:`IterablePageSource`;
  ``ShardWorker`` (:mod:`repro.service.shard`) runs it over a
  :class:`LoadingPageSource` carrying the plan's *global* indices, so
  shard outputs merge byte-identically into the unsharded stream.  An
  extraction exception ends the run;
* :meth:`StreamingRuntime.process_page` turns one page into one
  record, an error payload, or nothing.  ``serve``
  (:mod:`repro.service.serve`) calls it per request, under the
  ``asyncio`` stdin front-end or the HTTP ingress.

``run()`` cuts the routed stream into contiguous chunks of
``(index, cluster, page)`` and drains them first in, first out, so
records reach the sink in submission order whatever the executor —
the property that makes sharded runs mergeable.  ``workers`` picks the
executor: 1 runs chunks on the calling thread, N > 1 on an N-process
pool; each chunk reaches its worker pickled as ``(index, cluster, url,
html)`` tuples, and the worker re-parses the HTML.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    Optional,
    Protocol,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.core.repository import RuleRepository
from repro.extraction.postprocess import PostProcessor
from repro.service.compiler import CompiledWrapper, CompilerStats
from repro.service.metrics import default_registry
from repro.service.router import ClusterRouter
from repro.service.sink import (
    CollectingSink,
    NullSink,
    PageRecord,
    ResultSink,
    make_error_record,
)
from repro.sites.page import WebPage

#: What a source yields: (global submission index, page).  Indices must
#: be strictly increasing; they need not be dense (shard slices and
#: skipped files leave gaps).
SourceItem = Tuple[int, WebPage]

#: A chunk entry as ``run()`` builds it: (global index, cluster, page).
ChunkItem = Tuple[int, str, WebPage]

#: A worker's outcome for one page: (global index, cluster, url,
#: values, failures, extraction seconds).  Values are the wrapper's
#: raw texts; post-processing happens in the outcome step.
_Outcome = tuple[int, str, str, dict, list, float]


@runtime_checkable
class PageSource(Protocol):
    """Anything that yields ``(global index, page)`` in index order."""

    def __iter__(self) -> Iterator[SourceItem]: ...  # pragma: no cover


# --------------------------------------------------------------------- #
# Sources
# --------------------------------------------------------------------- #


class IterablePageSource:
    """Number an in-memory page stream by position: ``start + offset``.

    Submission index == stream position: the source for library
    callers that hold their pages in memory.
    """

    def __init__(self, pages: Iterable[WebPage], start: int = 0) -> None:
        self.pages = pages
        self.start = start

    def __iter__(self) -> Iterator[SourceItem]:
        for index, page in enumerate(self.pages, self.start):
            yield index, page


class LoadingPageSource:
    """Materialise ``(global index, page id)`` work items lazily.

    Both ``batch`` (corpus positions over file paths) and ``shard run``
    (a plan's global indices over page ids) stream their corpus through
    this source: only the runtime's in-flight window is ever in memory,
    and an unreadable item can be skipped (recorded, reported) instead
    of aborting a million-page run.

    Attributes after (or during) iteration:

    * ``unreadable`` — the skipped page ids, in order;
    * ``index_min`` / ``index_max`` — first/last *yielded* global index
      (``None`` until something yields);
    * ``yielded`` — count of pages actually produced.
    """

    def __init__(
        self,
        items: Iterable[Tuple[int, object]],
        load: Callable[[object], WebPage],
        skip_unreadable: bool = False,
        on_skip: Optional[Callable[[object, Exception], None]] = None,
    ) -> None:
        self.items = items
        self.load = load
        self.skip_unreadable = skip_unreadable
        self.on_skip = on_skip
        self.unreadable: list = []
        self.index_min: Optional[int] = None
        self.index_max: Optional[int] = None
        self.yielded = 0

    def __iter__(self) -> Iterator[SourceItem]:
        for index, page_id in self.items:
            try:
                page = self.load(page_id)
            except (OSError, UnicodeDecodeError) as exc:
                if not self.skip_unreadable:
                    raise
                self.unreadable.append(page_id)
                if self.on_skip is not None:
                    self.on_skip(page_id, exc)
                continue
            if self.index_min is None:
                self.index_min = index
            self.index_max = index
            self.yielded += 1
            yield index, page


# --------------------------------------------------------------------- #
# Ordered emission (the stdin serve loop's reorder buffer)
# --------------------------------------------------------------------- #


class OrderedEmitter:
    """Release payloads in strictly increasing sequence order.

    Producers complete out of order (the stdin serve loop's request
    tasks finish whenever); this buffer holds a completed payload
    until every earlier sequence number has been emitted or declared
    dropped (``None`` — a slot that produces no payload, so gaps never
    stall the stream).

    Worst-case held-payload count is bounded by the payloads deferred
    behind the oldest incomplete sequence number — small for balanced
    streams; held items are slim records or lines, never DOMs.
    """

    def __init__(self, write: Callable[[object], None]) -> None:
        self._write = write
        self._next = 0
        self._held: Dict[int, Optional[object]] = {}

    def emit(self, seq: int, payload: Optional[object]) -> None:
        """Hand over a sequence slot's outcome: a payload, or ``None``.

        Each sequence slot may be filled exactly once: re-emitting a
        released or still-held sequence means two producers claimed the
        same slot (a duplicated record, or a lost+retried chunk) and
        would silently drop or reorder output — it raises instead.
        """
        if seq < self._next or seq in self._held:
            raise ValueError(
                f"sequence {seq} emitted twice "
                f"(next unreleased: {self._next})"
            )
        self._held[seq] = payload
        while self._next in self._held:
            released = self._held.pop(self._next)
            self._next += 1
            if released is not None:
                self._write(released)

    @property
    def held(self) -> int:
        """Records currently buffered awaiting their turn."""
        return len(self._held)

    @property
    def next_seq(self) -> int:
        """The sequence number blocking release (first not yet emitted)."""
        return self._next


# --------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------- #


@dataclass
class ClusterStats:
    """Throughput/error accounting for one served cluster.

    ``worker_seconds`` sums the pages' own extraction times — the
    samples ``repro_extract_seconds`` observes — so the run report and
    ``/metrics`` tell one story.
    """

    pages: int = 0
    values: int = 0
    failures: int = 0
    worker_seconds: float = 0.0

    @property
    def pages_per_second(self) -> float:
        """Worker throughput: pages over their extraction seconds."""
        if self.worker_seconds <= 0:
            return 0.0
        return self.pages / self.worker_seconds


#: Rejected-page URL lists keep at most this many examples, so the
#: report stays bounded on arbitrarily long streams (counts are exact).
URL_SAMPLE_CAP = 100


@dataclass
class RuntimeReport:
    """Everything one runtime run observed.

    ``unroutable``/``skipped`` hold a bounded *sample* of URLs
    (:data:`URL_SAMPLE_CAP`); the ``*_count`` fields are exact.
    """

    total_pages: int = 0
    routed: Dict[str, int] = field(default_factory=dict)
    unroutable_count: int = 0
    unroutable: list[str] = field(default_factory=list)
    #: Pages routed to a cluster the repository has no rules for.
    skipped_count: int = 0
    skipped: list[str] = field(default_factory=list)
    #: Drift events raised / refits performed by an adaptive router
    #: during this run (0 unless the runtime was built with ``adapter``).
    drift_events: int = 0
    refits: int = 0
    per_cluster: Dict[str, ClusterStats] = field(default_factory=dict)
    wall_seconds: float = 0.0
    #: ``True`` when the run stopped early on a cooperative
    #: :class:`~repro.service.metrics.CancellationToken`: admitted
    #: pages were drained (output is line-complete), the rest of the
    #: source was never read.
    cancelled: bool = False

    def note_unroutable(self, url: str) -> None:
        """Count an unroutable page (URL sampled up to the cap)."""
        self.unroutable_count += 1
        if len(self.unroutable) < URL_SAMPLE_CAP:
            self.unroutable.append(url)

    def note_skipped(self, url: str) -> None:
        """Count a no-rules skip (URL sampled up to the cap)."""
        self.skipped_count += 1
        if len(self.skipped) < URL_SAMPLE_CAP:
            self.skipped.append(url)

    @property
    def pages_served(self) -> int:
        """Pages that produced a record, across clusters."""
        return sum(stats.pages for stats in self.per_cluster.values())

    @property
    def pages_per_second(self) -> float:
        """Wall-clock throughput of the finished run."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.pages_served / self.wall_seconds

    def summary(self) -> str:
        """The human-readable multi-line run summary."""
        lines = [
            f"pages seen      : {self.total_pages}",
            f"pages served    : {self.pages_served}"
            f"  ({self.pages_per_second:.1f} pages/s wall)",
            f"unroutable      : {self.unroutable_count}",
            f"no-rules skipped: {self.skipped_count}",
        ]
        if self.cancelled:
            lines.append("interrupted     : yes (partial, line-complete)")
        if self.drift_events or self.refits:
            lines.append(
                f"drift events    : {self.drift_events} "
                f"({self.refits} refit(s))"
            )
        for cluster in sorted(self.per_cluster):
            stats = self.per_cluster[cluster]
            lines.append(
                f"  {cluster}: {stats.pages} page(s), "
                f"{stats.values} value(s), {stats.failures} failure(s), "
                f"{stats.pages_per_second:.1f} pages/s worker"
            )
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# Extraction workers (shared by every executor kind)
# --------------------------------------------------------------------- #

# Compiled wrappers hold DOM-walking closures, so each process worker
# compiles every cluster's wrapper once, at start-up, from the
# repository's plain-dict form.  A chunk reaches it pickled as
# ``(index, cluster, url, html)`` tuples (the parent's parsed DOM stays
# behind), and the worker re-parses the HTML.
# Post-processing always runs in the parent, in the outcome step
# (transform chains may be arbitrary closures).

_WORKER_WRAPPERS: Dict[str, CompiledWrapper] = {}


def _init_process_worker(repository_data: dict) -> None:
    global _WORKER_WRAPPERS
    _WORKER_WRAPPERS = RuleRepository.from_dict(repository_data).compile_all()


def _process_chunk(payload: list[tuple[int, str, str, str]]) -> list[_Outcome]:
    return _extract_chunk(
        _WORKER_WRAPPERS,
        [
            (index, cluster, WebPage(url=url, html=html))
            for index, cluster, url, html in payload
        ],
    )


def _extract_one(
    wrapper: CompiledWrapper, index: int, cluster: str, page: WebPage
) -> _Outcome:
    failures: list = []
    started = time.perf_counter()
    extracted = wrapper.extract_page(page, failures)
    seconds = time.perf_counter() - started
    return (
        index,
        cluster,
        page.url,
        extracted.values,
        [(f.component_name, f.reason) for f in failures],
        seconds,
    )


def _extract_chunk(
    wrappers: Dict[str, CompiledWrapper], items: list[ChunkItem]
) -> list[_Outcome]:
    return [
        _extract_one(wrappers[cluster], index, cluster, page)
        for index, cluster, page in items
    ]


# --------------------------------------------------------------------- #
# Executors
# --------------------------------------------------------------------- #


class _ImmediateFuture:
    """A completed future: the inline executor runs work at submit."""

    def __init__(self, fn: Callable, args: tuple) -> None:
        self._value = None
        self._error: Optional[BaseException] = None
        try:
            self._value = fn(*args)
        except BaseException as exc:  # re-raised at drain, like a pool
            self._error = exc

    def result(self):
        """The chunk's outcome (re-raises the worker's exception)."""
        if self._error is not None:
            raise self._error
        return self._value


class _InlineExecutor:
    """Chunk execution on the calling thread — no pool, no handoff."""

    def submit(self, fn: Callable, *args) -> _ImmediateFuture:
        """Run ``fn`` immediately; returns the completed future."""
        return _ImmediateFuture(fn, args)

    def shutdown(self, wait: bool = True) -> None:
        """Nothing to release (signature parity with real pools)."""
        pass


EXECUTOR_KINDS = ("inline", "process")


# --------------------------------------------------------------------- #
# The runtime
# --------------------------------------------------------------------- #


class StreamingRuntime:
    """Compose route → extract → post-process → emit over a page source.

    Args:
        repository: validated rules (Section 3.5) for every served
            cluster.
        router: optional :class:`ClusterRouter`; without one, pages
            are routed by their generator ``cluster_hint``.
        postprocessor: optional value clean-up, applied exactly as the
            sequential processor would — once per page, in the outcome
            step, whatever the executor.
        workers: 1 runs chunks inline on the calling thread; N > 1 on
            an N-process pool (real parallelism on multi-core hosts;
            each chunk's pages travel pickled).  At most
            ``4 * workers`` chunks are in flight — the memory bound for
            arbitrarily long streams.
        executor: ``None`` (derive it from ``workers``), or
            ``"inline"``/``"process"`` to force one.
        chunk_size: pages per submitted work item.
        ordered: accepted for compatibility and ignored: records always
            leave in strictly increasing submission order, because
            chunks are contiguous and drain first in, first out.
        adapter: an :class:`~repro.service.adapt.AdaptiveRouter`
            (mutually exclusive with ``router``): routing goes through
            it, every extracted page's outcome feeds its drift monitor
            (:meth:`~repro.service.adapt.AdaptiveRouter.note_result`)
            as its chunk drains, and the run report carries the
            drift/refit counts it accumulated during the run.
        metrics: a :class:`~repro.service.metrics.MetricsRegistry`
            receiving per-cluster routed/failed counters and the
            route/extract latency histograms (default: the
            process-wide registry; pass
            :data:`~repro.service.metrics.NULL_METRICS` to run
            uninstrumented).  Instrumentation never touches output
            bytes.
    """

    def __init__(
        self,
        repository: RuleRepository,
        router: Optional[ClusterRouter] = None,
        postprocessor: Optional[PostProcessor] = None,
        workers: int = 1,
        executor: Optional[str] = None,
        chunk_size: int = 16,
        ordered: bool = True,
        adapter=None,
        metrics=None,
    ) -> None:
        if adapter is not None:
            if router is not None:
                raise ValueError(
                    "pass router or adapter, not both "
                    "(the adapter wraps its own router)"
                )
            router = adapter
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if executor is None:
            executor = "inline" if workers == 1 else "process"
        if executor not in EXECUTOR_KINDS:
            raise ValueError(f"unknown executor kind {executor!r}")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.repository = repository
        self.router = router
        self.postprocessor = postprocessor
        self.workers = workers
        self.executor_kind = executor
        self.chunk_size = chunk_size
        self.adapter = adapter
        self.metrics = metrics if metrics is not None else default_registry()
        self._m_routed = self.metrics.from_spec("repro_pages_routed_total")
        self._m_unroutable = self.metrics.from_spec(
            "repro_pages_unroutable_total"
        )
        self._m_skipped = self.metrics.from_spec("repro_pages_skipped_total")
        self._m_failed = self.metrics.from_spec("repro_pages_failed_total")
        self._m_route_seconds = self.metrics.from_spec("repro_route_seconds")
        self._m_extract_seconds = self.metrics.from_spec(
            "repro_extract_seconds"
        )
        self._m_automaton_pages = self.metrics.from_spec(
            "repro_automaton_pages_total"
        )
        self._wrappers: Dict[str, CompiledWrapper] = repository.compile_all()
        #: Clusters whose wrapper actually drives the automaton (at
        #: least one location compiled to a slot) — the basis for the
        #: ``repro_automaton_pages_total`` counter.
        self._automaton_clusters = {
            cluster
            for cluster, wrapper in self._wrappers.items()
            if wrapper.stats.automaton_slots > 0
        }
        #: cluster -> component -> resolved post-processing chain, for
        #: the components that have one.
        self._chains: Dict[str, Dict[str, Callable]] = {}
        if postprocessor is not None:
            for cluster in self._wrappers:
                resolved = {
                    name: chain
                    for name in repository.component_names(cluster)
                    if (chain := postprocessor.resolve(name)) is not None
                }
                if resolved:
                    self._chains[cluster] = resolved

    # ------------------------------------------------------------------ #

    def run(
        self,
        source: PageSource,
        sink: Optional[ResultSink] = None,
        cancel=None,
        on_progress: Optional[Callable[[RuntimeReport], None]] = None,
    ) -> RuntimeReport:
        """Route, extract and sink every page; returns the run report.

        Routed pages join one chunk list in stream order; a full chunk
        is submitted, and the oldest in-flight chunk drains whenever
        ``4 * workers`` are in flight, so records leave in submission
        order with no reorder buffer.

        Args:
            source: the page stream (``(global index, page)`` items).
            sink: where records go (default: discarded).
            cancel: an optional
                :class:`~repro.service.metrics.CancellationToken`;
                when it is set the runtime stops admitting pages,
                drains everything already in flight (output stays
                line-complete) and returns a report with
                ``cancelled=True``.
            on_progress: optional callback invoked with the live
                report after every drained chunk — what a
                :class:`~repro.service.metrics.ProgressEmitter`
                plugs into for periodic progress lines.
        """
        sink = sink if sink is not None else NullSink()
        report = RuntimeReport()
        # Adapters outlive runs (several runs, or serve requests, may
        # share one); the report carries only this run's share.
        drift_before = refits_before = 0
        if self.adapter is not None:
            drift_before = self.adapter.drift_events
            refits_before = self.adapter.refits
        started = time.perf_counter()
        executor = self._make_executor()
        pending: deque = deque()
        chunk: list[ChunkItem] = []
        try:
            for index, page in source:
                if cancel is not None and cancel.is_set():
                    # Cooperative stop: admit nothing more; the tail
                    # below still drains every in-flight chunk so the
                    # sink ends on a record boundary.
                    report.cancelled = True
                    break
                report.total_pages += 1
                cluster = self._route(page, report)
                if cluster is None:
                    continue
                chunk.append((index, cluster, page))
                if len(chunk) >= self.chunk_size:
                    self._submit(executor, chunk, pending)
                    chunk = []
                    while len(pending) >= 4 * self.workers:
                        self._drain_one(pending, sink, report, on_progress)
            if chunk:
                self._submit(executor, chunk, pending)
            while pending:
                self._drain_one(pending, sink, report, on_progress)
        finally:
            executor.shutdown(wait=True)
        if self.adapter is not None:
            report.drift_events = self.adapter.drift_events - drift_before
            report.refits = self.adapter.refits - refits_before
        report.wall_seconds = time.perf_counter() - started
        return report

    def process_page(self, page: WebPage) -> Union[PageRecord, dict, None]:
        """Route and extract one page on the calling thread.

        Returns the page's :class:`PageRecord` (``index`` −1), a
        :func:`~repro.service.sink.make_error_record` payload when
        extraction raised, or ``None`` when the page is unroutable or
        its cluster has no rules.  Keeps no state between calls, so
        the serve front-ends call it from many threads at once.
        """
        cluster = self._route(page)
        if cluster is None:
            return None
        try:
            outcome = _extract_one(self._wrappers[cluster], -1, cluster, page)
        except Exception as exc:
            # One pathological page must not end a serve session: it
            # becomes this request's error record, and it is drift
            # just as surely as a componentwise failure.
            self._m_failed.labels(cluster).inc()
            if self.adapter is not None:
                self.adapter.note_result(cluster, True)
            return make_error_record(
                f"{type(exc).__name__}: {exc}", url=page.url
            )
        return self._finish(outcome)

    def run_collect(
        self, source: PageSource
    ) -> tuple[RuntimeReport, list[PageRecord]]:
        """Small-batch convenience: run with an in-memory sink."""
        sink = CollectingSink()
        report = self.run(source, sink)
        return report, sink.records

    def clusters(self) -> list[str]:
        """Served clusters (those with compiled wrappers)."""
        return list(self._wrappers)

    def wrapper_for(self, cluster: str) -> Optional[CompiledWrapper]:
        """The compiled wrapper serving ``cluster`` (``None`` if unserved).

        The canary dry-run extractor scores shadow-routing decisions
        through this without re-compiling anything.
        """
        return self._wrappers.get(cluster)

    def wrapper_stats(self) -> Dict[str, "CompilerStats"]:
        """Per-cluster compiler stats (automaton shape included).

        What ``--progress`` surfaces in its ``compile`` event and
        ``registry show --stats`` prints per version.
        """
        return {
            cluster: wrapper.stats
            for cluster, wrapper in self._wrappers.items()
        }

    # ------------------------------------------------------------------ #

    def _make_executor(self):
        if self.executor_kind == "process":
            return ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_process_worker,
                initargs=(self.repository.to_dict(),),
            )
        return _InlineExecutor()

    def _route(
        self, page: WebPage, report: Optional[RuntimeReport] = None
    ) -> Optional[str]:
        """The page's served cluster, or ``None`` (noted in ``report``)."""
        if self.router is not None:
            # Parse outside the route timer: repro_route_seconds is
            # signature and scoring only.  Hint routing never needs
            # the DOM, so it stays unparsed.
            page.root_element
        started = time.perf_counter()
        try:
            if self.router is not None:
                cluster = self.router.target(page)
            else:
                cluster = page.cluster_hint or None
            if cluster is None:
                if report is not None:
                    report.note_unroutable(page.url)
                self._m_unroutable.inc()
                return None
            if cluster not in self._wrappers:
                if report is not None:
                    report.note_skipped(page.url)
                self._m_skipped.inc()
                return None
            if report is not None:
                report.routed[cluster] = report.routed.get(cluster, 0) + 1
            self._m_routed.labels(cluster).inc()
            return cluster
        finally:
            self._m_route_seconds.observe(time.perf_counter() - started)

    def _finish(
        self, outcome: _Outcome, report: Optional[RuntimeReport] = None
    ) -> PageRecord:
        """One extracted page's outcome step, shared by every path.

        Applies the post-processor chains, observes the page's own
        extraction time (in ``repro_extract_seconds`` and, for a run,
        its cluster's ``worker_seconds``), counts automaton pages,
        feeds the drift monitor, and returns the record.
        """
        index, cluster, url, values, failures, seconds = outcome
        chains = self._chains.get(cluster)
        if chains is not None:
            values = {
                name: chains[name](texts) if name in chains else texts
                for name, texts in values.items()
            }
        self._m_extract_seconds.labels(cluster).observe(seconds)
        if report is not None:
            stats = report.per_cluster.setdefault(cluster, ClusterStats())
            stats.pages += 1
            stats.values += sum(len(texts) for texts in values.values())
            stats.failures += len(failures)
            stats.worker_seconds += seconds
        if cluster in self._automaton_clusters:
            self._m_automaton_pages.labels(cluster).inc()
        if self.adapter is not None:
            # Routing alone cannot see drift that keeps pages routable
            # but breaks extraction (a renamed label, a moved cell).
            self.adapter.note_result(cluster, bool(failures))
        return PageRecord(
            url=url, cluster=cluster, values=values, failures=failures,
            index=index,
        )

    def _submit(
        self, executor, chunk: list[ChunkItem], pending: deque
    ) -> None:
        if self.executor_kind == "process":
            future = executor.submit(
                _process_chunk,
                [
                    (index, cluster, page.url, page.html)
                    for index, cluster, page in chunk
                ],
            )
        else:
            future = executor.submit(_extract_chunk, self._wrappers, chunk)
        pending.append(future)

    def _drain_one(
        self, pending: deque, sink: ResultSink, report: RuntimeReport,
        on_progress: Optional[Callable[[RuntimeReport], None]],
    ) -> None:
        """Sink the oldest in-flight chunk's records, in stream order."""
        for outcome in pending.popleft().result():
            sink.write(self._finish(outcome, report))
        if on_progress is not None:
            on_progress(report)
