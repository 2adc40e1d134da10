"""The streaming extraction runtime every entry point shares.

``batch``, ``shard run`` and ``serve`` are one pipeline wearing three
front-ends: pages come from somewhere (:class:`PageSource`), are routed
to a cluster, extracted by a compiled wrapper, stamped with their
global submission index, optionally transformed (:class:`Stage`), and
emitted into a :class:`RecordSink`.  Each entry point composes one
:class:`StreamingRuntime`:

* ``batch`` runs a runtime over a :class:`LoadingPageSource` of the
  directory's files, numbered by corpus position; library callers
  number an in-memory stream with :class:`IterablePageSource`;
* ``ShardWorker`` (:mod:`repro.service.shard`) runs a runtime over a
  :class:`LoadingPageSource` carrying the plan's *global* indices, so
  shard outputs merge byte-identically into the unsharded stream;
* ``serve`` (:mod:`repro.service.serve`) wraps single pages in an
  **inline** runtime with error containment, under the ``asyncio``
  stdin front-end or the HTTP ingress.

Executors are pluggable: ``"inline"`` runs chunks on the calling
thread (serving, tests), ``"thread"`` shares parsed DOMs across a
pool, ``"process"`` re-parses in workers for real multi-core
parallelism, receiving page bytes through shared memory
(:mod:`repro.service.transport`).  Emission is unordered (records
leave as chunks complete) or ordered (an :class:`OrderedEmitter`
reorder buffer releases records in submission order — the property
that makes sharded runs mergeable).
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    Optional,
    Protocol,
    Sequence,
    Tuple,
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
from repro.service.transport import SharedMemoryPageTransport, load_shm_chunk
from repro.sites.page import WebPage

#: What a source yields: (global submission index, page).  Indices must
#: be strictly increasing; they need not be dense (shard slices and
#: skipped files leave gaps).
SourceItem = Tuple[int, WebPage]

#: A worker's outcome for one page:
#: (sequence, global index, url, values, failures, error message).
#: ``error`` is ``None`` on success; on a contained extraction error
#: ``values`` is ``None`` and ``error`` carries the message.
_Outcome = tuple[int, int, str, Optional[dict], list, Optional[str]]


# --------------------------------------------------------------------- #
# Protocols
# --------------------------------------------------------------------- #


@runtime_checkable
class PageSource(Protocol):
    """Anything that yields ``(global index, page)`` in index order."""

    def __iter__(self) -> Iterator[SourceItem]: ...  # pragma: no cover


@runtime_checkable
class Stage(Protocol):
    """A per-record transform between extraction and emission.

    Returns the (possibly mutated) record to keep it, or ``None`` to
    drop it from the stream (the drop is counted in the report and
    never stalls ordered emission).
    """

    def __call__(
        self, record: PageRecord
    ) -> Optional[PageRecord]: ...  # pragma: no cover


@runtime_checkable
class RecordSink(Protocol):
    """Structural view of :class:`~repro.service.sink.ResultSink`."""

    def write(self, record: PageRecord) -> None:  # pragma: no cover
        """Accept one extracted record."""

    def close(self) -> None:  # pragma: no cover
        """Flush and release the sink's resources."""


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
# Ordered emission
# --------------------------------------------------------------------- #


class OrderedEmitter:
    """Release payloads in strictly increasing sequence order.

    Producers complete out of order (chunks from different clusters
    interleave; async serve tasks finish whenever); this buffer holds a
    completed payload until every earlier sequence number has been
    emitted or declared dropped (``None`` — unroutable pages, contained
    errors and stage drops consume a sequence slot but produce no
    payload, so gaps never stall the stream).

    Worst-case held-payload count is bounded by the payloads deferred
    behind the oldest incomplete sequence number — small for balanced
    streams; held items are slim records or lines, never DOMs.  The
    runtime keys this by an internal dense sequence counter (not the
    sparse global index), so shard slices order correctly too.
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

    Chunks served by a worker that had to compile the cluster's wrapper
    first are *cold*: their pages and seconds are still counted in the
    totals, but the throughput figure prefers the warm-only numbers so
    one-off warm-up cost cannot skew per-cluster pages/sec.
    """

    pages: int = 0
    values: int = 0
    failures: int = 0
    chunks: int = 0
    worker_seconds: float = 0.0
    #: Chunks that paid a wrapper compile in their worker.
    cold_chunks: int = 0
    #: Pages/seconds from warm chunks only (throughput basis).
    warm_pages: int = 0
    warm_seconds: float = 0.0

    @property
    def pages_per_second(self) -> float:
        """Worker throughput (warm chunks when any, else all chunks)."""
        if self.warm_seconds > 0:
            return self.warm_pages / self.warm_seconds
        if self.worker_seconds <= 0:
            return 0.0
        return self.pages / self.worker_seconds


#: Rejected-page URL lists keep at most this many examples, so the
#: report stays bounded on arbitrarily long streams (counts are exact).
URL_SAMPLE_CAP = 100


@dataclass
class RuntimeReport:
    """Everything one runtime run observed.

    ``unroutable``/``skipped``/``errors`` hold a bounded *sample* of
    URLs (:data:`URL_SAMPLE_CAP`); the ``*_count`` fields are exact.
    ``errors_count`` stays 0 unless the runtime runs with
    ``contain_errors=True`` (extraction exceptions otherwise
    propagate); ``dropped_count`` counts records a :class:`Stage`
    removed.
    """

    total_pages: int = 0
    routed: Dict[str, int] = field(default_factory=dict)
    unroutable_count: int = 0
    unroutable: list[str] = field(default_factory=list)
    #: Pages routed to a cluster the repository has no rules for.
    skipped_count: int = 0
    skipped: list[str] = field(default_factory=list)
    #: Pages whose extraction raised (contained-errors mode only).
    errors_count: int = 0
    errors: list[str] = field(default_factory=list)
    #: Records removed by a pipeline stage.
    dropped_count: int = 0
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

    def note_error(self, url: str) -> None:
        """Count a failed page (URL sampled up to the cap)."""
        self.errors_count += 1
        if len(self.errors) < URL_SAMPLE_CAP:
            self.errors.append(url)

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
        if self.errors_count:
            lines.append(f"extraction error: {self.errors_count}")
        if self.dropped_count:
            lines.append(f"stage-dropped   : {self.dropped_count}")
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

# Compiled wrappers hold DOM-walking closures and are rebuilt per
# process from the repository's plain-dict form; HTML is re-parsed in
# the worker.  Post-processing runs in the parent for process mode
# (transform chains may be arbitrary closures).

_WORKER_REPOSITORY: Optional[RuleRepository] = None
_WORKER_WRAPPERS: Dict[str, CompiledWrapper] = {}


def _init_process_worker(repository_data: dict) -> None:
    global _WORKER_REPOSITORY, _WORKER_WRAPPERS
    _WORKER_REPOSITORY = RuleRepository.from_dict(repository_data)
    _WORKER_WRAPPERS = {}


def _worker_wrapper(cluster: str) -> tuple[CompiledWrapper, bool]:
    """This worker's wrapper for ``cluster``, plus whether it was warm.

    The first chunk a worker sees for a cluster pays the wrapper
    compile; the ``warm`` flag lets the parent keep that chunk out of
    the per-cluster throughput stats (warm-up skew otherwise drags the
    early pages/sec numbers down).
    """
    assert _WORKER_REPOSITORY is not None, "worker not initialised"
    wrapper = _WORKER_WRAPPERS.get(cluster)
    warm = wrapper is not None
    if wrapper is None:
        wrapper = _WORKER_REPOSITORY.compile_cluster(cluster)
        _WORKER_WRAPPERS[cluster] = wrapper
    return wrapper, warm


def _process_chunk(
    cluster: str,
    payload: list[tuple[int, int, str, str]],
    contain_errors: bool,
) -> tuple[list[_Outcome], float, bool]:
    wrapper, warm = _worker_wrapper(cluster)
    # Timer starts after the one-off wrapper compile so worker
    # throughput stats reflect extraction, not warm-up.
    started = time.perf_counter()
    outcomes = _extract_chunk(
        wrapper,
        [
            (seq, index, WebPage(url=url, html=html))
            for seq, index, url, html in payload
        ],
        contain_errors,
    )
    return outcomes, time.perf_counter() - started, warm


def _process_chunk_shm(
    cluster: str,
    payload: tuple,
    contain_errors: bool,
) -> tuple[list[_Outcome], float, bool]:
    """Like :func:`_process_chunk`, pages read from shared memory."""
    wrapper, warm = _worker_wrapper(cluster)
    name, entries = payload
    started = time.perf_counter()
    outcomes = _extract_chunk(
        wrapper, load_shm_chunk(name, entries), contain_errors
    )
    return outcomes, time.perf_counter() - started, warm


def _extract_one(
    wrapper: CompiledWrapper,
    seq: int,
    index: int,
    page: WebPage,
    contain_errors: bool,
) -> _Outcome:
    failures: list = []
    if contain_errors:
        try:
            extracted = wrapper.extract_page(page, failures)
        except Exception as exc:
            # One pathological page must not end the stream: surface
            # it as an error outcome instead of killing the run.
            message = f"{type(exc).__name__}: {exc}"
            return (seq, index, page.url, None, [], message)
    else:
        extracted = wrapper.extract_page(page, failures)
    return (
        seq,
        index,
        page.url,
        extracted.values,
        [(f.component_name, f.reason) for f in failures],
        None,
    )


def _extract_chunk(
    wrapper: CompiledWrapper,
    pages: list[tuple[int, int, WebPage]],
    contain_errors: bool,
) -> list[_Outcome]:
    return [
        _extract_one(wrapper, seq, index, page, contain_errors)
        for seq, index, page in pages
    ]


# --------------------------------------------------------------------- #
# Pipeline stages
# --------------------------------------------------------------------- #


class ParentPostProcessStage:
    """Apply resolved post-processor chains in the parent process.

    Process executors rebuild wrappers without the (unpicklable)
    post-processor; this stage applies the per-cluster chains to each
    record as it is drained, producing the same values thread mode
    bakes into its wrappers.
    """

    def __init__(self, chains: Dict[str, Dict[str, Callable]]) -> None:
        self._chains = chains

    def __call__(self, record: PageRecord) -> PageRecord:
        chains = self._chains.get(record.cluster)
        if chains is not None:
            record.values = {
                name: chains[name](values) if name in chains else values
                for name, values in record.values.items()
            }
        return record


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
    """Chunk execution on the calling thread — no pool, no handoff.

    The right executor for online serving (one page at a time, lowest
    latency) and for deterministic tests.
    """

    def submit(self, fn: Callable, *args) -> _ImmediateFuture:
        """Run ``fn`` immediately; returns the completed future."""
        return _ImmediateFuture(fn, args)

    def shutdown(self, wait: bool = True) -> None:
        """Nothing to release (signature parity with real pools)."""
        pass


EXECUTOR_KINDS = ("inline", "thread", "process")


# --------------------------------------------------------------------- #
# The runtime
# --------------------------------------------------------------------- #


class StreamingRuntime:
    """Compose route → extract → stamp-index → emit over a page source.

    Args:
        repository: validated rules (Section 3.5) for every served
            cluster.
        router: optional :class:`ClusterRouter`; without one, pages
            are routed by their generator ``cluster_hint``.
        postprocessor: optional value clean-up, applied exactly as the
            sequential processor would.
        workers: executor pool size (≥ 1; ignored by ``inline``).
        executor: ``"inline"`` (calling thread), ``"thread"`` (default;
            shares parsed DOMs) or ``"process"`` (re-parses in workers;
            real parallelism on multi-core hosts; pages travel through
            shared memory, or pickled where it is unavailable).
        chunk_size: pages per submitted work item.
        max_pending: in-flight chunk cap (default ``4 * workers``) —
            the memory bound for arbitrarily long streams.
        ordered: release records to the sink in strictly increasing
            submission order (an :class:`OrderedEmitter` over the
            chunked drain; partial buffers damming the stream are
            submitted early, so held records stay bounded by the
            in-flight window).  Required for shard-mergeable output
            (:mod:`repro.service.shard`); off by default because
            as-completed emission is cheaper when order is noise.
        stages: extra per-record transforms applied between extraction
            and emission (a stage returning ``None`` drops the record).
        contain_errors: turn per-page extraction exceptions into error
            records (:func:`~repro.service.sink.make_error_record`)
            written via the sink's ``write_error`` instead of letting
            them kill the run — at the page's submission position when
            ``ordered``.  The online serving mode.
        adapter: an :class:`~repro.service.adapt.AdaptiveRouter`
            (mutually exclusive with ``router``): routing goes through
            it, its feedback stage is installed ahead of ``stages``,
            and the run report carries the drift/refit counts it
            accumulated during the run.
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
        workers: int = 2,
        executor: str = "thread",
        chunk_size: int = 16,
        max_pending: Optional[int] = None,
        ordered: bool = False,
        stages: Sequence[Stage] = (),
        contain_errors: bool = False,
        adapter=None,
        metrics=None,
    ) -> None:
        if executor not in EXECUTOR_KINDS:
            raise ValueError(f"unknown executor kind {executor!r}")
        if adapter is not None:
            if router is not None:
                raise ValueError(
                    "pass router or adapter, not both "
                    "(the adapter wraps its own router)"
                )
            router = adapter
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.repository = repository
        self.router = router
        self.postprocessor = postprocessor
        self.workers = workers
        self.executor_kind = executor
        self.chunk_size = chunk_size
        self.max_pending = (
            max_pending if max_pending is not None else 4 * workers
        )
        self.ordered = ordered
        self.contain_errors = contain_errors
        self.adapter = adapter
        self.metrics = metrics if metrics is not None else default_registry()
        self._transport = (
            SharedMemoryPageTransport(metrics=self.metrics)
            if executor == "process"
            else None
        )
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
        self._m_cold_chunks = self.metrics.from_spec(
            "repro_chunks_cold_total"
        )
        # Thread/inline mode: wrappers apply post-processing in the
        # worker.  Process mode: wrappers are rebuilt per process
        # without the (unpicklable) post-processor; a parent-side stage
        # applies the resolved chains as records drain — same values
        # either way.
        self._wrappers: Dict[str, CompiledWrapper] = repository.compile_all(
            postprocessor if executor != "process" else None
        )
        #: Clusters whose wrapper actually drives the automaton (at
        #: least one location compiled to a slot) — the basis for the
        #: ``repro_automaton_pages_total`` counter.
        self._automaton_clusters = {
            cluster
            for cluster, wrapper in self._wrappers.items()
            if wrapper.stats.automaton_slots > 0
        }
        self._stages: list[Stage] = []
        if executor == "process" and postprocessor is not None:
            chains: Dict[str, Dict[str, Callable]] = {}
            for cluster in repository.clusters():
                resolved = {
                    name: chain
                    for name in repository.component_names(cluster)
                    if (chain := postprocessor.resolve(name)) is not None
                }
                if resolved:
                    chains[cluster] = resolved
            if chains:
                self._stages.append(ParentPostProcessStage(chains))
        if adapter is not None:
            # Feedback before user stages, so a stage that drops a
            # record cannot hide its extraction outcome from drift
            # detection.
            self._stages.append(adapter.stage())
        self._stages.extend(stages)

    # ------------------------------------------------------------------ #

    def run(
        self,
        source: PageSource,
        sink: Optional[ResultSink] = None,
        cancel=None,
        on_progress: Optional[Callable[[RuntimeReport], None]] = None,
    ) -> RuntimeReport:
        """Route, extract and sink every page; returns the run report.

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
        # Adapters outlive runs (a serve session is many single-page
        # runs); the report carries only this run's share.
        drift_before = refits_before = 0
        if self.adapter is not None:
            drift_before = self.adapter.drift_events
            refits_before = self.adapter.refits
        started = time.perf_counter()
        executor = self._make_executor()
        pending: deque[tuple[str, object, Optional[str]]] = deque()
        buffers: Dict[str, list[tuple[int, int, WebPage]]] = {}

        def release(item) -> None:
            # Ordered emission carries error payloads (contained-errors
            # mode) through the same reorder buffer as records, so the
            # sink sees one strictly submission-ordered stream.
            """Hand one drained item to the sink (records and errors alike)."""
            if isinstance(item, PageRecord):
                sink.write(item)
            else:
                sink.write_error(item)

        emitter = OrderedEmitter(release) if self.ordered else None
        try:
            for seq, (index, page) in enumerate(iter(source)):
                if cancel is not None and cancel.is_set():
                    # Cooperative stop: admit nothing more; the tail
                    # below still drains every in-flight chunk so the
                    # sink ends on a record boundary.
                    report.cancelled = True
                    break
                report.total_pages += 1
                cluster = self._route(page, report)
                if cluster is None:
                    if emitter is not None:
                        emitter.emit(seq, None)
                    continue
                buffer = buffers.setdefault(cluster, [])
                buffer.append((seq, index, page))
                if len(buffer) >= self.chunk_size:
                    self._submit(executor, cluster, buffer, pending, report)
                    buffers[cluster] = []
                    while len(pending) >= self.max_pending:
                        self._drain_one(pending, sink, emitter, report)
                        if on_progress is not None:
                            on_progress(report)
                        # A partially-filled buffer from a quiet cluster
                        # must not dam the reorder buffer behind it: if
                        # the sequence the emitter needs next is sitting
                        # in a buffer, submit that buffer early.  Held
                        # records stay bounded by the in-flight window
                        # instead of growing with the stream; ordered
                        # emission makes the output bytes independent of
                        # the changed chunk boundaries.
                        if emitter is not None:
                            self._flush_blocking_buffer(
                                executor, buffers, pending, report, emitter
                            )
            for cluster, buffer in buffers.items():
                if buffer:
                    self._submit(executor, cluster, buffer, pending, report)
            while pending:
                self._drain_one(pending, sink, emitter, report)
                if on_progress is not None:
                    on_progress(report)
            assert emitter is None or emitter.held == 0
        finally:
            executor.shutdown(wait=True)
            if self._transport is not None:
                # Error-path sweep: normal drains already released
                # their leases; this reclaims segments stranded by an
                # exception or cancellation mid-flight.
                self._transport.close_all()
        if self.adapter is not None:
            report.drift_events = self.adapter.drift_events - drift_before
            report.refits = self.adapter.refits - refits_before
        report.wall_seconds = time.perf_counter() - started
        return report

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
        if self.executor_kind == "thread":
            return ThreadPoolExecutor(max_workers=self.workers)
        return _InlineExecutor()

    def _route(
        self, page: WebPage, report: RuntimeReport
    ) -> Optional[str]:
        if self.router is not None:
            # Parse outside the route timer, as serve does before its
            # run(): repro_route_seconds is signature and scoring only.
            # Hint routing never needs the DOM, so it stays unparsed.
            page.root_element
        started = time.perf_counter()
        try:
            if self.router is not None:
                cluster = self.router.target(page)
                if cluster is None:
                    report.note_unroutable(page.url)
                    self._m_unroutable.inc()
                    return None
            else:
                cluster = page.cluster_hint
                if not cluster:
                    report.note_unroutable(page.url)
                    self._m_unroutable.inc()
                    return None
            if cluster not in self._wrappers:
                report.note_skipped(page.url)
                self._m_skipped.inc()
                return None
            report.routed[cluster] = report.routed.get(cluster, 0) + 1
            self._m_routed.labels(cluster).inc()
            return cluster
        finally:
            self._m_route_seconds.observe(time.perf_counter() - started)

    def _flush_blocking_buffer(
        self,
        executor,
        buffers: Dict[str, list[tuple[int, int, WebPage]]],
        pending: deque,
        report: RuntimeReport,
        emitter: OrderedEmitter,
    ) -> None:
        """Submit the partial chunk holding the next-to-release sequence.

        The needed sequence, when buffered at all, is necessarily the
        *first* entry of its cluster's buffer (anything earlier in that
        buffer would itself be unreleased and smaller), so a head check
        per cluster suffices.
        """
        needed = emitter.next_seq
        for cluster, buffer in buffers.items():
            if buffer and buffer[0][0] == needed:
                self._submit(executor, cluster, buffer, pending, report)
                buffers[cluster] = []
                return

    def _submit(
        self,
        executor,
        cluster: str,
        chunk: list[tuple[int, int, WebPage]],
        pending: deque,
        report: RuntimeReport,
    ) -> None:
        lease: Optional[str] = None
        if self.executor_kind == "process":
            staged = self._transport.stage(chunk)
            lease = staged.segment
            worker = _process_chunk_shm if lease is not None else _process_chunk
            try:
                future = executor.submit(
                    worker, cluster, staged.payload, self.contain_errors
                )
            except BaseException:
                # Stage succeeded but no future exists to carry the
                # lease: without this release the segment would only
                # fall to the close_all() sweep — or leak outright if
                # the caller swallows the submit failure.
                if lease is not None:
                    self._transport.release(lease)
                raise
        else:
            wrapper = self._wrappers[cluster]
            future = executor.submit(
                self._local_chunk, wrapper, chunk, self.contain_errors
            )
        pending.append((cluster, future, lease))
        stats = report.per_cluster.setdefault(cluster, ClusterStats())
        stats.chunks += 1

    @staticmethod
    def _local_chunk(
        wrapper: CompiledWrapper,
        pages: list[tuple[int, int, WebPage]],
        contain_errors: bool,
    ) -> tuple[list[_Outcome], float, bool]:
        # Local executors share the parent's pre-compiled wrappers, so
        # every chunk is warm by construction.
        started = time.perf_counter()
        outcomes = _extract_chunk(wrapper, pages, contain_errors)
        return outcomes, time.perf_counter() - started, True

    def _drain_one(
        self,
        pending: deque,
        sink: ResultSink,
        emitter: Optional[OrderedEmitter],
        report: RuntimeReport,
    ) -> None:
        cluster, future, lease = pending.popleft()
        try:
            outcomes, seconds, warm = future.result()
        finally:
            # The segment lease must drop however the chunk ended —
            # success, contained error or a dead worker alike.
            if lease is not None:
                self._transport.release(lease)
        stats = report.per_cluster.setdefault(cluster, ClusterStats())
        stats.worker_seconds += seconds
        if warm:
            stats.warm_pages += len(outcomes)
            stats.warm_seconds += seconds
        else:
            stats.cold_chunks += 1
            self._m_cold_chunks.labels(cluster).inc()
        if outcomes and cluster in self._automaton_clusters:
            self._m_automaton_pages.labels(cluster).inc(len(outcomes))
        if outcomes:
            # Workers time whole chunks; spread the cost evenly so the
            # histogram stays per-page comparable across chunk sizes.
            per_page_seconds = seconds / len(outcomes)
            extract_hist = self._m_extract_seconds.labels(cluster)
        for seq, index, url, values, failures, error in outcomes:
            extract_hist.observe(per_page_seconds)
            if error is not None:
                report.note_error(url)
                self._m_failed.labels(cluster).inc()
                # Error outcomes never reach the stage pipeline, so
                # the drift monitor must hear about them here — an
                # extraction that *raises* on every page is drift just
                # as surely as one that fails componentwise.
                if self.adapter is not None:
                    self.adapter.note_result(cluster, True)
                payload = make_error_record(error, url=url)
                if emitter is not None:
                    emitter.emit(seq, payload)
                else:
                    sink.write_error(payload)
                continue
            record = PageRecord(
                url=url, cluster=cluster, values=values,
                failures=[tuple(f) for f in failures],
                index=index,
            )
            for stage in self._stages:
                record = stage(record)
                if record is None:
                    break
            if record is None:
                report.dropped_count += 1
                if emitter is not None:
                    emitter.emit(seq, None)
                continue
            stats.pages += 1
            stats.values += sum(len(vals) for vals in record.values.values())
            stats.failures += len(record.failures)
            if emitter is not None:
                emitter.emit(seq, record)
            else:
                sink.write(record)
