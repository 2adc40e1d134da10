"""The streaming extraction runtime every entry point shares.

``batch``, ``shard run`` and ``serve`` are one pipeline wearing three
front-ends: pages come from somewhere (:class:`PageSource`), are
parsed, routed to a cluster, extracted by a compiled wrapper,
post-processed, stamped with their global submission index, and
written into a :class:`~repro.service.sink.ResultSink`.  One per-page
step (:func:`_route_and_extract`: parse, signature, route scoring,
extraction) runs wherever the page is, and two parent-side steps
account its outcome (:meth:`StreamingRuntime._note_route`: the route
timers, drift observation and routed/unroutable/skipped counts;
:meth:`StreamingRuntime._finish`: post-processing, metrics, drift
feedback, the record).  Both ways in share them:

* :meth:`StreamingRuntime.run` streams a source through chunks.
  ``batch`` runs it over a :class:`LoadingPageSource` of the
  directory's files, numbered by corpus position; library callers
  number an in-memory stream with :class:`IterablePageSource`;
  ``ShardWorker`` (:mod:`repro.service.shard`) runs it over a
  :class:`LoadingPageSource` carrying the plan's *global* indices, so
  shard outputs merge byte-identically into the unsharded stream.  An
  extraction exception ends the run when its chunk drains;
* :meth:`StreamingRuntime.process_page` turns one page into one
  record, an error payload, or nothing.  ``serve``
  (:mod:`repro.service.serve`) calls it per request, under the stdin
  loop or the HTTP ingress.

``run()`` only reads pages: it cuts the stream into contiguous chunks
and drains them first in, first out, so records reach the sink in
submission order whatever the executor — the property that makes
sharded runs mergeable.  ``workers`` picks the executor: 1 runs each
chunk on the calling thread and drains it at once, N > 1 on an
N-process pool whose workers each hold the router and the compiled
wrappers; a process chunk carries ``(index, url, html, hint)`` per
page, and its worker parses every page exactly once.  The parent
accounts each page's routing and extraction as its chunk drains.  An
adaptive run's refit swaps the router's profiles while a chunk
drains; every chunk submitted after that drain carries the new
generation, pickled once, and no chunk submitted before it sees it.
"""

from __future__ import annotations

import pickle
import time
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    NamedTuple,
    Optional,
    Protocol,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.clustering.features import PageSignature
from repro.core.repository import RuleRepository
from repro.extraction.postprocess import PostProcessor
from repro.service.compiler import CompiledWrapper, CompilerStats
from repro.service.metrics import default_registry
from repro.service.router import ClusterRouter, RouteDecision
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

#: What a process chunk carries per page: (global index, url, html,
#: cluster hint) — all the chunk step needs of a page, pickled.
ShippedPage = Tuple[int, str, str, str]


class _Outcome(NamedTuple):
    """One page through :func:`_route_and_extract`.

    ``cluster`` is ``None`` for an unroutable page.  ``values`` is
    ``None`` when nothing was extracted: the cluster has no wrapper,
    or extraction raised (``error``).  Values are the wrapper's raw
    texts; post-processing happens in the parent.  Each ``*_seconds``
    times that layer for this page alone; a layer the page did not
    need is ``None`` (routing is always timed).  ``decision`` and
    ``signature`` are kept only for an adaptive runtime, whose adapter
    observes them in the parent.
    """

    index: int
    url: str
    cluster: Optional[str]
    values: Optional[dict]
    failures: list
    error: Optional[Exception]
    parse_seconds: Optional[float]
    signature_seconds: Optional[float]
    route_seconds: float
    extract_seconds: Optional[float]
    decision: Optional[RouteDecision]
    signature: Optional[PageSignature]


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
# The per-page step and the workers that run it
# --------------------------------------------------------------------- #


def _route_and_extract(
    router: Optional[ClusterRouter],
    wrappers: Dict[str, CompiledWrapper],
    page: WebPage,
    index: int = -1,
    observed: bool = False,
) -> _Outcome:
    """Parse, route and extract one page: the step every path runs.

    The page is parsed once, under its own timer, when the router
    needs its DOM or a wrapper will extract it; routing by hint needs
    neither a parse nor a signature.  ``router`` is a plain
    :class:`~repro.service.router.ClusterRouter` (an adapter's is
    passed here and observes in the parent), so the step holds no
    lock and pickles nothing.  An extraction exception is returned in
    the outcome: ``run()`` re-raises it at drain, ``process_page``
    answers it with an error record.  ``observed`` keeps the decision
    and signature for an adapter.
    """
    parse_seconds = signature_seconds = extract_seconds = None
    started = time.perf_counter()
    if router is not None or page.cluster_hint in wrappers:
        page.document
        parsed = time.perf_counter()
        parse_seconds = parsed - started
        started = parsed
    decision = signature = None
    if router is None:
        cluster = page.cluster_hint or None
    else:
        signature = router.signature(page)
        signature_seconds = time.perf_counter() - started
        decision = router.route_signature(signature)
        cluster = decision.cluster if decision.routed else None
    routed = time.perf_counter()
    route_seconds = routed - started
    values = error = None
    failures: list = []
    wrapper = wrappers.get(cluster) if cluster is not None else None
    if wrapper is not None:
        found: list = []
        try:
            values = wrapper.extract_page(page, found).values
        except Exception as exc:
            error = exc
        extract_seconds = time.perf_counter() - routed
        failures = [(f.component_name, f.reason) for f in found]
    if not observed:
        decision = signature = None
    return _Outcome(
        index, page.url, cluster, values, failures, error, parse_seconds,
        signature_seconds, route_seconds, extract_seconds, decision,
        signature,
    )


class _ChunkWorker:
    """What one executor worker routes and extracts with.

    The inline executor holds one on the calling thread; every process
    worker builds its own in the pool initializer.  ``generation`` is
    the router generation it routes with: a chunk may carry
    ``(generation, pickled router)`` after an adaptive refit, and the
    worker loads each generation once.
    """

    def __init__(
        self,
        router: Optional[ClusterRouter],
        wrappers: Dict[str, CompiledWrapper],
        observed: bool,
    ) -> None:
        self.router = router
        self.wrappers = wrappers
        self.observed = observed
        self.generation = 0

    def run_chunk(
        self,
        items: list[SourceItem],
        generation: Optional[tuple[int, bytes]] = None,
    ) -> list[_Outcome]:
        """The chunk step: every page of ``items``, in order."""
        if generation is not None and generation[0] != self.generation:
            self.generation = generation[0]
            self.router = pickle.loads(generation[1])
        return [
            _route_and_extract(
                self.router, self.wrappers, page, index, self.observed
            )
            for index, page in items
        ]


# Compiled wrappers hold DOM-walking closures, so each process worker
# compiles every cluster's wrapper once, at start-up, from the
# repository's plain-dict form; the router travels as it is (inherited
# under fork, pickled under spawn-style start methods).
# Post-processing always runs in the parent, in the outcome step
# (transform chains may be arbitrary closures).

_WORKER: Optional[_ChunkWorker] = None


def _init_process_worker(
    router: Optional[ClusterRouter], repository_data: dict, observed: bool
) -> None:
    global _WORKER
    _WORKER = _ChunkWorker(
        router, RuleRepository.from_dict(repository_data).compile_all(),
        observed,
    )


def _process_chunk(
    shipped: list[ShippedPage],
    generation: Optional[tuple[int, bytes]] = None,
) -> list[_Outcome]:
    return _WORKER.run_chunk(
        [
            (index, WebPage(url=url, html=html, cluster_hint=hint))
            for index, url, html, hint in shipped
        ],
        generation,
    )


# --------------------------------------------------------------------- #
# Executors
# --------------------------------------------------------------------- #


class _InlineExecutor:
    """Chunk execution on the calling thread — no pool, no handoff."""

    def __init__(self, worker: _ChunkWorker) -> None:
        self.worker = worker

    def submit_chunk(
        self, items: list[SourceItem], generation: Optional[tuple]
    ) -> Future:
        """Run the chunk step now; returns the completed future."""
        future: Future = Future()
        future.set_result(self.worker.run_chunk(items, generation))
        return future

    def shutdown(self, wait: bool = True) -> None:
        """Nothing to release (signature parity with real pools)."""
        pass


class _ProcessExecutor(ProcessPoolExecutor):
    """An N-process pool; each worker runs the chunk step on its own."""

    def submit_chunk(
        self, items: list[SourceItem], generation: Optional[tuple]
    ) -> Future:
        """Queue the chunk step for the next free worker.

        Only what the step reads of each page crosses: a parsed DOM,
        a memoized signature or ground truth stays in the parent.
        """
        return self.submit(
            _process_chunk,
            [
                (index, page.url, page.html, page.cluster_hint)
                for index, page in items
            ],
            generation,
        )


EXECUTOR_KINDS = ("inline", "process")


class _ByCluster(dict):
    """A cluster-labelled family's children, each resolved once.

    ``labels(cluster)`` checks the arity and builds a key on every
    call; holding the child makes a per-page count or observation one
    dict lookup.  A child still appears in the exposition only once
    first used.
    """

    def __init__(self, family) -> None:
        super().__init__()
        self.family = family

    def __missing__(self, cluster: str):
        child = self[cluster] = self.family.labels(cluster)
        return child


# --------------------------------------------------------------------- #
# The runtime
# --------------------------------------------------------------------- #


class StreamingRuntime:
    """Compose parse → route → extract → post-process → emit over a source.

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
            each chunk's pages travel pickled and are parsed, routed
            and extracted in the worker).  At most ``4 * workers``
            chunks are in flight — the memory bound for arbitrarily
            long streams; an inline chunk drains as soon as it ran.
        executor: ``None`` (derive it from ``workers``), or
            ``"inline"``/``"process"`` to force one.
        chunk_size: pages per submitted work item.
        ordered: accepted for compatibility and ignored: records always
            leave in strictly increasing submission order, because
            chunks are contiguous and drain first in, first out.
        adapter: an :class:`~repro.service.adapt.AdaptiveRouter`
            (mutually exclusive with ``router``): pages are scored with
            its plain router, and each page's decision
            (:meth:`~repro.service.adapt.AdaptiveRouter.observe`) and
            extraction outcome
            (:meth:`~repro.service.adapt.AdaptiveRouter.note_result`)
            feed its drift monitor as the page's chunk drains; the run
            report carries the drift/refit counts it accumulated during
            the run.  ``run()`` refuses an adapter with a canary
            ``deployer`` (only ``serve`` attaches one).
        metrics: a :class:`~repro.service.metrics.MetricsRegistry`
            receiving per-cluster routed/failed counters and the
            parse/signature/route/extract latency histograms (default: the
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
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if executor is None:
            executor = "inline" if workers == 1 else "process"
        if executor not in EXECUTOR_KINDS:
            raise ValueError(f"unknown executor kind {executor!r}")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.repository = repository
        #: What routes pages, as passed: the router, or the adapter.
        self.router = adapter if adapter is not None else router
        #: The plain router the per-page step scores with (an
        #: adapter's own); ``None`` routes by hint.
        self._router: Optional[ClusterRouter] = (
            adapter.router if adapter is not None else router
        )
        self.postprocessor = postprocessor
        self.workers = workers
        self.executor_kind = executor
        self.chunk_size = chunk_size
        self.adapter = adapter
        self.metrics = metrics if metrics is not None else default_registry()
        self._m_routed = _ByCluster(
            self.metrics.from_spec("repro_pages_routed_total")
        )
        self._m_unroutable = self.metrics.from_spec(
            "repro_pages_unroutable_total"
        )
        self._m_skipped = self.metrics.from_spec("repro_pages_skipped_total")
        self._m_failed = self.metrics.from_spec("repro_pages_failed_total")
        self._m_parse_seconds = self.metrics.from_spec("repro_parse_seconds")
        self._m_signature_seconds = self.metrics.from_spec(
            "repro_signature_seconds"
        )
        self._m_route_seconds = self.metrics.from_spec("repro_route_seconds")
        self._m_extract_seconds = _ByCluster(
            self.metrics.from_spec("repro_extract_seconds")
        )
        self._m_automaton_pages = _ByCluster(
            self.metrics.from_spec("repro_automaton_pages_total")
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

        Pages join one chunk list in stream order; a full chunk is
        submitted, and the oldest in-flight chunk drains whenever
        ``4 * workers`` are in flight (an inline chunk at once), so
        records leave in submission order with no reorder buffer.  The
        parent never parses, signs or scores a page: the chunk step
        does, and the parent accounts each outcome as it drains.

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

        Raises:
            ValueError: when the adapter has a canary ``deployer``,
                whose shadow extraction needs each page in the parent.
        """
        if getattr(self.adapter, "deployer", None) is not None:
            raise ValueError(
                "run() cannot drive a canary deployer: its shadow "
                "routing extracts pages in the parent (serve only)"
            )
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
        in_flight = 1 if self.executor_kind == "inline" else 4 * self.workers
        pending: deque = deque()
        chunk: list[SourceItem] = []
        router = self._router
        shipped = router.profiles if router is not None else None
        generation: Optional[tuple[int, bytes]] = None

        def submit(items: list[SourceItem]) -> None:
            nonlocal shipped, generation
            if router is not None and router.profiles is not shipped:
                # A refit swapped the profiles while a chunk drained:
                # this chunk and every later one carry the new
                # generation, pickled once.
                shipped = router.profiles
                number = generation[0] + 1 if generation else 1
                generation = (number, pickle.dumps(router))
            pending.append(executor.submit_chunk(items, generation))

        try:
            for index, page in source:
                if cancel is not None and cancel.is_set():
                    # Cooperative stop: admit nothing more; the tail
                    # below still drains every in-flight chunk so the
                    # sink ends on a record boundary.
                    report.cancelled = True
                    break
                report.total_pages += 1
                chunk.append((index, page))
                if len(chunk) >= self.chunk_size:
                    submit(chunk)
                    chunk = []
                    while len(pending) >= in_flight:
                        self._drain_one(pending, sink, report, on_progress)
            if chunk:
                submit(chunk)
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
        """Parse, route and extract one page on the calling thread.

        Returns the page's :class:`PageRecord` (``index`` −1), a
        :func:`~repro.service.sink.make_error_record` payload when
        extraction raised, or ``None`` when the page is unroutable or
        its cluster has no rules.  Keeps no state between calls, so
        the serve front-ends call it from many threads at once; an
        adapter observes the page's decision at once.
        """
        outcome = _route_and_extract(
            self._router, self._wrappers, page,
            observed=self.adapter is not None,
        )
        if not self._note_route(outcome, page=page):
            return None
        if outcome.error is not None:
            # One pathological page must not end a serve session: it
            # becomes this request's error record, and it is drift
            # just as surely as a componentwise failure.
            self._m_failed.labels(outcome.cluster).inc()
            if self.adapter is not None:
                self.adapter.note_result(outcome.cluster, True)
            error = outcome.error
            return make_error_record(
                f"{type(error).__name__}: {error}", url=page.url
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
        observed = self.adapter is not None
        if self.executor_kind == "process":
            # A snapshot of the router: a worker started late (spawn
            # starts them on demand) must still begin at generation 0.
            router = (
                self._router.clone() if self._router is not None else None
            )
            return _ProcessExecutor(
                max_workers=self.workers,
                initializer=_init_process_worker,
                initargs=(router, self.repository.to_dict(), observed),
            )
        return _InlineExecutor(
            _ChunkWorker(self._router, self._wrappers, observed)
        )

    def _note_route(
        self,
        outcome: _Outcome,
        report: Optional[RuntimeReport] = None,
        page: Optional[WebPage] = None,
    ) -> bool:
        """Account one page's routing; ``True`` when its cluster is served.

        Observes the parse, signature and route timers the outcome
        carries, feeds the decision to the adapter (with ``page`` for a
        canary's shadow extraction), and counts the page as routed,
        unroutable or skipped (noted in ``report``).
        """
        if outcome.parse_seconds is not None:
            self._m_parse_seconds.observe(outcome.parse_seconds)
        if outcome.signature_seconds is not None:
            self._m_signature_seconds.observe(outcome.signature_seconds)
        self._m_route_seconds.observe(outcome.route_seconds)
        if self.adapter is not None:
            self.adapter.observe(outcome.signature, outcome.decision, page)
        cluster = outcome.cluster
        if cluster is None:
            if report is not None:
                report.note_unroutable(outcome.url)
            self._m_unroutable.inc()
            return False
        if cluster not in self._wrappers:
            if report is not None:
                report.note_skipped(outcome.url)
            self._m_skipped.inc()
            return False
        if report is not None:
            report.routed[cluster] = report.routed.get(cluster, 0) + 1
        self._m_routed[cluster].inc()
        return True

    def _finish(
        self, outcome: _Outcome, report: Optional[RuntimeReport] = None
    ) -> PageRecord:
        """One extracted page's outcome step, shared by every path.

        Applies the post-processor chains, observes the page's own
        extraction time (in ``repro_extract_seconds`` and, for a run,
        its cluster's ``worker_seconds``), counts automaton pages,
        feeds the drift monitor, and returns the record.
        """
        cluster, values, failures = (
            outcome.cluster, outcome.values, outcome.failures
        )
        seconds = outcome.extract_seconds
        chains = self._chains.get(cluster)
        if chains is not None:
            values = {
                name: chains[name](texts) if name in chains else texts
                for name, texts in values.items()
            }
        self._m_extract_seconds[cluster].observe(seconds)
        if report is not None:
            stats = report.per_cluster.get(cluster)
            if stats is None:
                stats = report.per_cluster[cluster] = ClusterStats()
            stats.pages += 1
            stats.values += sum(len(texts) for texts in values.values())
            stats.failures += len(failures)
            stats.worker_seconds += seconds
        if cluster in self._automaton_clusters:
            self._m_automaton_pages[cluster].inc()
        if self.adapter is not None:
            # Routing alone cannot see drift that keeps pages routable
            # but breaks extraction (a renamed label, a moved cell).
            self.adapter.note_result(cluster, bool(failures))
        return PageRecord(
            url=outcome.url, cluster=cluster, values=values,
            failures=failures, index=outcome.index,
        )

    def _drain_one(
        self, pending: deque, sink: ResultSink, report: RuntimeReport,
        on_progress: Optional[Callable[[RuntimeReport], None]],
    ) -> None:
        """Account and sink the oldest in-flight chunk, in stream order.

        An extraction exception ends the run here, after the records
        of the chunk's earlier pages.
        """
        for outcome in pending.popleft().result():
            if not self._note_route(outcome, report):
                continue
            if outcome.error is not None:
                raise outcome.error
            sink.write(self._finish(outcome, report))
        if on_progress is not None:
            on_progress(report)
