"""Zero-copy page transport: staging, fallback and segment lifecycle."""

import glob
import io
import threading

import pytest

from concurrent.futures.process import BrokenProcessPool

from repro.core.repository import RuleRepository
from repro.service.metrics import CancellationToken, MetricsRegistry
from repro.service.runtime import (
    IterablePageSource,
    ClusterStats,
    StreamingRuntime,
    _init_process_worker,
    _process_chunk,
    _process_chunk_shm,
)
from repro.service.sink import JsonlSink
from repro.service.transport import (
    SEGMENT_PREFIX,
    SharedMemoryPageTransport,
    StagedChunk,
    load_shm_chunk,
)
from repro.sites.page import WebPage


def _chunk(n=3, prefix="http://p/"):
    return [
        (i, i, WebPage(url=f"{prefix}{i}", html=f"<body><p>page {i}— ünïcode"))
        for i in range(n)
    ]


def _stray_segments() -> list[str]:
    return glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")


@pytest.fixture()
def transport():
    t = SharedMemoryPageTransport(metrics=MetricsRegistry())
    yield t
    t.close_all()


class TestStaging:
    def test_round_trip(self, transport):
        if not transport.available:
            pytest.skip("no shared memory on this platform")
        chunk = _chunk()
        staged = transport.stage(chunk)
        assert staged.segment is not None
        assert transport.active == 1
        name, entries = staged.payload
        loaded = load_shm_chunk(name, entries)
        assert [(s, i, p.url, p.html) for s, i, p in loaded] == [
            (s, i, p.url, p.html) for s, i, p in chunk
        ]
        transport.release(staged.segment)
        assert transport.active == 0
        assert not _stray_segments()

    def test_release_is_idempotent(self, transport):
        if not transport.available:
            pytest.skip("no shared memory on this platform")
        staged = transport.stage(_chunk())
        transport.release(staged.segment)
        transport.release(staged.segment)  # second release: no-op
        assert transport.active == 0

    def test_all_empty_chunk_pickles(self, transport):
        chunk = [(0, 0, WebPage(url="http://e/", html=""))]
        staged = transport.stage(chunk)
        assert staged.segment is None
        assert staged.payload == [(0, 0, "http://e/", "")]

    def test_pickle_mode_forces_legacy_payload(self, monkeypatch):
        # Once the probe fails, every chunk ships its HTML inline.
        monkeypatch.setattr(
            SharedMemoryPageTransport, "_probe", staticmethod(lambda: False)
        )
        metrics = MetricsRegistry()
        t = SharedMemoryPageTransport(metrics=metrics)
        assert not t.available
        for _ in range(2):
            staged = t.stage(_chunk(2))
            assert staged.segment is None
            assert staged.payload[0][3].startswith("<body>")
        assert t.active == 0
        assert 'repro_transport_chunks_total{kind="pickle"} 2' \
            in metrics.render()

    def test_auto_degrades_when_unavailable(self, monkeypatch):
        monkeypatch.setattr(
            SharedMemoryPageTransport, "_probe", staticmethod(lambda: False)
        )
        t = SharedMemoryPageTransport(metrics=MetricsRegistry())
        staged = t.stage(_chunk(2))
        assert staged.segment is None

    def test_auto_keeps_degrading_after_midrun_failure(self, transport,
                                                       monkeypatch):
        if not transport.available:
            pytest.skip("no shared memory on this platform")
        import repro.service.transport as transport_module

        class _Exhausted:
            def __init__(self, *args, **kwargs):
                raise OSError("no space on /dev/shm")

        monkeypatch.setattr(
            transport_module._shared_memory, "SharedMemory", _Exhausted
        )
        staged = transport.stage(_chunk(2))
        assert staged.segment is None
        assert not transport.available  # sticky: no more create attempts

    def test_metrics_track_chunks_bytes_and_active(self):
        metrics = MetricsRegistry()
        t = SharedMemoryPageTransport(metrics=metrics)
        if not t.available:
            pytest.skip("no shared memory on this platform")
        staged = t.stage(_chunk(2))
        exposition = metrics.render()
        assert 'repro_transport_chunks_total{kind="shm"} 2' in exposition \
            or 'repro_transport_chunks_total{kind="shm"} 1' in exposition
        assert "repro_shm_segments_active 1" in exposition
        t.release(staged.segment)
        assert "repro_shm_segments_active 0" in metrics.render()

    def test_close_all_sweeps_everything(self, transport):
        if not transport.available:
            pytest.skip("no shared memory on this platform")
        for _ in range(3):
            transport.stage(_chunk(2))
        assert transport.active == 3
        transport.close_all()
        assert transport.active == 0
        assert not _stray_segments()


class TestWorkerSide:
    def test_shm_and_pickle_chunks_extract_identically(
        self, service_repository, service_site
    ):
        pages = service_site.pages_with_hint("imdb-movies")[:6]
        chunk = [(i, i, page) for i, page in enumerate(pages)]
        transport = SharedMemoryPageTransport(metrics=MetricsRegistry())
        if not transport.available:
            pytest.skip("no shared memory on this platform")
        _init_process_worker(service_repository.to_dict())
        staged = transport.stage(chunk)
        try:
            shm_outcomes, _, _ = _process_chunk_shm(
                "imdb-movies", staged.payload, False
            )
        finally:
            transport.release(staged.segment)
        legacy = [(s, i, p.url, p.html) for s, i, p in chunk]
        pickle_outcomes, _, warm = _process_chunk(
            "imdb-movies", legacy, False
        )
        assert shm_outcomes == pickle_outcomes
        assert warm  # second chunk reuses the compiled wrapper


class TestRuntimeLifecycle:
    def _source(self, service_site, n=40):
        return IterablePageSource(
            service_site.pages_with_hint("imdb-movies")[:n]
        )

    def test_clean_run_leaves_no_segments(self, service_repository,
                                          service_site):
        runtime = StreamingRuntime(
            service_repository, workers=2, executor="process",
            chunk_size=4, metrics=MetricsRegistry(),
        )
        report, records = runtime.run_collect(self._source(service_site))
        assert report.pages_served == 40
        assert records
        assert runtime._transport.active == 0
        assert not _stray_segments()

    def test_contained_errors_still_release(self, service_repository,
                                            service_site):
        runtime = StreamingRuntime(
            service_repository, workers=2, executor="process",
            chunk_size=4, contain_errors=True, metrics=MetricsRegistry(),
        )
        report, _ = runtime.run_collect(self._source(service_site, 16))
        assert report.pages_served == 16
        assert runtime._transport.active == 0
        assert not _stray_segments()

    def test_cancellation_sweeps_segments(self, service_repository,
                                          service_site):
        cancel = CancellationToken()
        runtime = StreamingRuntime(
            service_repository, workers=2, executor="process",
            chunk_size=2, metrics=MetricsRegistry(),
        )
        report = runtime.run(
            self._source(service_site),
            cancel=cancel,
            on_progress=lambda _report: cancel.cancel(),
        )
        assert report.cancelled
        assert runtime._transport.active == 0
        assert not _stray_segments()

    def test_worker_death_sweeps_segments(self, service_repository,
                                          service_site):
        class _PoisonedRepository(RuleRepository):
            # Workers re-hydrate the repository from this dict; a
            # poisoned payload kills every worker at initialisation,
            # the pool breaks, and the transport must still sweep.
            def to_dict(self):
                return {"version": "not-a-real-format"}

        poisoned = _PoisonedRepository()
        for cluster, rule in service_repository:
            poisoned.record(cluster, rule)
        runtime = StreamingRuntime(
            poisoned, workers=2, executor="process",
            chunk_size=4, metrics=MetricsRegistry(),
        )
        with pytest.raises(BrokenProcessPool):
            runtime.run_collect(self._source(service_site, 16))
        assert runtime._transport.active == 0
        assert not _stray_segments()

    def test_forced_pickle_transport_matches_shm(self, service_repository,
                                                 service_site, monkeypatch):
        def run():
            metrics = MetricsRegistry()
            runtime = StreamingRuntime(
                service_repository, workers=2, executor="process",
                chunk_size=4, ordered=True, metrics=metrics,
            )
            stream = io.StringIO()
            with JsonlSink(stream) as sink:
                runtime.run(self._source(service_site, 24), sink)
            return metrics.render(), stream.getvalue()

        shm_metrics, shm_records = run()
        # A host without /dev/shm: the probe fails, every chunk pickles.
        monkeypatch.setattr(
            SharedMemoryPageTransport, "_probe", staticmethod(lambda: False)
        )
        pickle_metrics, pickle_records = run()
        assert 'repro_transport_chunks_total{kind="pickle"} 6' \
            in pickle_metrics
        assert 'kind="shm"' not in pickle_metrics
        assert shm_records.count("\n") == 24
        assert pickle_records == shm_records


class TestSubmitFailureLeases:
    def test_submit_raising_releases_the_staged_lease(
        self, service_repository, service_site, monkeypatch
    ):
        # Regression: stage() succeeded, then executor.submit raised —
        # no future exists to carry the lease, so the submit path must
        # release it on the spot rather than leaving it to close_all.
        runtime = StreamingRuntime(
            service_repository, workers=2, executor="process",
            chunk_size=4, metrics=MetricsRegistry(),
        )
        transport = runtime._transport
        if not transport.available:
            pytest.skip("no shared memory on this platform")

        class _RejectingExecutor:
            def submit(self, *args, **kwargs):
                raise RuntimeError("pool rejected the chunk")

            def shutdown(self, wait=True):
                pass

        monkeypatch.setattr(
            runtime, "_make_executor", lambda: _RejectingExecutor()
        )
        # Neutralise the finally sweep: the test must observe the
        # submit path's own release, not the error-path broom.
        monkeypatch.setattr(transport, "close_all", lambda: None)
        source = IterablePageSource(
            service_site.pages_with_hint("imdb-movies")[:8]
        )
        with pytest.raises(RuntimeError, match="rejected"):
            runtime.run_collect(source)
        assert transport.active == 0
        assert not _stray_segments()


class TestConcurrentSweep:
    def test_concurrent_release_and_close_all_destroy_each_once(self):
        # Regression: release() from a drain thread racing close_all()
        # from the teardown path must elect exactly one destroyer per
        # segment — a double unlink decremented the active gauge twice
        # (driving it negative) and double-closed the mapping.
        metrics = MetricsRegistry()
        transport = SharedMemoryPageTransport(metrics=metrics)
        if not transport.available:
            pytest.skip("no shared memory on this platform")
        destroyed: list[str] = []
        original_destroy = transport._destroy

        def counting_destroy(segment):
            destroyed.append(segment.name)
            original_destroy(segment)

        transport._destroy = counting_destroy
        staged_total = 0
        for _ in range(25):
            names = [
                transport.stage(_chunk(2)).segment for _ in range(4)
            ]
            assert all(names)
            staged_total += len(names)
            barrier = threading.Barrier(3)

            def release_all(names=names):
                barrier.wait()
                for name in names:
                    transport.release(name)

            def sweep():
                barrier.wait()
                transport.close_all()

            threads = [
                threading.Thread(target=release_all),
                threading.Thread(target=sweep),
                threading.Thread(target=sweep),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert len(destroyed) == staged_total
        assert len(set(destroyed)) == staged_total  # never twice
        assert transport.active == 0
        transport.close_all()  # idempotent once drained
        assert "repro_shm_segments_active 0" in metrics.render()
        assert not _stray_segments()


class TestWarmAccounting:
    def test_pages_per_second_prefers_warm_chunks(self):
        stats = ClusterStats(pages=100, worker_seconds=20.0,
                             cold_chunks=1, warm_pages=50, warm_seconds=5.0)
        assert stats.pages_per_second == pytest.approx(10.0)
        # Without warm data the all-chunk figure is the fallback.
        cold_only = ClusterStats(pages=100, worker_seconds=20.0)
        assert cold_only.pages_per_second == pytest.approx(5.0)

    def test_process_runs_mark_first_chunks_cold(self, service_repository,
                                                 service_site):
        metrics = MetricsRegistry()
        runtime = StreamingRuntime(
            service_repository, workers=2, executor="process",
            chunk_size=4, metrics=metrics,
        )
        source = IterablePageSource(
            service_site.pages_with_hint("imdb-movies")[:40]
        )
        report, _ = runtime.run_collect(source)
        stats = report.per_cluster["imdb-movies"]
        # Each worker compiles the wrapper once; everything else is warm.
        assert 1 <= stats.cold_chunks <= 2
        assert stats.warm_pages == 40 - (
            stats.cold_chunks * 4
        )
        assert "repro_chunks_cold_total" in metrics.render()

    def test_local_executors_are_always_warm(self, service_repository,
                                             service_site):
        for executor in ("inline", "thread"):
            runtime = StreamingRuntime(
                service_repository, workers=2, executor=executor,
                chunk_size=4, metrics=MetricsRegistry(),
            )
            source = IterablePageSource(
                service_site.pages_with_hint("imdb-movies")[:20]
            )
            report, _ = runtime.run_collect(source)
            stats = report.per_cluster["imdb-movies"]
            assert stats.cold_chunks == 0
            assert stats.warm_pages == 20
