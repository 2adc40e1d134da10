"""The streaming runtime: sources, executors, one page."""

import dataclasses
import glob
import json
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import repro.service.runtime as runtime_module
from repro.core.repository import RuleRepository
from repro.service.compiler import CompiledWrapper
from repro.service.metrics import MetricsRegistry, parse_exposition
from repro.service.runtime import (
    IterablePageSource,
    LoadingPageSource,
    StreamingRuntime,
    _ChunkWorker,
    _init_process_worker,
    _process_chunk,
)
from repro.service.sink import CollectingSink, PageRecord
from repro.sites.page import WebPage

SRC = Path(__file__).resolve().parent.parent / "src"


class TestSources:
    def test_iterable_source_numbers_by_position(self):
        pages = [WebPage(url=f"http://x/{i}", html="<p/>") for i in range(3)]
        assert [index for index, _ in IterablePageSource(pages)] == [0, 1, 2]
        offset = IterablePageSource(pages, start=7)
        assert [index for index, _ in offset] == [7, 8, 9]

    def test_loading_source_loads_lazily_with_global_indices(self):
        loaded = []

        def load(page_id):
            loaded.append(page_id)
            return WebPage(url=page_id, html="<p/>")

        source = LoadingPageSource([(4, "a"), (9, "b")], load)
        iterator = iter(source)
        assert loaded == []  # nothing touched before iteration
        assert next(iterator)[0] == 4
        assert loaded == ["a"]
        assert next(iterator)[0] == 9
        assert source.index_min == 4
        assert source.index_max == 9
        assert source.yielded == 2
        assert source.unreadable == []

    def test_loading_source_skips_and_records_unreadable(self):
        skipped = []

        def load(page_id):
            if page_id == "bad":
                raise OSError("gone")
            return WebPage(url=page_id, html="<p/>")

        source = LoadingPageSource(
            [(0, "a"), (1, "bad"), (2, "b")], load,
            skip_unreadable=True,
            on_skip=lambda page_id, exc: skipped.append((page_id, str(exc))),
        )
        indices = [index for index, _ in source]
        assert indices == [0, 2]  # the gap stays in the index space
        assert source.unreadable == ["bad"]
        assert skipped == [("bad", "gone")]

    def test_loading_source_strict_mode_raises(self):
        def load(page_id):
            raise UnicodeDecodeError("utf-8", b"\xff", 0, 1, "bad")

        source = LoadingPageSource([(0, "a")], load)
        with pytest.raises(UnicodeDecodeError):
            list(source)


@pytest.fixture(scope="module")
def movie_pages_30(service_site):
    return service_site.pages_with_hint("imdb-movies")[:30]


@pytest.fixture(scope="module")
def mixed_stream(service_site):
    # Two served clusters interleaved page by page, with no-rules
    # (search) and unroutable (hintless, unlike any profile) pages
    # between them.
    movies = service_site.pages_with_hint("imdb-movies")[:12]
    actors = service_site.pages_with_hint("imdb-actors")[:12]
    searches = service_site.pages_with_hint("imdb-search")[:4]
    stream = []
    for i in range(12):
        stream += [movies[i], actors[i]]
        if i % 3 == 0:
            stream.append(searches[i // 3])
        if i % 4 == 1:
            stream.append(WebPage(url=f"http://x/stray-{i}",
                                  html="<body><p>?</p></body>"))
    return stream


@pytest.fixture(scope="module")
def fitted_router(service_site):
    from repro.service.router import ClusterRouter

    # imdb-search is profiled but has no rules: its pages are skipped.
    return ClusterRouter.fit({
        hint: service_site.pages_with_hint(hint)[12:20]
        for hint in ("imdb-movies", "imdb-actors", "imdb-search")
    })


def _timeless(report):
    """The report with its wall and worker seconds zeroed."""
    report.wall_seconds = 0.0
    for stats in report.per_cluster.values():
        stats.worker_seconds = 0.0
    return report


class TestStreamingRuntime:
    @pytest.mark.parametrize("chunk_size", [1, 3, 16])
    @pytest.mark.parametrize("routing", ["hint", "router"])
    def test_inline_executor_matches_process_pool(
        self, mixed_stream, fitted_router, service_repository, routing,
        chunk_size,
    ):
        # A guard: both executors run one chunk step, so the records
        # and every report field agree, whatever the chunk cut.
        router = fitted_router if routing == "router" else None
        inline, pooled = (
            StreamingRuntime(
                service_repository, router=router, workers=workers,
                chunk_size=chunk_size, metrics=MetricsRegistry(),
            )
            for workers in (1, 2)
        )
        assert (inline.executor_kind, pooled.executor_kind) == (
            "inline", "process"
        )
        inline_report, inline_records = inline.run_collect(
            IterablePageSource(mixed_stream)
        )
        pooled_report, pooled_records = pooled.run_collect(
            IterablePageSource(mixed_stream)
        )
        assert pooled_records == inline_records
        assert set(inline_report.routed) == {"imdb-movies", "imdb-actors"}
        assert inline_report.unroutable_count == 3
        assert inline_report.skipped_count == 4
        assert _timeless(pooled_report) == _timeless(inline_report)

    def test_sparse_global_indices_survive_to_records(
        self, movie_pages_30, service_repository
    ):
        # A shard-like source: indices with gaps, still increasing.
        items = [(i * 10 + 3, page) for i, page in enumerate(movie_pages_30)]

        class PairSource:
            def __iter__(self):
                return iter(items)

        runtime = StreamingRuntime(
            service_repository, workers=3, chunk_size=4, ordered=True
        )
        _, records = runtime.run_collect(PairSource())
        assert [r.index for r in records] == [index for index, _ in items]

    def test_unordered_flag_still_emits_in_submission_order(
        self, movie_pages_30, service_repository
    ):
        # ``ordered=`` is accepted for callers that still pass it; the
        # process pool's records leave in submission order either way.
        runtime = StreamingRuntime(
            service_repository, workers=2, chunk_size=4, ordered=False
        )
        _, records = runtime.run_collect(IterablePageSource(movie_pages_30))
        assert [r.index for r in records] == list(range(len(movie_pages_30)))

    def test_extraction_exception_propagates_without_containment(
        self, movie_pages_30, service_repository, monkeypatch
    ):
        def boom(self, page, failures=None):
            raise RuntimeError("wrapper exploded")

        monkeypatch.setattr(CompiledWrapper, "extract_page", boom)
        runtime = StreamingRuntime(service_repository, executor="inline")
        with pytest.raises(RuntimeError, match="wrapper exploded"):
            runtime.run(IterablePageSource(movie_pages_30[:2]))

    def test_quiet_cluster_never_dams_ordered_emission(
        self, service_site, service_repository
    ):
        # Page 0 goes to a cluster that never fills a chunk of its
        # own; a flood follows for another cluster.  Chunks are cut
        # from the stream, not per cluster, so the quiet page rides in
        # the first chunk and output flows long before EOF.
        actor = service_site.pages_with_hint("imdb-actors")[0]
        movies = service_site.pages_with_hint("imdb-movies")[:120]
        runtime = StreamingRuntime(
            service_repository, workers=1, chunk_size=4
        )
        sink = CollectingSink()
        received_midstream = []

        def pages():
            yield actor
            for position, page in enumerate(movies):
                if position == 100:
                    received_midstream.append(len(sink.records))
                yield page

        runtime.run(IterablePageSource(pages()), sink)
        assert received_midstream[0] > 0  # output flowed before EOF
        assert [record.index for record in sink.records] == list(
            range(len(movies) + 1)
        )

    def test_invalid_configuration_rejected(self, service_repository):
        with pytest.raises(ValueError, match="executor"):
            StreamingRuntime(service_repository, executor="fiber")
        with pytest.raises(ValueError, match="executor"):
            StreamingRuntime(service_repository, executor="thread")
        with pytest.raises(ValueError, match="workers"):
            StreamingRuntime(service_repository, workers=0)
        with pytest.raises(ValueError, match="chunk_size"):
            StreamingRuntime(service_repository, chunk_size=0)

    def test_inline_runtime_reports_clusters(self, service_repository):
        runtime = StreamingRuntime(service_repository, executor="inline")
        assert set(runtime.clusters()) == set(service_repository.clusters())


class TestContiguousChunks:
    """Chunks are cut from the stream and drain first in, first out."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_records_leave_in_stream_order_as_process_page_gives_them(
        self, mixed_stream, service_repository, workers
    ):
        runtime = StreamingRuntime(
            service_repository, workers=workers, chunk_size=3
        )
        _, records = runtime.run_collect(IterablePageSource(mixed_stream))
        indices = [record.index for record in records]
        assert all(a < b for a, b in zip(indices, indices[1:]))
        expected = {
            index: runtime.process_page(page)
            for index, page in enumerate(mixed_stream)
        }
        assert indices == [
            index for index, single in expected.items() if single is not None
        ]
        for record in records:
            assert dataclasses.replace(record, index=-1) == expected[
                record.index
            ]


class TestProcessPage:
    """One page through the route and outcome steps ``run()`` uses."""

    def test_record_matches_the_run_record(
        self, movie_pages_30, service_repository
    ):
        runtime = StreamingRuntime(
            service_repository, executor="inline", ordered=True
        )
        _, records = runtime.run_collect(IterablePageSource(movie_pages_30))
        for page, record in zip(movie_pages_30, records):
            single = runtime.process_page(page)
            assert isinstance(single, PageRecord)
            assert single.index == -1
            assert (single.url, single.cluster, single.values,
                    single.failures) == (record.url, record.cluster,
                                         record.values, record.failures)

    def test_concurrent_calls_agree_with_sequential_ones(
        self, movie_pages_30, service_repository
    ):
        # The serve front-ends call process_page from many threads: no
        # answer may differ from a sequential call, and no count may
        # be lost.
        import sys
        from concurrent.futures import ThreadPoolExecutor

        registry = MetricsRegistry()
        runtime = StreamingRuntime(
            service_repository, executor="inline", metrics=registry
        )
        sequential = [runtime.process_page(page) for page in movie_pages_30]
        pages = movie_pages_30 * 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                concurrent = list(pool.map(runtime.process_page, pages))
        finally:
            sys.setswitchinterval(interval)
        assert concurrent == sequential * 4
        parsed = parse_exposition(registry.render())
        calls = len(movie_pages_30) + len(pages)
        key = '{cluster="imdb-movies"}'
        assert parsed["repro_pages_routed_total"][
            "repro_pages_routed_total" + key
        ] == calls
        assert parsed["repro_extract_seconds"][
            "repro_extract_seconds_count" + key
        ] == calls

    def test_unroutable_and_unserved_pages_yield_none(
        self, service_repository
    ):
        registry = MetricsRegistry()
        runtime = StreamingRuntime(
            service_repository, executor="inline", metrics=registry
        )
        stray = WebPage(url="http://x/?", html="<p>?</p>")
        unserved = WebPage(url="http://x/s", html="<p>s</p>",
                           cluster_hint="imdb-search")
        assert runtime.process_page(stray) is None
        assert runtime.process_page(unserved) is None
        parsed = parse_exposition(registry.render())
        assert parsed["repro_pages_unroutable_total"] == {
            "repro_pages_unroutable_total": 1
        }
        assert parsed["repro_pages_skipped_total"] == {
            "repro_pages_skipped_total": 1
        }

    def test_raised_extraction_becomes_an_error_record(
        self, movie_pages_30, service_repository, monkeypatch
    ):
        def boom(self, page, failures=None):
            raise RuntimeError("wrapper exploded")

        monkeypatch.setattr(CompiledWrapper, "extract_page", boom)
        registry = MetricsRegistry()
        runtime = StreamingRuntime(
            service_repository, executor="inline", metrics=registry
        )
        page = movie_pages_30[0]
        assert runtime.process_page(page) == {
            "error": "RuntimeError: wrapper exploded", "url": page.url,
        }
        parsed = parse_exposition(registry.render())
        failed = parsed["repro_pages_failed_total"]
        assert failed['repro_pages_failed_total{cluster="imdb-movies"}'] == 1


#: Runs a 2-process ``StreamingRuntime`` and prints the pages served and
#: the pids of the children the run left behind.
_CHILDREN_AFTER_RUN = """
import glob, json, sys
from repro.core.repository import RuleRepository
from repro.service.runtime import IterablePageSource, StreamingRuntime
from repro.sites.page import WebPage

def children():
    pids = set()
    for path in glob.glob("/proc/self/task/*/children"):
        try:
            with open(path) as handle:
                pids.update(handle.read().split())
        except FileNotFoundError:  # the thread has exited
            pass
    return pids

rules, pages = sys.argv[1:]
with open(pages, encoding="utf-8") as handle:
    pages = [WebPage(**item) for item in json.load(handle)]
runtime = StreamingRuntime(
    RuleRepository.load(rules), workers=2, chunk_size=4
)
before = children()
report = runtime.run(IterablePageSource(pages))
print(json.dumps(
    {"served": report.pages_served, "left": sorted(children() - before)}
))
"""


class TestProcessPool:
    """The process executor: chunk payload, worker start-up, teardown."""

    def test_process_chunk_matches_inline_extraction(
        self, service_repository, service_site, monkeypatch
    ):
        movies = service_site.pages_with_hint("imdb-movies")[:3]
        actors = service_site.pages_with_hint("imdb-actors")[:3]
        items = [
            (i, page.url, page.html, page.cluster_hint)
            for i, page in enumerate(movies + actors)
        ]
        # The worker start-up sets a module global; restore it after.
        monkeypatch.setattr(runtime_module, "_WORKER", None)
        _init_process_worker(None, service_repository.to_dict(), False)
        pooled = _process_chunk(items)
        inline = _ChunkWorker(
            None, service_repository.compile_all(), False
        ).run_chunk([
            (i, page) for i, page in enumerate(movies + actors)
        ])
        # Everything up to the per-layer seconds.
        assert [outcome[:6] for outcome in pooled] == [
            outcome[:6] for outcome in inline
        ]
        assert [(o.index, o.cluster) for o in pooled] == [
            (i, hint) for i, _, _, hint in items
        ]

    def test_worker_death_breaks_the_run(
        self, service_repository, service_site
    ):
        class _PoisonedRepository(RuleRepository):
            # Workers re-hydrate the repository from this dict; a
            # poisoned payload kills every worker at initialisation.
            def to_dict(self):
                return {"version": "not-a-real-format"}

        poisoned = _PoisonedRepository()
        for cluster, rule in service_repository:
            poisoned.record(cluster, rule)
        runtime = StreamingRuntime(
            poisoned, workers=2, chunk_size=4, metrics=MetricsRegistry(),
        )
        with pytest.raises(BrokenProcessPool):
            runtime.run_collect(IterablePageSource(
                service_site.pages_with_hint("imdb-movies")[:16]
            ))

    def test_lone_surrogate_page_gives_the_same_record_on_the_pool(
        self, service_repository, service_site
    ):
        # A library caller may pass any str.  The pool gets the page
        # pickled, so it sees exactly the string the parent routed.
        page = service_site.pages_with_hint("imdb-movies")[0]
        odd = WebPage(
            url=page.url,
            html=page.html.replace("<h1>", "<h1>\ud800", 1),
            cluster_hint=page.cluster_hint,
        )
        inline, pooled = (
            StreamingRuntime(
                service_repository, workers=workers,
                metrics=MetricsRegistry(),
            ).run_collect(IterablePageSource([odd]))[1]
            for workers in (1, 2)
        )
        assert pooled == inline
        assert "\ud800" in inline[0].values["title"][0]

    def test_process_run_leaves_no_child_process(
        self, service_repository, service_site, tmp_path
    ):
        if not glob.glob("/proc/self/task/*/children"):
            pytest.skip("needs /proc/<pid>/task/<tid>/children (Linux)")
        rules = tmp_path / "rules.json"
        service_repository.save(rules)
        pages = tmp_path / "pages.json"
        pages.write_text(json.dumps([
            {"url": page.url, "html": page.html,
             "cluster_hint": page.cluster_hint}
            for page in service_site.pages_with_hint("imdb-movies")[:12]
        ]), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), env.get("PYTHONPATH")])
        )
        # A fresh interpreter: a helper process an earlier test started
        # in this one would hide a leak, or pass for one.
        result = subprocess.run(
            [sys.executable, "-c", _CHILDREN_AFTER_RUN, str(rules),
             str(pages)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == {"served": 12, "left": []}


class TestWorkerSeconds:
    """The run report and ``/metrics`` tell one story per cluster."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_seconds_are_the_extract_seconds_sum(
        self, service_repository, service_site, workers
    ):
        metrics = MetricsRegistry()
        runtime = StreamingRuntime(
            service_repository, workers=workers, chunk_size=4,
            metrics=metrics,
        )
        source = IterablePageSource(
            service_site.pages_with_hint("imdb-movies")[:12]
            + service_site.pages_with_hint("imdb-actors")[:8]
        )
        report, _ = runtime.run_collect(source)
        extract = parse_exposition(metrics.render())["repro_extract_seconds"]
        assert set(report.per_cluster) == {"imdb-movies", "imdb-actors"}
        for cluster, stats in report.per_cluster.items():
            observed = extract[
                f'repro_extract_seconds_sum{{cluster="{cluster}"}}'
            ]
            assert stats.worker_seconds > 0
            assert stats.worker_seconds == pytest.approx(observed, rel=1e-9)
