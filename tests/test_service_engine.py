"""The batch pipeline: a runtime over an in-memory page stream.

Identity with the sequential processor, routing, stats, executors.
"""

import pytest

from repro.extraction.extractor import ExtractionProcessor
from repro.extraction.postprocess import PostProcessor, regex_extractor
from repro.service.router import ClusterRouter
from repro.service.runtime import (
    IterablePageSource,
    RuntimeReport,
    StreamingRuntime,
)
from repro.sites.page import WebPage


@pytest.fixture(scope="module")
def router(service_site):
    return ClusterRouter.fit({
        hint: service_site.pages_with_hint(hint)[:8]
        for hint in ("imdb-movies", "imdb-actors", "imdb-search")
    })


def _sequential_values(repository, cluster, page):
    return ExtractionProcessor(repository, cluster).extract_page(page).values


def _run_collect(repository, pages, **runtime_kwargs):
    runtime = StreamingRuntime(repository, **runtime_kwargs)
    return runtime.run_collect(IterablePageSource(pages))


class TestAcceptance:
    """ISSUE acceptance: ≥500-page multi-cluster run, byte-identical."""

    @pytest.fixture(scope="class")
    def run(self, service_site, service_repository, router):
        return _run_collect(
            service_repository, list(service_site), router=router,
            chunk_size=32,
        )

    def test_site_is_large_and_multi_cluster(self, service_site):
        assert len(service_site) >= 500
        hints = {page.cluster_hint for page in service_site}
        assert len(hints) >= 3

    def test_every_served_page_byte_identical(self, service_site,
                                              service_repository, run):
        _, records = run
        assert records
        pages = {page.url: page for page in service_site}
        processors = {
            cluster: ExtractionProcessor(service_repository, cluster)
            for cluster in service_repository.clusters()
        }
        for record in records:
            expected = processors[record.cluster].extract_page(
                pages[record.url]
            )
            assert record.values == expected.values, record.url

    def test_router_accuracy_at_least_95_percent(self, service_site, router):
        total = correct = 0
        for page in service_site:
            total += 1
            if router.route(page).cluster == page.cluster_hint:
                correct += 1
        assert correct / total >= 0.95

    def test_report_accounts_for_every_page(self, service_site, run):
        report, records = run
        assert report.total_pages == len(service_site)
        assert (
            report.pages_served
            + report.unroutable_count
            + report.skipped_count
            == report.total_pages
        )
        assert report.pages_served == len(records)
        # Search pages have no rules: routed there -> skipped bucket.
        assert report.skipped_count > 0
        assert len(report.skipped) <= report.skipped_count
        assert report.wall_seconds > 0
        for cluster, stats in report.per_cluster.items():
            assert stats.pages_per_second > 0
            assert stats.pages == report.routed[cluster]
        assert "pages served" in report.summary()


class TestEngineBehaviour:
    def test_hint_routing_without_router(self, service_site,
                                         service_repository):
        movies = service_site.pages_with_hint("imdb-movies")[:20]
        report, records = _run_collect(service_repository, movies)
        assert report.routed == {"imdb-movies": 20}
        assert len(records) == 20

    def test_hintless_page_unroutable_without_router(self,
                                                     service_repository):
        page = WebPage(url="http://x/", html="<body><p>x</p></body>")
        report, records = _run_collect(service_repository, [page], workers=1)
        assert report.unroutable == ["http://x/"]
        assert report.unroutable_count == 1
        assert records == []

    def test_order_is_deterministic_per_cluster(self, service_site,
                                                service_repository):
        movies = service_site.pages_with_hint("imdb-movies")[:50]
        _, records = _run_collect(
            service_repository, movies, workers=4, chunk_size=7,
        )
        assert [r.url for r in records] == [p.url for p in movies]

    def test_failures_surface_in_records(self, service_repository):
        broken = WebPage(url="http://broken/", cluster_hint="imdb-movies",
                         html="<body><p>nothing here</p></body>")
        report, records = _run_collect(service_repository, [broken], workers=1)
        (record,) = records
        assert ("title", "mandatory-missing") in record.failures
        assert report.per_cluster["imdb-movies"].failures >= 1

    def test_postprocessor_matches_sequential(self, service_site,
                                              service_repository):
        post = PostProcessor()
        post.register("rating", regex_extractor(r"([\d.]+)/10"))
        movies = service_site.pages_with_hint("imdb-movies")[:15]
        _, records = _run_collect(
            service_repository, movies, postprocessor=post,
        )
        processor = ExtractionProcessor(
            service_repository, "imdb-movies", postprocessor=post
        )
        pages = {page.url: page for page in movies}
        for record in records:
            assert record.values == processor.extract_page(
                pages[record.url]
            ).values

    def test_invalid_configuration_rejected(self, service_repository):
        with pytest.raises(ValueError):
            StreamingRuntime(service_repository, executor="fiber")
        with pytest.raises(ValueError):
            StreamingRuntime(service_repository, executor="thread")
        with pytest.raises(ValueError):
            StreamingRuntime(service_repository, workers=0)
        with pytest.raises(ValueError):
            StreamingRuntime(service_repository, chunk_size=0)
        with pytest.raises(ValueError):
            StreamingRuntime(service_repository, chunk_size=-1)

    def test_rejected_url_samples_are_bounded(self, monkeypatch):
        # The report lives in the runtime module now; patch the cap
        # where the note_* methods resolve it.
        import repro.service.runtime as runtime_module
        monkeypatch.setattr(runtime_module, "URL_SAMPLE_CAP", 3)
        report = RuntimeReport()
        for index in range(10):
            report.note_unroutable(f"http://x/{index}")
            report.note_skipped(f"http://y/{index}")
        assert report.unroutable_count == 10
        assert report.skipped_count == 10
        assert len(report.unroutable) == 3
        assert len(report.skipped) == 3


class TestProcessExecutor:
    def test_process_pool_matches_sequential(self, service_site,
                                             service_repository):
        movies = service_site.pages_with_hint("imdb-movies")[:24]
        _, records = _run_collect(
            service_repository, movies, workers=2, executor="process",
            chunk_size=8,
        )
        assert len(records) == 24
        pages = {page.url: page for page in movies}
        processor = ExtractionProcessor(service_repository, "imdb-movies")
        for record in records:
            assert record.values == processor.extract_page(
                pages[record.url]
            ).values

    def test_process_pool_applies_postprocessor_in_parent(
        self, service_site, service_repository
    ):
        post = PostProcessor()
        post.register("rating", regex_extractor(r"([\d.]+)/10"))
        movies = service_site.pages_with_hint("imdb-movies")[:8]
        _, records = _run_collect(
            service_repository, movies, postprocessor=post, workers=2,
            executor="process", chunk_size=4,
        )
        for record in records:
            for value in record.values["rating"]:
                assert "/10" not in value
