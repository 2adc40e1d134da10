"""Compiled wrappers: byte-identical to the processor, but shared-walk."""

import pytest

from repro.errors import ExtractionError
from repro.core.component import PageComponent
from repro.core.repository import RuleRepository
from repro.core.rule import MappingRule
from repro.extraction.extractor import ExtractionProcessor
from repro.extraction.postprocess import PostProcessor, regex_extractor, split_list
from repro.service.compiler import CompiledWrapper, compile_wrapper
from repro.sites.page import WebPage


def _repo(*rules, cluster="c"):
    repository = RuleRepository()
    for name, locations in rules:
        repository.record(
            cluster,
            MappingRule(
                component=PageComponent(name), locations=tuple(locations)
            ),
        )
    return repository


class TestCompilation:
    def test_no_rules_raises(self):
        with pytest.raises(ExtractionError):
            compile_wrapper(RuleRepository(), "nope")

    def test_repository_entry_point(self, service_repository):
        wrapper = service_repository.compile_cluster("imdb-movies")
        assert isinstance(wrapper, CompiledWrapper)
        assert wrapper.cluster == "imdb-movies"
        wrappers = service_repository.compile_all()
        assert set(wrappers) == {"imdb-movies", "imdb-actors"}

    def test_ineligible_primaries_match_the_processor(
        self, service_repository
    ):
        # imdb's primaries all ride the automaton.
        imdb = service_repository.compile_cluster("imdb-movies").stats
        assert imdb.automaton_slots == 3
        # Primaries the automaton cannot take (an explicit descendant
        # axis) evaluate through XPath.select, byte for byte as the
        # processor does.
        repository = _repo(
            ("a", ["BODY[1]/DIV[2]/descendant::P[1]/text()[1]"]),
            ("b", ["BODY[1]/DIV[2]/descendant::SPAN[1]/text()[1]"]),
        )
        wrapper = repository.compile_cluster("c")
        assert wrapper.stats.automaton_slots == 0
        page = WebPage(url="http://x/", html=(
            "<body><div></div><div><p>one</p><b><span>two</span></b>"
            "</div></body>"
        ))
        processor = ExtractionProcessor(repository, "c")
        assert wrapper.extract_page(page).values == {
            "a": ["one"], "b": ["two"],
        }
        assert (wrapper.extract_page(page).raw_values
                == processor.extract_page(page).raw_values)

    def test_absolute_location_evaluates_through_select(self):
        repository = _repo(("a", ["/HTML[1]/BODY[1]/P[1]/text()[1]"]))
        wrapper = repository.compile_cluster("c")
        assert wrapper.stats.automaton_slots == 0
        page = WebPage(url="http://x/", html="<body><p>hello</p></body>")
        assert wrapper.extract_page(page).values["a"] == ["hello"]


class TestByteIdentity:
    @pytest.fixture(scope="class")
    def movie_pages_large(self, service_site):
        return service_site.pages_with_hint("imdb-movies")[:80]

    def test_identical_values_and_raw(self, service_repository,
                                      movie_pages_large):
        processor = ExtractionProcessor(service_repository, "imdb-movies")
        wrapper = service_repository.compile_cluster("imdb-movies")
        for page in movie_pages_large:
            sequential = processor.extract_page(page)
            compiled = wrapper.extract_page(page)
            assert compiled.values == sequential.values
            assert compiled.raw_values == sequential.raw_values

    def test_identical_failures(self, service_repository):
        broken = WebPage(url="http://broken/", html="<body><p>x</p></body>")
        processor = ExtractionProcessor(service_repository, "imdb-movies")
        wrapper = service_repository.compile_cluster("imdb-movies")
        sequential = processor.extract([broken])
        compiled = wrapper.extract([broken])
        assert [
            (f.page_url, f.component_name, f.reason)
            for f in compiled.failures
        ] == [
            (f.page_url, f.component_name, f.reason)
            for f in sequential.failures
        ]

    def test_identical_with_postprocessor(self, service_repository,
                                          movie_pages_large):
        # Wrappers carry no post-processing; the runtime applies the
        # chains once per page, the same way for every executor and
        # for process_page.
        from repro.service.runtime import IterablePageSource, StreamingRuntime

        post = PostProcessor()
        post.register("rating", regex_extractor(r"([\d.]+)/10"))
        post.register_splitter("genres", split_list(","))
        processor = ExtractionProcessor(
            service_repository, "imdb-movies", postprocessor=post
        )
        pages = movie_pages_large[:30]
        expected = [processor.extract_page(page).values for page in pages]
        for executor in ("inline", "process"):
            runtime = StreamingRuntime(
                service_repository, postprocessor=post, executor=executor,
                workers=2, chunk_size=8, ordered=True,
            )
            _, records = runtime.run_collect(IterablePageSource(pages))
            assert [record.values for record in records] == expected
        assert [
            runtime.process_page(page).values for page in pages
        ] == expected

    def test_alternative_locations_fall_back(self):
        repository = _repo(
            ("v", ["BODY[1]/DIV[1]/P[1]/text()[1]",
                   "BODY[1]/SPAN[1]/text()[1]"]),
        )
        wrapper = repository.compile_cluster("c")
        primary = WebPage(url="http://a/",
                          html="<body><div><p>first</p></div></body>")
        fallback = WebPage(url="http://b/",
                           html="<body><span>second</span></body>")
        assert wrapper.extract_page(primary).values["v"] == ["first"]
        assert wrapper.extract_page(fallback).values["v"] == ["second"]

    def test_mixed_values_grouped_identically(self, service_site,
                                              service_repository, oracle):
        # plot is mixed on some pages; grouping goes through the same
        # MappingRule code path, so values must agree exactly.
        from repro.core.builder import MappingRuleBuilder

        movies = service_site.pages_with_hint("imdb-movies")
        repository = RuleRepository()
        MappingRuleBuilder(
            movies[:8], oracle, repository=repository,
            cluster_name="imdb-movies", seed=2,
        ).build_all(["plot"])
        processor = ExtractionProcessor(repository, "imdb-movies")
        wrapper = repository.compile_cluster("imdb-movies")
        mixed = [p for p in movies if "<i>" in p.html][:10]
        assert mixed
        for page in mixed:
            assert (
                wrapper.extract_page(page).values
                == processor.extract_page(page).values
            )
