"""Compiled wrappers: byte-identical to the processor, but shared-walk."""

import pytest

from repro.errors import ExtractionError
from repro.core.component import PageComponent
from repro.core.repository import RuleRepository
from repro.core.rule import MappingRule
from repro.extraction.extractor import ExtractionProcessor
from repro.extraction.postprocess import PostProcessor, regex_extractor, split_list
from repro.service.compiler import (
    CompiledWrapper,
    _apply_fast_child_step,
    _fast_step_eligible,
    compile_wrapper,
)
from repro.sites.page import WebPage
from repro.xpath.parser import parse_xpath


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

    def test_prefix_factoring_shares_steps(self, service_repository):
        # imdb's primaries all ride the automaton: its trie stays empty.
        imdb = service_repository.compile_cluster("imdb-movies").stats
        assert imdb.automaton_slots == 3
        assert (imdb.trie_rules, imdb.primary_steps, imdb.trie_nodes) == (
            0, 0, 0,
        )
        # Primaries the automaton cannot take (descendant axes) share
        # their BODY[1]/DIV[2] prefix in the residual trie: it must
        # hold strictly fewer nodes than the flat step count.
        repository = _repo(
            ("a", ["BODY[1]/DIV[2]/descendant::P[1]/text()[1]"]),
            ("b", ["BODY[1]/DIV[2]/descendant::SPAN[1]/text()[1]"]),
        )
        wrapper = repository.compile_cluster("c")
        stats = wrapper.stats
        assert stats.automaton_slots == 0
        assert stats.trie_rules == 2
        assert stats.trie_nodes < stats.primary_steps
        assert stats.steps_shared == 2
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

    def test_disjoint_prefixes_do_not_share(self):
        repository = _repo(
            ("a", ["BODY[1]/P[1]/text()[1]"]),
            ("b", ["DIV[1]/P[1]/text()[1]"]),
        )
        wrapper = repository.compile_cluster("c")
        assert wrapper.stats.steps_shared == 0

    def test_absolute_location_stays_out_of_trie(self):
        repository = _repo(("a", ["/HTML[1]/BODY[1]/P[1]/text()[1]"]))
        wrapper = repository.compile_cluster("c")
        assert wrapper.stats.trie_rules == 0
        page = WebPage(url="http://x/", html="<body><p>hello</p></body>")
        assert wrapper.extract_page(page).values["a"] == ["hello"]


class TestFastStep:
    def _steps(self, source):
        return parse_xpath(source).steps

    def test_eligibility(self):
        steps = self._steps("DIV[2]/P/text()[1]")
        assert all(_fast_step_eligible(step) for step in steps)
        (pred,) = self._steps("LI[position() >= 1]")
        assert not _fast_step_eligible(pred)
        (desc,) = self._steps("descendant::P")
        assert not _fast_step_eligible(desc)

    def test_matches_generic_evaluator(self, simple_root):
        from repro.xpath.engine import select

        for source in [
            "BODY[1]/DIV[2]/TABLE[1]/TR[2]/TD[1]/text()[1]",
            "BODY[1]/DIV[2]/UL[1]/LI[2]/text()[1]",
            "BODY[1]/DIV[1]/H1[1]/text()[1]",
        ]:
            expected = select(simple_root, source)
            nodes = [simple_root]
            for step in self._steps(source):
                assert _fast_step_eligible(step)
                nodes = _apply_fast_child_step(step, nodes)
            assert nodes == expected

    def test_fractional_position_matches_nothing(self):
        page = WebPage(url="http://x/", html="<body><p>a</p></body>")
        (step,) = self._steps("P[1.5]")
        assert _apply_fast_child_step(step, [page.root_element]) == []


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
        post = PostProcessor()
        post.register("rating", regex_extractor(r"([\d.]+)/10"))
        post.register_splitter("genres", split_list(","))
        processor = ExtractionProcessor(
            service_repository, "imdb-movies", postprocessor=post
        )
        wrapper = service_repository.compile_cluster(
            "imdb-movies", postprocessor=post
        )
        for page in movie_pages_large[:30]:
            assert (
                wrapper.extract_page(page).values
                == processor.extract_page(page).values
            )

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
