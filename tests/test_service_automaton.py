"""Single-pass automaton: byte-identical to the sequential processor."""

import io
import json

import pytest

from repro.core.builder import MappingRuleBuilder
from repro.core.oracle import ScriptedOracle
from repro.core.repository import RuleRepository
from repro.extraction.extractor import ExtractionProcessor
from repro.service.automaton import (
    ExtractionAutomaton,
    automaton_steps,
    child_step_eligible,
    step_constraint,
    _UNBOUNDED,
)
from repro.service.metrics import ProgressEmitter
from repro.sites import (
    generate_imdb_site,
    generate_news_site,
    generate_shop_site,
    generate_stocks_site,
)
from repro.sites.page import WebPage
from repro.xpath.ast import NameTest, Step
from repro.xpath.engine import compile_xpath


def _first_step(expression: str) -> Step:
    return compile_xpath(expression).ast.steps[0]


class TestEligibility:
    def test_plain_and_number_literal_steps(self):
        assert child_step_eligible(_first_step("TR"))
        assert child_step_eligible(_first_step("TR[2]"))
        assert not child_step_eligible(_first_step("TR[position() >= 2]"))

    @pytest.mark.parametrize("expression, expected", [
        ("TR", (1, _UNBOUNDED, 0)),
        ("TR[2]", (2, 2, 0)),
        ("LI[position() >= 2]", (2, _UNBOUNDED, 0)),
        ("LI[position() > 2]", (3, _UNBOUNDED, 0)),
        ("LI[position() <= 3]", (1, 3, 0)),
        ("LI[position() < 3]", (1, 2, 0)),
        ("LI[position() = 2]", (2, 2, 0)),
        ("LI[position() != 2]", (1, _UNBOUNDED, 2)),
        # Flipped operand order mirrors the comparison.
        ("LI[2 <= position()]", (2, _UNBOUNDED, 0)),
        ("LI[3 > position()]", (1, 2, 0)),
        # Fractional bounds round to the nearest satisfiable integer.
        ("LI[position() >= 1.5]", (2, _UNBOUNDED, 0)),
        ("LI[position() <= 2.5]", (1, 2, 0)),
    ])
    def test_position_ranges(self, expression, expected):
        assert step_constraint(_first_step(expression)) == expected

    @pytest.mark.parametrize("expression", [
        "TD[0]", "TD[position() = 1.5]", "TD[position() < 1]",
    ])
    def test_provably_void_predicates(self, expression):
        lo, hi, ne = step_constraint(_first_step(expression))
        assert hi < lo

    @pytest.mark.parametrize("expression", [
        "/BODY[1]/DIV[1]",            # absolute: re-anchors the context
        "BODY//DIV[1]",               # descendant axis
        "DIV[@id]",                   # value predicate
        "DIV[position() mod 2]",      # unsupported comparison shape
        "DIV[1][2]",                  # more than one predicate
    ])
    def test_ineligible_locations(self, expression):
        assert automaton_steps(compile_xpath(expression)) is None

    def test_eligible_location_returns_its_steps(self):
        steps = automaton_steps(compile_xpath("DIV[2]/TABLE[1]/TR"))
        assert steps is not None
        assert len(steps) == 3


class TestScan:
    PAGE = WebPage(url="http://t/", html=(
        "<body><div>skip</div>"
        "<div><table><tr><td>a</td><td>b</td></tr>"
        "<tr><td>c</td></tr></table>"
        "<ul><li>one</li><li>two</li><li>three</li></ul>"
        "<p>head<!--note-->tail</p></div></body>"
    ))

    @pytest.mark.parametrize("expression", [
        "BODY[1]/DIV[2]/TABLE[1]/TR[1]/TD",
        "BODY[1]/DIV[2]/TABLE[1]/TR/TD[1]",
        "BODY[1]/DIV[2]/UL[1]/LI[position() >= 2]",
        "BODY[1]/DIV[2]/UL[1]/LI[position() != 2]",
        "BODY[1]/DIV[2]/*",
        "BODY[1]/DIV[2]/P[1]/text()",
        "BODY[1]/DIV[2]/P[1]/text()[2]",
        "BODY[1]/DIV[2]/P[1]/comment()[1]",
        "BODY[1]/DIV[2]/P[1]/node()",
        "BODY[1]/DIV[1]/TABLE[1]/TR",   # matches nothing
        "BODY[1]/DIV[2]/TABLE[1]/TR[0]",  # provably void
    ])
    def test_scan_matches_generic_evaluator(self, expression):
        xpath = compile_xpath(expression)
        steps = automaton_steps(xpath)
        assert steps is not None
        automaton = ExtractionAutomaton([(0, steps)])
        context = self.PAGE.root_element
        assert automaton.scan(context)[0] == xpath.select(context)

    def test_shared_prefixes_share_states(self):
        locations = [
            "BODY[1]/DIV[2]/TABLE[1]/TR[1]/TD",
            "BODY[1]/DIV[2]/TABLE[1]/TR[2]/TD",
            "BODY[1]/DIV[2]/UL[1]/LI",
        ]
        compiled = [compile_xpath(e) for e in locations]
        automaton = ExtractionAutomaton(
            (slot, automaton_steps(x)) for slot, x in enumerate(compiled)
        )
        stats = automaton.stats
        assert stats.slots == 3
        # BODY[1]/DIV[2] (and TABLE[1]) are walked once, not thrice.
        assert stats.transitions < stats.location_steps
        assert stats.steps_saved > 0
        context = self.PAGE.root_element
        hits = automaton.scan(context)
        for slot, xpath in enumerate(compiled):
            assert hits[slot] == xpath.select(context)

    def test_deep_document_does_not_recurse(self):
        # The scan is an explicit-stack traversal: a location as deep
        # as the DOM must not hit the interpreter recursion limit.
        depth = 2000
        page = WebPage(url="http://deep/",
                       html="<body>" + "<div>" * depth + "x")
        div = Step(axis="child", node_test=NameTest("DIV"), predicates=())
        steps = (Step(axis="child", node_test=NameTest("BODY"),
                      predicates=()),) + (div,) * depth
        automaton = ExtractionAutomaton([(0, steps)])
        (hits,) = automaton.scan(page.root_element)
        assert len(hits) == 1
        assert hits[0].tag == "DIV"
        assert not hits[0].children or hits[0].children[0].data == "x"


SITE_FAMILIES = [
    pytest.param(
        lambda: generate_imdb_site(n_movies=40, n_actors=0, n_search=0,
                                   seed=7),
        "imdb-movies", ["title", "rating", "genres"], id="imdb-movies",
    ),
    pytest.param(
        lambda: generate_imdb_site(n_movies=0, n_actors=30, n_search=0,
                                   seed=7),
        "imdb-actors", ["actor-name", "born"], id="imdb-actors",
    ),
    pytest.param(
        lambda: generate_shop_site(24, seed=4), "shop-products",
        ["product-name", "price", "old-price", "features"], id="shop",
    ),
    pytest.param(
        lambda: generate_news_site(24, seed=4), "news-articles",
        ["headline", "byline", "date"], id="news",
    ),
    pytest.param(
        lambda: generate_stocks_site(16, seed=4), "stock-quotes",
        ["company", "last-price", "change", "intraday-prices"], id="stocks",
    ),
]

#: Pages no generator produced: the identity must also hold on junk.
MALFORMED = [
    WebPage(url="http://junk/empty", html=""),
    WebPage(url="http://junk/text", html="just text, no markup"),
    WebPage(url="http://junk/truncated",
            html="<body><div><table><tr><td>half a row"),
    WebPage(url="http://junk/misnested",
            html="<body><b><i>cross</b>over</i><p>tail</body>"),
]


def _outcome(extraction):
    return (
        [(p.url, p.values, p.raw_values) for p in extraction.pages],
        [(f.page_url, f.component_name, f.reason)
         for f in extraction.failures],
    )


class TestByteIdentitySweep:
    @pytest.mark.parametrize("site_factory, cluster, components",
                             SITE_FAMILIES)
    def test_all_families_identical(self, site_factory, cluster, components):
        pages = site_factory().pages_with_hint(cluster)
        repository = RuleRepository()
        report = MappingRuleBuilder(
            pages[:8], ScriptedOracle(), repository=repository,
            cluster_name=cluster, seed=1,
        ).build_all(components)
        assert report.failed_components == []
        stream = pages + MALFORMED
        sequential = ExtractionProcessor(repository, cluster).extract(stream)
        compiled = repository.compile_cluster(cluster).extract(stream)
        assert _outcome(compiled) == _outcome(sequential)


class TestCompilerStats:
    def test_automaton_fields(self, service_repository):
        stats = service_repository.compile_cluster("imdb-movies").stats
        # title/rating/genres all compile to slots (genres through its
        # position()-range predicate).
        assert stats.automaton_slots >= 3
        assert stats.automaton_states > 0
        assert stats.automaton_transitions < stats.automaton_location_steps
        assert stats.automaton_steps_saved > 0

    def test_as_dict_round_trips_every_field(self, service_repository):
        payload = service_repository.compile_cluster(
            "imdb-movies"
        ).stats.as_dict()
        assert set(payload) == {
            "rules", "trie_rules", "primary_steps", "trie_nodes",
            "steps_shared", "automaton_slots", "automaton_states",
            "automaton_transitions", "automaton_location_steps",
            "automaton_steps_saved", "lint_findings",
        }
        assert payload["automaton_steps_saved"] == (
            payload["automaton_location_steps"]
            - payload["automaton_transitions"]
        )


class TestProgressAndCli:
    def test_announce_compile_emits_one_json_line(self, service_repository):
        stream = io.StringIO()
        emitter = ProgressEmitter(stream, label="batch", every_pages=10)
        emitter.announce_compile({
            cluster: wrapper.stats
            for cluster, wrapper in
            service_repository.compile_all().items()
        })
        (line,) = stream.getvalue().splitlines()
        event = json.loads(line)
        assert event["event"] == "compile"
        assert event["label"] == "batch"
        assert set(event["clusters"]) == {"imdb-movies", "imdb-actors"}
        movies = event["clusters"]["imdb-movies"]
        assert movies["automaton_slots"] >= 3

    def test_registry_show_stats_flag(self, service_repository, tmp_path,
                                      capsys):
        from repro.cli import main
        from repro.service import ArtifactRegistry

        registry = ArtifactRegistry(tmp_path / "registry")
        manifest = registry.publish(service_repository, None, source="test")
        code = main([
            "registry", "show", str(tmp_path / "registry"),
            manifest.version, "--stats",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        stats = payload["compiler_stats"]
        assert set(stats) == {"imdb-movies", "imdb-actors"}
        assert stats["imdb-movies"]["automaton_slots"] >= 3
