"""Single-pass automaton: byte-identical to the sequential processor."""

import io
import json
import random
import time

import pytest

from repro.core.builder import MappingRuleBuilder
from repro.core.oracle import ScriptedOracle
from repro.core.repository import RuleRepository
from repro.extraction.extractor import ExtractionProcessor
from repro.extraction.postprocess import PostProcessor, split_list
from repro.service.automaton import (
    ExtractionAutomaton,
    automaton_steps,
    location_ineligibility,
    step_anchor,
    step_constraint,
    step_ineligibility,
    _UNBOUNDED,
)
from repro.service.metrics import ProgressEmitter
from repro.service.runtime import IterablePageSource, StreamingRuntime
from repro.service.serve import ServeHandler
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


def _anchor(label: str, axis: str = "preceding") -> str:
    """The rule builder's label anchor predicate (Section 3.4)."""
    return (
        f'normalize-space({axis}::text()[normalize-space(.) != ""][1])'
        f' = "{label}"'
    )


ANCHOR = _anchor("Price:")
AFTER = _anchor("Price:", axis="following")
CONTAINS = (
    'contains(normalize-space(preceding::text()[normalize-space(.) != ""]'
    '[1]), "Price")'
)


class TestEligibility:
    def test_plain_and_number_literal_steps(self):
        assert step_ineligibility(_first_step("TR")) is None
        assert step_ineligibility(_first_step("TR[2]")) is None
        assert step_constraint(_first_step("TR")) == (1, _UNBOUNDED, 0)

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
        "BODY/descendant::DIV[1]",    # descendant axis spelled out
        "DIV[@id]",                   # value predicate
        "DIV[position() mod 2]",      # unsupported comparison shape
        "DIV[1][2]",                  # more than one predicate
        "BODY/descendant-or-self::node()",  # trailing //: whole subtrees
        "BODY/descendant-or-self::DIV/P",   # not a bare //
        # Anchors the register cannot answer: the label after the
        # candidate, a substring test, a second predicate, a comment.
        f"BODY//TD/text()[{AFTER}]",
        f"BODY//TD/text()[{CONTAINS}]",
        f"BODY//TD/text()[{ANCHOR}][1]",
        f"BODY//P/comment()[{ANCHOR}]",
    ])
    def test_ineligible_locations(self, expression):
        xpath = compile_xpath(expression)
        assert automaton_steps(xpath) is None
        assert location_ineligibility(xpath) is not None

    @pytest.mark.parametrize("expression, reason", [
        (f"BODY//TD/text()[{AFTER}]", "following::"),
        (f"BODY//TD/text()[{CONTAINS}]", "contains()"),
        (f"BODY//P/comment()[{ANCHOR}]", "name test or text()"),
        ("BODY/descendant-or-self::node()", "trailing //"),
    ])
    def test_ineligibility_names_the_anchor_shape(self, expression, reason):
        assert reason in location_ineligibility(compile_xpath(expression))

    @pytest.mark.parametrize("expression", [
        "BODY//DIV[1]",
        "BODY//TD[2]/text()",
        "descendant-or-self::node()/TD",
        "BODY//DIV//P",
        f"BODY//TD/text()[{ANCHOR}]",
        f"BODY//UL[{ANCHOR}]/LI/text()[1]",
        f"BODY//*[{ANCHOR}]",
    ])
    def test_eligible_locations(self, expression):
        xpath = compile_xpath(expression)
        assert automaton_steps(xpath) == xpath.ast.steps
        assert location_ineligibility(xpath) is None

    def test_anchor_is_matched_on_the_ast(self):
        assert step_anchor(_first_step(f"text()[{ANCHOR}]")) == "Price:"
        # The same test spelled without the ``.`` argument is another
        # AST, so it stays with the generic evaluator.
        respelled = (
            'text()[normalize-space(preceding::text()'
            '[normalize-space() != ""][1]) = "Price:"]'
        )
        assert step_anchor(_first_step(respelled)) is None
        # Anchors say nothing about position: RW101/RW102 stay the
        # positional calculus alone.
        assert step_constraint(_first_step(f"TD[{ANCHOR}]")) is None

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
        "<p>head<!--note-->tail<!--end--></p></div></body>"
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
        "BODY[1]/DIV[2]/P[1]/comment()[2]",
        "BODY[1]/DIV[2]/*[2]",
        "BODY[1]/DIV[2]/P[1]/node()[3]",
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

    #: Labels at several depths, nested TDs and DIVs, blank and
    #: odd-whitespace texts, a label in HEAD and one inside a comment.
    ANCHOR_PAGE = WebPage(url="http://t/anchors", html=(
        "<html><head><title>Price:</title></head><body>"
        "<td>head cell</td>"
        "<div><b>Price:</b> <span>10</span>"
        "<table><tr><td>Price:</td><td>20<table><tr><td>Price:</td>"
        "<td>30</td></tr></table>tail</td></tr>"
        "<tr><td>Old\xa0 price:</td><td>  </td><td>40</td></tr></table>"
        "<!--Price:--><div><div><p>Price:</p><p>50</p></div></div>"
        "<ul><li>Features</li></ul><p>Features</p>"
        "<ul><li>a</li><li>b</li></ul></div></body></html>"
    ))

    @pytest.mark.parametrize("expression", [
        "BODY//TD",
        "BODY//TD[1]/text()",
        "BODY//TD[2]",
        "BODY//TD[2]/text()",
        "BODY//DIV//P/text()",
        "BODY//DIV//DIV",
        "BODY//TR/TD[position() > 1]/text()[1]",
        f"BODY//TD/text()[{ANCHOR}]",
        f"BODY//SPAN/text()[{ANCHOR}]",
        f"BODY//P/text()[{ANCHOR}]",
        f"BODY//TD[{ANCHOR}]",
        f"BODY//*[{ANCHOR}]",
        f"BODY//TD/text()[{_anchor('Old price:')}]",
        f"BODY//TD/text()[{_anchor('')}]",
        f"BODY//UL[{_anchor('Features')}]/LI/text()[1]",
        f"BODY//TABLE[{_anchor('Price:')}]/TR/TD[2]/text()[1]",
        f"BODY/DIV[1]//text()[{ANCHOR}]",
    ])
    def test_new_grammar_matches_generic_evaluator(self, expression):
        # ``//`` puts a slot's matches at many depths, and nested TDs
        # and DIVs reach a state twice at one frame: the scan must
        # still answer in document order without duplicates.
        xpath = compile_xpath(expression)
        steps = automaton_steps(xpath)
        assert steps is not None
        automaton = ExtractionAutomaton([(0, steps)])
        for context in (
            self.ANCHOR_PAGE.root_element,
            self.ANCHOR_PAGE.document.document_element.children[1],
        ):
            assert automaton.scan(context)[0] == xpath.select(context)

    def test_register_is_seeded_from_the_context(self):
        # Scanned from the inner TABLE, the label of its first cell
        # ("20", the text before the table) lies outside the scanned
        # subtree; the register must still hold it, exactly as the
        # evaluator's preceding axis does.
        xpath = compile_xpath(f"TR/TD/text()[{_anchor('20')}]")
        automaton = ExtractionAutomaton([(0, automaton_steps(xpath))])
        inner = self.ANCHOR_PAGE.root_element.find_all("TABLE")[1]
        hits = automaton.scan(inner)[0]
        assert [node.data for node in hits] == ["Price:"]
        assert hits == xpath.select(inner)

    def test_shared_and_mixed_locations_in_one_scan(self):
        locations = [
            f"BODY//TD/text()[{ANCHOR}]",
            f"BODY//TD/text()[{_anchor('Old price:')}]",
            "BODY//TD[2]/text()",
            "BODY[1]/DIV[1]/UL[2]/LI/text()[1]",
            f"BODY//UL[{_anchor('Features')}]/LI/text()[1]",
        ]
        compiled = [compile_xpath(e) for e in locations]
        automaton = ExtractionAutomaton(
            (slot, automaton_steps(x)) for slot, x in enumerate(compiled)
        )
        context = self.ANCHOR_PAGE.root_element
        hits = automaton.scan(context)
        for slot, xpath in enumerate(compiled):
            assert hits[slot] == xpath.select(context), locations[slot]

    def test_bounded_frames_stop_only_without_an_anchor(self):
        # DIV[1]'s frame has one bounded entry, P[1]: once P[1] is
        # matched no later child of that DIV can match, so the frame
        # stops there.  With an anchor in the automaton it must not:
        # the text after P[1] is the label of the SPAN in DIV[2].
        page = WebPage(url="http://t/stop", html=(
            "<body><div><p>x</p><p>y</p>Price:</div>"
            "<div><span>9</span></div></body>"
        ))
        locations = [
            "BODY[1]/DIV[1]/P[1]/text()[1]",
            f"BODY[1]/DIV[2]/SPAN[{ANCHOR}]/text()",
        ]
        compiled = [compile_xpath(e) for e in locations]
        for group in (compiled[:1], compiled):
            automaton = ExtractionAutomaton(
                (slot, automaton_steps(x)) for slot, x in enumerate(group)
            )
            hits = automaton.scan(page.root_element)
            for slot, xpath in enumerate(group):
                assert hits[slot] == xpath.select(page.root_element)
        assert [node.data for node in hits[1]] == ["9"]

    def test_deep_anchored_page_does_not_recurse(self):
        depth = 5000
        page = WebPage(url="http://deep/", html=(
            "<body><b>Price:</b>" + "<div>" * depth + "<span>9</span>"
        ))
        xpath = compile_xpath(f"BODY//SPAN/text()[{ANCHOR}]")
        automaton = ExtractionAutomaton([(0, automaton_steps(xpath))])
        (hits,) = automaton.scan(page.root_element)
        assert [node.data for node in hits] == ["9"]
        assert hits == xpath.select(page.root_element)

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


@pytest.fixture(scope="module")
def family():
    """``family(site_factory, cluster, components) -> (pages, rules)``.

    Each family's pages and offline-built rules are built once per
    module and shared by the sweeps below.
    """
    built: dict = {}

    def build(site_factory, cluster: str, components: list):
        if cluster not in built:
            pages = site_factory().pages_with_hint(cluster)
            repository = RuleRepository()
            report = MappingRuleBuilder(
                pages[:8], ScriptedOracle(), repository=repository,
                cluster_name=cluster, seed=1,
            ).build_all(components)
            assert report.failed_components == []
            built[cluster] = pages, repository
        return built[cluster]

    return build


def _served_line(url, cluster, values, failures) -> str:
    """A record as ``serve`` writes it (a batch record minus index)."""
    return json.dumps({
        "url": url, "cluster": cluster, "values": values,
        "failures": [list(failure) for failure in failures],
    }, sort_keys=True)


def _upper_and_split(components: list) -> PostProcessor:
    """A transform on every component, a splitter on the last one."""
    post = PostProcessor()
    for name in components:
        post.register(name, str.upper)
    post.register_splitter(components[-1], split_list(","))
    return post


#: Filler words: lower case, so no padding text equals an anchor label.
_PAD_WORDS = (
    "amber basin cedar delta ember fjord grove harbor inlet juniper "
    "kestrel lagoon meadow nectar orchard pebble quarry ridge summit"
).split()


def _padded(page: WebPage, factor: int) -> WebPage:
    """``page`` grown ``factor``-fold with filler before ``</body>``.

    The filler uses the tags the contextual locations test (H1, SPAN,
    S, UL/LI, TABLE/TD), so every padding block is a candidate the
    anchors must reject.
    """
    rng = random.Random(f"{page.url}/{factor}")

    def words(k: int) -> str:
        return " ".join(rng.choice(_PAD_WORDS) for _ in range(k))

    blocks = [f"<div><p>{words(4)}</p>"]
    size = factor * len(page.html)
    grown = len(page.html)
    while grown < size:
        block = rng.choice([
            f"<h1>{words(3)}</h1>",
            f"<p>{words(3)} <span>{words(2)}</span> <s>{words(1)}</s></p>",
            "<ul>" + "".join(f"<li>{words(2)}</li>" for _ in range(3))
            + "</ul>",
            "<table>" + "".join(
                f"<tr><td>{words(2)}</td><td>{words(1)}</td></tr>"
                for _ in range(2)
            ) + "</table>",
        ])
        blocks.append(block)
        grown += len(block)
    blocks.append("</div>")
    cut = page.html.rfind("</body>")
    cut = len(page.html) if cut < 0 else cut
    html = page.html[:cut] + "".join(blocks) + page.html[cut:]
    return WebPage(url=f"{page.url}#x{factor}", html=html,
                   cluster_hint=page.cluster_hint)


def _nested(page: WebPage, depth: int) -> WebPage:
    """``page`` with ``depth`` nested DIVs (a text at the bottom) at
    the start of BODY."""
    cut = page.html.lower().index("<body")
    cut = page.html.index(">", cut) + 1
    html = (
        page.html[:cut] + "<div>" * depth + "deep" + "</div>" * depth
        + page.html[cut:]
    )
    return WebPage(url=f"{page.url}#deep{depth}", html=html,
                   cluster_hint=page.cluster_hint)


class TestByteIdentitySweep:
    @pytest.mark.parametrize("site_factory, cluster, components",
                             SITE_FAMILIES)
    def test_all_families_identical(self, family, site_factory, cluster,
                                    components):
        pages, repository = family(site_factory, cluster, components)
        stream = pages + MALFORMED
        sequential = ExtractionProcessor(repository, cluster).extract(stream)
        compiled = repository.compile_cluster(cluster).extract(stream)
        assert _outcome(compiled) == _outcome(sequential)

    @pytest.mark.parametrize("factor", [4, 16])
    @pytest.mark.parametrize("site_factory, cluster, components",
                             SITE_FAMILIES)
    def test_padded_pages_identical(self, family, site_factory, cluster,
                                    components, factor):
        # Padding multiplies the anchors' candidates; the wrapper must
        # still answer exactly as the reference processor does.
        pages, repository = family(site_factory, cluster, components)
        stream = [_padded(page, factor) for page in pages[8:12]]
        sequential = ExtractionProcessor(repository, cluster).extract(stream)
        compiled = repository.compile_cluster(cluster).extract(stream)
        assert _outcome(compiled) == _outcome(sequential)
        assert any(p.values != {} for p in compiled.pages)

    def test_deep_shop_page_gives_one_record_everywhere(self, family):
        # 3,000 nested DIVs at the start of BODY: the label lookups
        # walk past them, deeper than a recursive walk could go.
        site_factory, cluster, components = SITE_FAMILIES[2].values
        pages, repository = family(site_factory, cluster, components)
        page = _nested(pages[9], 3000)
        failures: list = []
        values = ExtractionProcessor(repository, cluster).extract_page(
            page, failures
        ).values
        assert values == repository.compile_cluster(cluster).extract_page(
            page
        ).values
        assert values["price"] and values["features"]
        expected = _served_line(
            page.url, cluster, values,
            [(f.component_name, f.reason) for f in failures],
        )
        handler = ServeHandler(repository, cluster=cluster)
        assert handler.handle_line(
            json.dumps({"url": page.url, "html": page.html})
        )[0] == expected
        for executor in ("inline", "process"):
            runtime = StreamingRuntime(
                repository, executor=executor, workers=2, ordered=True,
            )
            _, records = runtime.run_collect(IterablePageSource([page]))
            assert [
                _served_line(r.url, r.cluster, r.values, r.failures)
                for r in records
            ] == [expected], executor

    def test_very_deep_page_extracts_in_linear_time(self, family):
        # Ten times the nesting may cost about ten times as much on each
        # path, whatever the host's speed; a walk quadratic in depth
        # costs a hundred times as much (at 20,000 DIVs, tens of
        # seconds).
        site_factory, cluster, components = SITE_FAMILIES[2].values
        pages, repository = family(site_factory, cluster, components)
        wrapper = repository.compile_cluster(cluster)
        processor = ExtractionProcessor(repository, cluster)
        shallow, deep = (_nested(pages[9], depth) for depth in (2000, 20000))
        for page in (shallow, deep):
            compiled = wrapper.extract_page(page)
            reference = processor.extract_page(page)
            assert compiled.values == reference.values
            assert compiled.raw_values == reference.raw_values
            assert compiled.values["price"]

        def best_of_three(extract, page) -> float:
            times = []
            for _ in range(3):
                started = time.perf_counter()
                extract(page)
                times.append(time.perf_counter() - started)
            return min(times)

        for extract in (wrapper.extract_page, processor.extract_page):
            ratio = best_of_three(extract, deep) / best_of_three(
                extract, shallow
            )
            assert ratio < 25, (extract, ratio)

    @pytest.mark.parametrize("post", [False, True],
                             ids=["raw", "postprocessed"])
    @pytest.mark.parametrize("site_factory, cluster, components",
                             SITE_FAMILIES)
    def test_serve_and_every_executor_give_the_same_bytes(
        self, family, site_factory, cluster, components, post
    ):
        # serve, an inline run() and a process run() share one route
        # step and one outcome step (post-processing included); all
        # three must answer every page exactly as the processor does.
        pages, repository = family(site_factory, cluster, components)
        postprocessor = _upper_and_split(components) if post else None
        stream = (
            pages + [_padded(pages[0], 4), _padded(pages[1], 16)] + MALFORMED
        )
        processor = ExtractionProcessor(
            repository, cluster, postprocessor=postprocessor
        )
        expected = []
        for page in stream:
            failures: list = []
            values = processor.extract_page(page, failures).values
            expected.append(_served_line(
                page.url, cluster, values,
                [(f.component_name, f.reason) for f in failures],
            ))
        handler = ServeHandler(
            repository, cluster=cluster, postprocessor=postprocessor
        )
        served = [
            handler.handle_line(
                json.dumps({"url": page.url, "html": page.html})
            )[0]
            for page in stream
        ]
        assert served == expected
        for executor in ("inline", "process"):
            runtime = StreamingRuntime(
                repository, postprocessor=postprocessor, executor=executor,
                workers=2, chunk_size=8, ordered=True,
            )
            _, records = runtime.run_collect(IterablePageSource(
                WebPage(url=page.url, html=page.html, cluster_hint=cluster)
                for page in stream
            ))
            assert [
                _served_line(r.url, r.cluster, r.values, r.failures)
                for r in records
            ] == expected, executor


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
            "rules", "automaton_slots", "automaton_states",
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
