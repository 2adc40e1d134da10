"""Property-based tests (hypothesis) for the core invariants.

The substrates must hold up under arbitrary input:

* the HTML parser never crashes and always yields the canonical
  Document > HTML > BODY shape;
* serialise(parse(x)) is a fixpoint after one round (idempotence);
* a precise XPath generated for any node selects exactly that node;
* the single-pass automaton (``//`` steps, positional predicates and
  the paper's preceding-label anchors) selects what the generic
  evaluator selects, and a compiled wrapper extracts what the
  reference ``ExtractionProcessor`` extracts;
* XPath string literals round-trip through the evaluator;
* entity encode/decode round-trips;
* value normalisation is idempotent;
* similarity measures stay within bounds and are symmetric.
"""

from __future__ import annotations

import string
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.component import PageComponent
from repro.core.repository import RuleRepository
from repro.core.rule import MappingRule, normalize_value
from repro.core.xpath_builder import (
    build_precise_xpath,
    nearest_preceding_label,
    xpath_string_literal,
)
from repro.clustering.similarity import (
    cosine_similarity,
    jaccard_similarity,
    tag_sequence_similarity,
)
from repro.dom.node import Element, Text
from repro.extraction.extractor import ExtractionProcessor
from repro.service.automaton import (
    ExtractionAutomaton,
    automaton_steps,
    step_anchor,
)
from repro.sites.page import WebPage
from repro.dom.serialize import to_html
from repro.dom.traversal import iter_text_nodes
from repro.html import parse_html
from repro.html.entities import decode_entities, encode_entities
from repro.xpath import compile_xpath, evaluate, select

# ----------------------------------------------------------------------- #
# Strategies
# ----------------------------------------------------------------------- #

_TAGS = ["div", "p", "span", "table", "tr", "td", "ul", "li", "b", "i", "h1"]
_text = st.text(
    alphabet=string.ascii_letters + string.digits + " .,:;!?'", min_size=1,
    max_size=24,
)


@st.composite
def html_fragments(draw, depth=0, text=_text):
    """Random well-formed-ish HTML fragments."""
    if depth >= 3:
        return draw(text)
    parts = draw(
        st.lists(
            st.one_of(
                text,
                st.builds(
                    lambda tag, inner: f"<{tag}>{inner}</{tag}>",
                    st.sampled_from(_TAGS),
                    html_fragments(depth=depth + 1, text=text),
                ),
            ),
            min_size=0,
            max_size=4,
        )
    )
    return "".join(parts)


#: Constant labels a contextual anchor looks for (Section 3.4), some
#: padded with whitespace Python's ``str.split()`` drops (NBSP, EM
#: SPACE) so the scan's normalisation is pinned to the evaluator's.
_LABELS = ["Price:", "By:", "Old price:", "Features"]
_labelled_text = st.one_of(
    _text,
    st.sampled_from(_LABELS),
    st.sampled_from(["  ", "\xa0Price: ", "Old\u2003 price:", " By:\n"]),
    st.just("<!--note-->"),
)


@st.composite
def labelled_pages(draw):
    """Pages of random fragments with label texts, HEAD's included."""
    title = draw(st.sampled_from(["", "Price:", "Catalog"]))
    body = draw(html_fragments(text=_labelled_text))
    return WebPage(url="http://fuzz/", html=(
        f"<html><head><title>{title}</title></head>"
        f"<body>{body}</body></html>"
    ))


def _anchor(label: str) -> str:
    return (
        'normalize-space(preceding::text()[normalize-space(.) != ""][1])'
        f' = "{label}"'
    )


_LOCATION_TAGS = ["DIV", "P", "SPAN", "TD", "TR", "TABLE", "UL", "LI", "B",
                  "*"]
_prefixes = st.sampled_from(["BODY", "BODY[1]", "BODY/DIV", "BODY//DIV"])
_anchor_labels = st.sampled_from([*_LABELS, "", "Absent:"])

_positional_steps = st.builds(
    lambda test, predicate: test + predicate,
    st.sampled_from(["DIV", "P", "SPAN", "TD", "TR", "LI", "B", "*"]),
    st.sampled_from(["", "[1]", "[2]", "[position() >= 2]",
                     "[position() < 3]", "[position() != 1]"]),
)

#: Locations from the automaton's grammar: ``P//T/text()[anchor]``,
#: ``P//T[anchor]/<child steps>``, ``P//T[k]`` and child steps with
#: positional predicates only, whose bounded frames stop early.
automaton_locations = st.one_of(
    st.builds(
        lambda steps, tail: "/".join(["BODY", *steps]) + tail,
        st.lists(_positional_steps, max_size=3),
        st.sampled_from(["", "/text()", "/text()[1]", "/text()[2]",
                         "/comment()[1]", "/node()[2]"]),
    ),
    st.builds(
        lambda prefix, tag, label: (
            f"{prefix}//{tag}/text()[{_anchor(label)}]"
        ),
        _prefixes, st.sampled_from(_LOCATION_TAGS), _anchor_labels,
    ),
    st.builds(
        lambda prefix, tag, label, tail: (
            f"{prefix}//{tag}[{_anchor(label)}]{tail}"
        ),
        _prefixes, st.sampled_from(_LOCATION_TAGS), _anchor_labels,
        st.sampled_from(["", "/text()", "/LI/text()[1]",
                         "/TR/TD[2]/text()[1]", "/*[1]", "//text()"]),
    ),
    st.builds(
        lambda prefix, tag, k, tail: f"{prefix}//{tag}[{k}]{tail}",
        _prefixes, st.sampled_from(_LOCATION_TAGS), st.integers(1, 3),
        st.sampled_from(["", "/text()", "/text()[1]"]),
    ),
)


_arbitrary_html = st.text(
    alphabet=string.printable, min_size=0, max_size=200
)


# ----------------------------------------------------------------------- #
# Parser robustness
# ----------------------------------------------------------------------- #


@given(_arbitrary_html)
@settings(max_examples=200)
def test_parser_never_crashes_and_guarantees_shape(source):
    doc = parse_html(source)
    html = doc.document_element
    assert html is not None and html.tag == "HTML"
    assert html.find_first("BODY") is not None


@given(html_fragments())
@settings(max_examples=100)
def test_serialise_parse_fixpoint(fragment):
    once = to_html(parse_html(fragment))
    twice = to_html(parse_html(once))
    assert once == twice


@given(html_fragments())
@settings(max_examples=100)
def test_text_content_preserved_for_wellformed_fragments(fragment):
    doc = parse_html(f"<body>{fragment}</body>")
    reparsed = parse_html(to_html(doc))
    assert doc.text_content() == reparsed.text_content()


# ----------------------------------------------------------------------- #
# Precise-XPath correctness: generate-then-select identity
# ----------------------------------------------------------------------- #


@given(html_fragments())
@settings(max_examples=100)
def test_precise_xpath_selects_exactly_the_selected_node(fragment):
    doc = parse_html(f"<body>{fragment}</body>")
    root = doc.document_element
    for node in iter_text_nodes(root, skip_whitespace=True):
        xpath = build_precise_xpath(node)
        result = select(root, xpath)
        assert result == [node], xpath


@given(html_fragments())
@settings(max_examples=50)
def test_precise_xpath_for_elements(fragment):
    doc = parse_html(f"<body>{fragment}</body>")
    root = doc.document_element
    body = root.find_first("BODY")
    for node in body.descendants():
        if isinstance(node, Element):
            xpath = build_precise_xpath(node)
            assert select(root, xpath) == [node]


# ----------------------------------------------------------------------- #
# Single-pass automaton == generic evaluator == reference processor
# ----------------------------------------------------------------------- #


def _pinned_path(leaf) -> str:
    """``*[k]`` steps from the HTML element down to ``leaf``, then a
    last ``node()[k]``: a path that selects exactly ``leaf``."""
    steps = []
    node = leaf
    while not (isinstance(node, Element) and node.tag == "HTML"):
        before = node.parent.children[:node.index_in_parent + 1]
        if isinstance(node, Element):
            elements = sum(isinstance(sibling, Element) for sibling in before)
            steps.append(f"*[{elements}]")
        else:
            steps.append(f"node()[{len(before)}]")
        node = node.parent
    return "/".join(reversed(steps))


@st.composite
def pages_with_locations(draw, max_random=3):
    """A labelled page, random grammar locations, and locations built
    from its own nodes, so every example has positional paths and
    anchors that match: a leaf's path by ``*[k]``/``node()[k]``, a text
    node's precise path, the same path anchored on its label, and its
    label and its parent's under ``BODY//``."""
    page = draw(labelled_pages())
    locations = draw(st.lists(automaton_locations, max_size=max_random))
    body = page.root_element.find_first("BODY")
    leaves = [node for node in body.descendants() if not node.children]
    if leaves:
        locations.append(_pinned_path(draw(st.sampled_from(leaves))))
    texts = [
        node for node in body.descendants()
        if isinstance(node, Text) and node.parent is not body
    ]
    if texts:
        node = draw(st.sampled_from(texts))
        tag = node.parent.tag
        label = nearest_preceding_label(node) or ""
        outer = nearest_preceding_label(node.parent) or ""
        locations.append(build_precise_xpath(node))
        locations.append(
            f"{build_precise_xpath(node.parent)}/text()[{_anchor(label)}]"
        )
        locations.append(f"BODY//{tag}/text()[{_anchor(label)}]")
        locations.append(f"BODY//{tag}[{_anchor(outer)}]/text()")
    return page, locations


@given(pages_with_locations(max_random=4))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_automaton_scan_equals_xpath_select(case):
    page, locations = case
    compiled = [compile_xpath(location) for location in locations]
    unanchored = [
        xpath for xpath in compiled
        if not any(step_anchor(step) for step in automaton_steps(xpath))
    ]
    unsticky = [xpath for xpath in compiled if "//" not in xpath.source]
    contexts = (page.root_element, page.root_element.find_first("BODY"))
    expected = {
        (xpath, context): xpath.select(context)
        for xpath in compiled for context in contexts
    }
    # All locations in one automaton, then the anchor-free ones (their
    # bounded frames stop at the last possible match), the ``//``-free
    # ones (an anchor there keeps every frame going for the register)
    # and each location alone.
    groups = (compiled, unanchored, unsticky, *([xpath] for xpath in compiled))
    for group in groups:
        automaton = ExtractionAutomaton(
            (slot, automaton_steps(xpath)) for slot, xpath in enumerate(group)
        )
        for context in contexts:
            hits = automaton.scan(context)
            for slot, xpath in enumerate(group):
                assert hits[slot] == expected[xpath, context], xpath.source


@given(pages_with_locations(max_random=2))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_compiled_wrapper_equals_extraction_processor(case):
    page, locations = case
    if not locations:
        return
    repository = RuleRepository()
    # The first rule carries the rest as alternatives (first match
    # wins); each location is also a rule of its own.
    repository.record("c", MappingRule(PageComponent("all"),
                                       tuple(locations)))
    for index, location in enumerate(locations):
        repository.record("c", MappingRule(PageComponent(f"c{index}"),
                                           (location,)))
    failures: list = []
    expected_failures: list = []
    compiled = repository.compile_cluster("c").extract_page(page, failures)
    expected = ExtractionProcessor(repository, "c").extract_page(
        page, expected_failures
    )
    assert compiled.values == expected.values
    assert compiled.raw_values == expected.raw_values
    assert failures == expected_failures


# ----------------------------------------------------------------------- #
# Literals and entities
# ----------------------------------------------------------------------- #


@given(st.text(alphabet=string.ascii_letters + "'\" :.,", max_size=30))
@settings(max_examples=150)
def test_xpath_string_literal_roundtrips_through_evaluator(value):
    doc = parse_html("<body><p>x</p></body>")
    literal = xpath_string_literal(value)
    assert evaluate(doc.document_element, f"string({literal})") == value


@given(st.text(alphabet=string.printable, max_size=60))
@settings(max_examples=150)
def test_entity_encode_decode_roundtrip(value):
    assert decode_entities(encode_entities(value)) == value


# ----------------------------------------------------------------------- #
# Normalisation and similarity invariants
# ----------------------------------------------------------------------- #


@given(st.text(max_size=60))
def test_normalize_value_idempotent(value):
    once = normalize_value(value)
    assert normalize_value(once) == once


@given(st.text(max_size=60))
def test_normalize_value_no_leading_trailing_space(value):
    normalized = normalize_value(value)
    assert normalized == normalized.strip()


_counters = st.dictionaries(
    st.sampled_from(list("abcdefgh")), st.integers(1, 5), max_size=6
).map(Counter)


@given(_counters, _counters)
def test_cosine_bounds_and_symmetry(a, b):
    value = cosine_similarity(a, b)
    assert 0.0 <= value <= 1.0 + 1e-9
    assert abs(value - cosine_similarity(b, a)) < 1e-9


@given(_counters, _counters)
def test_jaccard_bounds_and_symmetry(a, b):
    value = jaccard_similarity(a, b)
    assert 0.0 <= value <= 1.0
    assert jaccard_similarity(b, a) == value


@given(_counters)
def test_self_similarity_is_one(a):
    expected = 1.0 if a else 0.0
    assert abs(cosine_similarity(a, a) - expected) < 1e-9
    assert jaccard_similarity(a, a) == 1.0


_sequences = st.lists(st.sampled_from(["DIV", "P", "TD", "TR"]), max_size=20)


@given(_sequences, _sequences)
def test_tag_sequence_similarity_bounds_and_symmetry(a, b):
    value = tag_sequence_similarity(a, b)
    assert 0.0 <= value <= 1.0
    assert abs(value - tag_sequence_similarity(b, a)) < 1e-9


@given(_sequences)
def test_tag_sequence_self_similarity(a):
    assert tag_sequence_similarity(a, a) == 1.0
