"""Differential tests for the per-page work before extraction.

Each page is parsed, signed (:func:`page_signature`) and scored against
every cluster profile (:meth:`ClusterProfile.score`).  Each of those
three steps is checked here against a plain reference kept in this
file:

* the tree builder against a builder that attaches every node through
  :meth:`Node.append_child`;
* the one-walk signature against two walks: text nodes for the
  keywords, and a :func:`tag_path` climb per element for the paths;
* the scorer against the similarity functions it stands for,
  ``0.55 * structure_similarity + 0.30 * cosine_similarity + 0.15 *
  url``, and routing against the same formulas with the same tie rule.
"""

from __future__ import annotations

import ast
import json
import pickle
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.features import (
    _STOPWORDS,
    _WORD_RE,
    PageSignature,
    keyword_profile,
    page_signature,
    path_profile,
    url_signature,
)
from repro.clustering.similarity import cosine_similarity, structure_similarity
from repro.dom.node import Document, Element, Text
from repro.dom.serialize import VOID_ELEMENTS
from repro.dom.traversal import iter_text_nodes, tag_path_profile
from repro.html import parse_html
from repro.html.parser import _HEAD_TAGS, _IMPLIED_END, _TreeBuilder
from repro.html.tokenizer import (
    CommentToken,
    EndTagToken,
    StartTagToken,
    TextToken,
    tokenize,
)
from repro.service.registry.artifacts import profile_from_dict, profile_to_dict
from repro.service.router import UNROUTABLE, ClusterProfile, ClusterRouter
from repro.sites import (
    generate_imdb_site,
    generate_news_site,
    generate_shop_site,
    generate_stocks_site,
)
from repro.sites.page import WebPage
from repro.sites.variation import generate_depth_cluster
from test_properties import _labelled_text, html_fragments
from test_service_automaton import MALFORMED, _padded

TESTS = Path(__file__).resolve().parent

# --------------------------------------------------------------------- #
# References
# --------------------------------------------------------------------- #


class _AppendChildBuilder(_TreeBuilder):
    """The tree builder with every node attached by ``append_child``,
    ``ensure_body`` on every tag and the implied-end search on every
    tag."""

    def insert_text(self, data):
        if not data:
            return
        if self.body is None:
            if self.stack:
                parent = self.stack[-1]
                last = parent.children[-1] if parent.children else None
                if isinstance(last, Text):
                    last.data += data
                else:
                    parent.append_child(Text(data))
                return
            if not data.strip():
                return
            self.ensure_body()
        parent = self.current
        last = parent.children[-1] if parent.children else None
        if isinstance(last, Text):
            last.data += data
        else:
            parent.append_child(Text(data))

    def start_tag(self, token):
        tag = token.tag
        if tag == "HTML":
            self.ensure_html(token.attributes)
            return
        if tag == "HEAD":
            self.ensure_head()
            return
        if tag == "BODY":
            self.ensure_body(token.attributes)
            return
        if self.body is None and tag in _HEAD_TAGS:
            element = Element(tag, token.attributes)
            self.ensure_head().append_child(element)
            if tag not in VOID_ELEMENTS and not token.self_closing:
                self.stack = [element]
            return
        if self.body is None and tag == "SCRIPT":
            element = Element(tag, token.attributes)
            self.ensure_head().append_child(element)
            self.stack = [element]
            return
        self.ensure_body()
        closes = _IMPLIED_END.get(tag, frozenset())
        if closes:
            self._apply_implied_end_tags(tag, closes)
        element = Element(tag, token.attributes)
        self.current.append_child(element)
        if tag not in VOID_ELEMENTS and not token.self_closing:
            self.stack.append(element)


def _reference_parse(source: str) -> Document:
    builder = _AppendChildBuilder("")
    for token in tokenize(source):
        if isinstance(token, TextToken):
            builder.insert_text(token.data)
        elif isinstance(token, StartTagToken):
            builder.start_tag(token)
        elif isinstance(token, EndTagToken):
            builder.end_tag(token)
        elif isinstance(token, CommentToken):
            builder.insert_comment(token.data)
    return builder.finish()


def _serialized(document: Document) -> list[tuple]:
    """The tree in preorder: depth, kind, tag or data, attributes.

    Also checks every parent pointer, which the serialization alone
    would not see.
    """
    out = []
    stack = [(document, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, Element):
            out.append((depth, "element", node.tag,
                        list(node.attributes.items())))
        else:
            out.append((depth, type(node).__name__,
                        getattr(node, "data", None), None))
        for child in node.children:
            assert child.parent is node
        stack.extend((child, depth + 1) for child in reversed(node.children))
    return out


def _reference_signature(page: WebPage, keyword_limit: int = 30):
    """Two walks: text nodes for the keywords, a climb per element."""
    keywords: Counter = Counter()
    for text in iter_text_nodes(page.root_element, skip_whitespace=True):
        for word in _WORD_RE.findall(text.data.lower()):
            if word not in _STOPWORDS and len(word) > 2:
                keywords[word] += 1
    if keyword_limit and len(keywords) > keyword_limit:
        keywords = Counter(dict(keywords.most_common(keyword_limit)))
    return PageSignature(
        url_signature=url_signature(page.url),
        keywords=keywords,
        paths=Counter(tag_path_profile(page.root_element)),
    )


def _reference_score(profile: ClusterProfile, signature) -> float:
    url = 1.0 if signature.url_signature in profile.url_signatures else 0.0
    return (
        0.55 * structure_similarity(signature.paths, profile.paths)
        + 0.30 * cosine_similarity(signature.keywords, profile.keywords)
        + 0.15 * url
    )


def _reference_route(router: ClusterRouter, signature):
    """``(cluster, runner_up)`` by the reference scores, earlier wins ties."""
    ranked = []
    for index, profile in enumerate(router.profiles):
        ranked.append((-_reference_score(profile, signature), index,
                       profile.name))
    ranked.sort()
    best = -ranked[0][0]
    if best < router.threshold:
        return UNROUTABLE, None
    return ranked[0][2], ranked[1][2] if len(ranked) > 1 else None


def _items(signature) -> tuple:
    """A signature with its key orders, which ``==`` on Counters skips."""
    return (signature.url_signature, list(signature.keywords.items()),
            list(signature.paths.items()))


# --------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------- #


def _constant_strings(module: Path) -> list[str]:
    """Every string a test module spells out, joined where it is built
    from constants (``"<body>" + "<div>" * 30``)."""
    found = set()
    for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        elif isinstance(node, ast.BinOp) and all(
            isinstance(part, (ast.BinOp, ast.Constant, ast.operator))
            for part in ast.walk(node)
        ):
            value = eval(compile(ast.Expression(node), module.name, "eval"))
            if isinstance(value, str):
                found.add(value)
    return sorted(found)


PARSER_INPUTS = sorted(
    set(_constant_strings(TESTS / "test_html_torture.py"))
    | set(_constant_strings(TESTS / "test_html_parser.py"))
    | {page.html for page in MALFORMED}
)

#: The five families the benchmark serves, as (cluster, pages(n, seed)).
FAMILIES = [
    ("imdb-movies", lambda n, seed: generate_imdb_site(
        n_movies=n, n_actors=0, n_search=0, seed=seed,
    ).pages_with_hint("imdb-movies")),
    ("shop-products", lambda n, seed: generate_shop_site(
        n, seed=seed).pages_with_hint("shop-products")),
    ("news-articles", lambda n, seed: generate_news_site(
        n, seed=seed).pages_with_hint("news-articles")),
    ("stock-quotes", lambda n, seed: generate_stocks_site(
        n, seed=seed).pages_with_hint("stock-quotes")),
    ("depth-1", lambda n, seed: generate_depth_cluster(
        1, n_pages=n, seed=seed)),
]


@pytest.fixture(scope="module")
def five_families():
    """A router fitted on every family, and fresh pages at 1x/4x/16x."""
    router = ClusterRouter.fit({
        name: generate(8, 4) for name, generate in FAMILIES
    })
    pages = []
    for _, generate in FAMILIES:
        fresh = generate(4, 9)
        pages += fresh
        pages += [_padded(page, factor) for page in fresh
                  for factor in (4, 16)]
    return router, pages


_PATHS = [("HTML",), ("HTML", "BODY"), ("HTML", "BODY", "DIV"),
          ("HTML", "BODY", "DIV", "P"), ("HTML", "HEAD"),
          ("HTML", "BODY", "TABLE", "TR", "TD"), ("HTML", "BODY", "UL")]
_WORDS = ["runtime", "directed", "price", "genre", "rating", "cast",
          "headline"]
_weights = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False,
              allow_infinity=False),
)


@st.composite
def signatures_and_profiles(draw):
    """A page signature (integer counts) and a profile (non-negative
    float weights) over small shared vocabularies, so that empty sides,
    disjoint keys, partial overlaps and zero norms all occur."""
    def counts(keys):
        return Counter(draw(st.dictionaries(
            st.sampled_from(keys), st.integers(0, 40), max_size=len(keys),
        )))

    def weights(keys):
        return Counter(draw(st.dictionaries(
            st.sampled_from(keys), _weights, max_size=len(keys),
        )))

    signature = PageSignature(
        url_signature=draw(st.sampled_from(["a/*/", "b/"])),
        keywords=counts(_WORDS), paths=counts(_PATHS),
    )
    profile = ClusterProfile(
        name="drawn",
        url_signatures=frozenset(draw(st.sets(st.sampled_from(["a/*/",
                                                              "c/"])))),
        keywords=weights(_WORDS), paths=weights(_PATHS),
    )
    return signature, profile


# --------------------------------------------------------------------- #
# Scorer
# --------------------------------------------------------------------- #


class TestScorer:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(signatures_and_profiles())
    def test_score_equals_the_reference_formula(self, drawn):
        signature, profile = drawn
        assert profile.score(signature) == pytest.approx(
            _reference_score(profile, signature), rel=0, abs=1e-12
        )

    @pytest.mark.parametrize("page, profile, structure, keywords", [
        ({}, {}, 1.0, 0.0),
        ({"k": 2}, {}, 0.0, 0.0),
        ({}, {"k": 2.0}, 0.0, 0.0),
        ({"k": 0}, {"k": 0.0}, 1.0, 0.0),
        ({"k": 3}, {"j": 1.5}, 0.0, 0.0),
    ], ids=["both-empty", "empty-profile", "empty-page", "zero-weights",
            "disjoint"])
    def test_edge_cases_keep_their_values(self, page, profile, structure,
                                          keywords):
        # The same counter on both sides: keys stay valid as both
        # structural paths and keywords.
        signature = PageSignature("x/", Counter(page), Counter(page))
        fitted = ClusterProfile("p", frozenset(), Counter(profile),
                                Counter(profile))
        assert fitted.score(signature) == pytest.approx(
            0.55 * structure + 0.30 * keywords
        )

    def test_profile_constants_stay_out_of_eq_repr_and_artifact(
        self, five_families
    ):
        router, _ = five_families
        profile = router.profiles[0]
        twin = ClusterProfile(profile.name, profile.url_signatures,
                              Counter(profile.keywords),
                              Counter(profile.paths))
        assert twin == profile
        assert "_path_total" not in repr(profile)
        assert "_keyword_norm" not in repr(profile)
        assert set(profile_to_dict(profile)) == {
            "name", "url_signatures", "keywords", "paths",
        }

    def test_pickled_and_reloaded_profiles_score_the_same(
        self, five_families
    ):
        router, pages = five_families
        signatures = [page_signature(page) for page in pages]
        unpickled = pickle.loads(pickle.dumps(router))
        for original, copy in zip(router.profiles, unpickled.profiles):
            reloaded = profile_from_dict(
                json.loads(json.dumps(profile_to_dict(original)))
            )
            for signature in signatures:
                score = original.score(signature)
                assert copy.score(signature) == score
                assert reloaded.score(signature) == score


# --------------------------------------------------------------------- #
# Signature
# --------------------------------------------------------------------- #


class TestSignature:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        body=html_fragments(text=_labelled_text),
        title=st.sampled_from(["", "Price price", "Catalog"]),
        keyword_limit=st.sampled_from([0, 2, 5, 30]),
    )
    def test_one_walk_equals_two_walks_on_fragments(self, body, title,
                                                    keyword_limit):
        page = WebPage(url="http://fuzz/item/12/", html=(
            f"<html><head><title>{title}</title></head>"
            f"<body>{body}</body></html>"
        ))
        # Keyword order included: at a limit, ties keep the earlier word.
        assert _items(page_signature(page, keyword_limit)) == _items(
            _reference_signature(page, keyword_limit)
        )

    def test_one_walk_equals_two_walks_on_the_families(self, five_families):
        _, pages = five_families
        for page in pages:
            reference = _reference_signature(page)
            assert _items(page_signature(page)) == _items(reference)
            assert list(keyword_profile(page).items()) == list(
                reference.keywords.items()
            )
            assert list(path_profile(page).items()) == list(
                reference.paths.items()
            )


class TestDecisions:
    def test_routing_matches_the_reference_formulas(self, five_families):
        router, pages = five_families
        for page in pages:
            decision = router.route_signature(page_signature(page))
            cluster, runner_up = _reference_route(
                router, _reference_signature(page)
            )
            assert (decision.cluster, decision.runner_up) == (
                cluster, runner_up
            ), page.url
        # Every 1x page routes to its own family.
        for page in pages:
            if "#x" not in page.url:
                assert router.route(page).cluster == page.cluster_hint, (
                    page.url
                )


# --------------------------------------------------------------------- #
# Parse
# --------------------------------------------------------------------- #


class TestTreeBuilder:
    @pytest.mark.parametrize("source", PARSER_INPUTS)
    def test_parser_test_inputs_build_the_same_tree(self, source):
        assert _serialized(parse_html(source)) == _serialized(
            _reference_parse(source)
        )

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(body=html_fragments(text=_labelled_text),
           head=st.sampled_from(["", "<title>t</title>", "<head>",
                                 "<script>x<y</script>", "<html>"]))
    def test_fragments_build_the_same_tree(self, body, head):
        source = head + body
        assert _serialized(parse_html(source)) == _serialized(
            _reference_parse(source)
        )

    def test_family_pages_build_the_same_tree(self, five_families):
        _, pages = five_families
        for page in pages:
            assert _serialized(parse_html(page.html)) == _serialized(
                _reference_parse(page.html)
            ), page.url
