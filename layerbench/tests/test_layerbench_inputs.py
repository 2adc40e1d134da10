"""Generated inputs: padding keeps ground truth; rounds are balanced."""

import random
import re
from collections import Counter

import pytest

import corpus
from corpus import FAMILIES, pad_html

from repro.sites.page import WebPage


@pytest.fixture(scope="module")
def artifact():
    repository, router = corpus.induce_artifact()
    return repository, router, repository.compile_all()


def _anchor_labels(repository):
    labels = set()
    for cluster in repository.clusters():
        for rule in repository.rules(cluster):
            for location in rule.locations:
                labels.update(re.findall(r'\) = "([^"]*)"\]', location))
    return labels


def _padding(html: str, padded: str) -> str:
    cut = html.rfind("</body>")
    assert padded[:cut] == html[:cut], "padding must follow the content"
    return padded[cut:len(padded) - (len(html) - cut)]


def test_padding_is_seeded_and_grows_the_page():
    html = FAMILIES[1].generate(1, 5)[0].html
    first = pad_html(html, 4 * len(html), random.Random("s"))
    assert first == pad_html(html, 4 * len(html), random.Random("s"))
    assert first != pad_html(html, 4 * len(html), random.Random("t"))
    assert len(first) >= 4 * len(html)
    assert pad_html(html, len(html), random.Random("s")) == html


def test_padding_text_never_equals_an_anchor_label(artifact):
    repository, _, _ = artifact
    labels = _anchor_labels(repository)
    assert {"Price:", "Catalog", "Intraday", "Country:"} <= labels
    for family in FAMILIES:
        html = family.generate(1, 9)[0].html
        padding = _padding(html, pad_html(html, 16 * len(html),
                                           random.Random(1)))
        texts = {text.strip() for text in re.findall(r">([^<]+)<", padding)}
        assert texts and not texts & labels
        tags = set(re.findall(r"<([a-z0-9]+)", padding))
        assert {"h1", "span", "ul", "li", "table", "td"} <= tags


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.name)
def test_padded_pages_keep_ground_truth(artifact, family):
    _, _, wrappers = artifact
    page = family.generate(1, 11)[0]
    for factor in (4, 8):
        padded = WebPage(url=page.url, html=pad_html(
            page.html, factor * len(page.html), random.Random(2)
        ))
        values = wrappers[family.name].extract_page(padded).values
        for name in family.components:
            assert values[name] == page.ground_truth.get(name, []), name


def test_padded_corpus_interleaves_every_family_and_size():
    pages = corpus.padded_corpus(3)
    for page in pages:
        factor = {"1x": 1, "4x": 4, "16x": 16}[page.size]
        if factor > 1:
            family = corpus.FAMILY_BY_NAME[page.family]
            assert len(page.html) >= factor * corpus.reference_size(family)
    assert [p.url for p in pages] == [p.url for p in corpus.padded_corpus(3)]
    per_class = Counter((p.family, p.size) for p in pages)
    for family in FAMILIES:
        for label, _, count in corpus.SIZE_CLASSES:
            assert per_class[family.name, label] == count
    sizes = [p.size for p in pages]
    assert sizes != sorted(sizes, key=["1x", "4x", "16x"].index)


def test_balanced_rounds_share_one_family_mix():
    rounds = corpus.balanced_rounds(5, rounds=3, per_family=4)
    urls = [p.url for chunk in rounds for p in chunk]
    assert len(urls) == len(set(urls)) == 3 * 4 * len(FAMILIES)
    for chunk in rounds:
        assert Counter(p.family for p in chunk) == {
            f.name: 4 for f in FAMILIES
        }
    again = corpus.balanced_rounds(5, rounds=3, per_family=4)
    assert [p.url for chunk in again for p in chunk] == urls
