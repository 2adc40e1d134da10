"""Per-page features used by the clustering heuristics.

Each feature corresponds to a technique the paper cites (Section 2.1):
"simple analysis of URLs [7], [20] ... tags periodicity [7], keywords
frequency [22]".
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from urllib.parse import urlparse

from repro.dom.node import Element, Node, Text
from repro.dom.traversal import tag_path, tag_sequence
from repro.sites.page import WebPage

_NUMBER_RE = re.compile(r"\d+")
_WORD_RE = re.compile(r"[a-zA-Z][a-zA-Z'-]+")

#: High-frequency words carrying no concept signal.
_STOPWORDS = frozenset(
    """a an and are as at be but by for from has have in is it its of on or
    that the this to was were will with all after more one two new"""
    .split()
)


def url_signature(url: str) -> str:
    """A URL pattern with volatile parts masked.

    ``http://imdb.example.org/title/tt1000004/`` and
    ``.../title/tt1000017/`` share the signature
    ``imdb.example.org/title/*/`` — the URL-analysis heuristic of
    [7]/[20]: pages produced by the same server template share a URL
    shape.

    >>> url_signature("http://x.org/title/tt123/")
    'x.org/title/*/'
    """
    parsed = urlparse(url)
    segments = [s for s in parsed.path.split("/")]
    masked: list[str] = []
    for segment in segments:
        if not segment:
            masked.append("")
            continue
        if _NUMBER_RE.search(segment):
            masked.append("*")
        else:
            masked.append(segment)
    path = "/".join(masked)
    query = "?*" if parsed.query else ""
    return f"{parsed.netloc}{path}{query}"


def keyword_profile(page: WebPage, limit: int = 30) -> Counter:
    """Frequency counter of the page's most telling words.

    The "keywords frequency" heuristic [22]: pages featuring instances
    of the same concept share template vocabulary (the constant labels
    — "Runtime:", "Directed by:" — dominate, because data values vary
    across pages while labels repeat across the cluster).  Words are
    counted in document order, so ``limit`` breaks count ties in
    favour of the earlier word.
    """
    return _signature_walk(page.root_element, limit)[0]


def tag_profile(page: WebPage) -> Counter:
    """Tag-frequency counter (coarse layout fingerprint)."""
    return Counter(tag_sequence(page.root_element))


def path_profile(page: WebPage) -> Counter:
    """Root-to-element tag-path multiset (fine layout fingerprint).

    Two pages rendered from the same template share most of their tag
    paths even when optional blocks differ — this is the "close HTML
    structure" membership criterion.
    """
    return _signature_walk(page.root_element)[1]


def page_tag_sequence(page: WebPage) -> list[str]:
    """The DFS tag sequence (input to periodicity/sequence similarity)."""
    return tag_sequence(page.root_element)


@dataclass(frozen=True)
class PageSignature:
    """All clustering features of one page, bundled.

    The three membership signals of Section 2.1 (URL shape, concept
    keywords, HTML structure) travel as one value for consumers that
    need them together — notably the service router
    (:mod:`repro.service.router`).  Keywords and tag paths come from
    one preorder walk of the page.
    """

    url_signature: str
    keywords: Counter
    paths: Counter


def page_signature(page: WebPage, keyword_limit: int = 30) -> PageSignature:
    """Compute the page's full clustering signature."""
    keywords, paths = _signature_walk(page.root_element, keyword_limit)
    return PageSignature(
        url_signature=url_signature(page.url),
        keywords=keywords,
        paths=paths,
    )


def _signature_walk(root: Element, limit: int = 30) -> tuple[Counter, Counter]:
    """``(keywords, paths)`` of ``root``'s subtree in one preorder walk.

    The stack holds ``(node, parent's tag path)``, so each element's
    path costs one tuple concatenation rather than a climb to the root
    (:func:`~repro.dom.traversal.tag_path`), and text is gathered in
    document order for the keyword count.  Comments contribute nothing.
    """
    paths: list[tuple[str, ...]] = []
    texts: list[str] = []
    stack: list[tuple[Node, tuple[str, ...]]] = [(root, tag_path(root)[:-1])]
    pop, push = stack.pop, stack.extend
    while stack:
        node, parent_path = pop()
        if isinstance(node, Element):
            path = parent_path + (node.tag,)
            paths.append(path)
            children = node.children
            if children:
                push([(child, path) for child in reversed(children)])
        elif isinstance(node, Text):
            texts.append(node.data)
    # One text per line: no word spans two nodes, and whitespace-only
    # nodes hold no word, so this counts each node's words in order.
    counter = Counter([
        word for word in _WORD_RE.findall("\n".join(texts).lower())
        if word not in _STOPWORDS and len(word) > 2
    ])
    if limit and len(counter) > limit:
        counter = Counter(dict(counter.most_common(limit)))
    return counter, Counter(paths)
