"""The site model: an addressable collection of pages.

Stands in for the crawling/fetching layer: "given a data-intensive Web
site, its pages are gathered into page clusters" (Section 1).  A
:class:`WebSite` simply owns pages keyed by URL and offers the sampling
primitive the rule-building scenario starts from (Section 3.1: "a
representative set of pages is selected to form a working sample...
about ten randomly selected pages").
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Optional
from urllib.parse import urlparse

from repro.errors import SiteGenerationError
from repro.sites.page import WebPage


@dataclass
class WebSite:
    """A collection of web pages sharing a domain.

    Attributes:
        domain: site domain, e.g. ``"imdb.example.org"``.
        pages: pages keyed by URL, in insertion order.
    """

    domain: str
    pages: dict[str, WebPage] = field(default_factory=dict)

    # -- construction ------------------------------------------------------ #

    def add_page(self, page: WebPage) -> WebPage:
        """Register ``page``; URLs must be unique within the site."""
        if page.url in self.pages:
            raise SiteGenerationError(f"duplicate URL {page.url}")
        self.pages[page.url] = page
        return page

    # -- access ------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.pages)

    def __iter__(self) -> Iterator[WebPage]:
        return iter(self.pages.values())

    def get(self, url: str) -> Optional[WebPage]:
        return self.pages.get(url)

    def fetch(self, url: str) -> WebPage:
        """Page by URL; raises ``KeyError`` for unknown URLs (like a 404)."""
        if url not in self.pages:
            raise KeyError(f"no such page: {url}")
        return self.pages[url]

    def urls(self) -> list[str]:
        return list(self.pages)

    def pages_with_hint(self, cluster_hint: str) -> list[WebPage]:
        """All pages the generator labelled with ``cluster_hint``."""
        return [page for page in self if page.cluster_hint == cluster_hint]

    # -- sampling (Section 3.1) -------------------------------------------- #

    def working_sample(
        self,
        size: int = 10,
        seed: Optional[int] = None,
        cluster_hint: Optional[str] = None,
    ) -> list[WebPage]:
        """A random working sample of ``size`` pages.

        Args:
            size: number of pages (the paper suggests "about ten").
            seed: RNG seed for reproducibility.
            cluster_hint: restrict sampling to one generated cluster.

        Raises:
            SiteGenerationError: when the site has no eligible pages.
        """
        pool = (
            self.pages_with_hint(cluster_hint)
            if cluster_hint is not None
            else list(self)
        )
        if not pool:
            raise SiteGenerationError("cannot sample from an empty site/cluster")
        rng = random.Random(seed)
        if size >= len(pool):
            return list(pool)
        return rng.sample(pool, size)


def same_domain(url_a: str, url_b: str) -> bool:
    """True when two URLs share a network location (clustering heuristic 1)."""
    return urlparse(url_a).netloc == urlparse(url_b).netloc
