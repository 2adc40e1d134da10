"""The page clusterer: combining the paper's heuristics.

Section 2.1's membership test — "two pages belong to the same page
cluster if they share the following intuitive features: they come from
the same Web site (domain); they display instances of the same concept;
they have a close HTML structure" — is applied pairwise, and clusters
are the connected components of the resulting similarity graph (via
networkx when available, with a small built-in union-find fallback).

A cheap URL-signature pre-grouping keeps the pairwise comparisons
within plausible groups, the way "several techniques are used in
parallel or sequentially in order to improve the accuracy".
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional
from urllib.parse import urlparse

from repro.errors import ClusteringError
from repro.clustering.features import (
    page_signature,
    page_tag_sequence,
    url_signature,
)
from repro.clustering.similarity import (
    cosine_similarity,
    structure_similarity,
    tag_sequence_similarity,
)
from repro.sites.page import WebPage


@dataclass
class PageCluster:
    """One computed cluster, named after its dominant URL signature.

    "Each cluster is given a meaningful name that represents the main
    concept featured in its pages" — absent human input, the URL
    signature is the best automatic stand-in and callers may rename.
    """

    name: str
    pages: list[WebPage] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.pages)

    def urls(self) -> list[str]:
        return [page.url for page in self.pages]


@dataclass
class ClusteringResult:
    clusters: list[PageCluster]

    def cluster_of(self, page: WebPage) -> Optional[PageCluster]:
        for cluster in self.clusters:
            if page in cluster.pages:
                return cluster
        return None

    def sizes(self) -> list[int]:
        return sorted((len(c) for c in self.clusters), reverse=True)

    # -- external evaluation against generator hints -------------------- #

    def purity(self) -> float:
        """Mean fraction of each cluster owned by its majority hint."""
        total = 0
        correct = 0
        for cluster in self.clusters:
            hints = Counter(page.cluster_hint for page in cluster.pages)
            correct += hints.most_common(1)[0][1]
            total += len(cluster)
        if total == 0:
            return 1.0
        return correct / total

    def recall(self) -> float:
        """Fraction of same-hint page pairs landing in the same cluster."""
        by_hint: dict[str, list[WebPage]] = defaultdict(list)
        cluster_index: dict[str, int] = {}
        for index, cluster in enumerate(self.clusters):
            for page in cluster.pages:
                cluster_index[page.url] = index
                by_hint[page.cluster_hint].append(page)
        same = total = 0
        for pages in by_hint.values():
            for i in range(len(pages)):
                for j in range(i + 1, len(pages)):
                    total += 1
                    if cluster_index[pages[i].url] == cluster_index[pages[j].url]:
                        same += 1
        if total == 0:
            return 1.0
        return same / total


class PageClusterer:
    """Heuristic page clusterer.

    Args:
        structure_threshold: minimum tag-path similarity for "close
            HTML structure".
        keyword_threshold: minimum keyword cosine for "same concept".
        sequence_threshold: minimum tag-sequence LCS similarity; applied
            as a tie-breaker when structure similarity is borderline.
        use_url_grouping: pre-group by URL signature before pairwise
            comparison (fast path; disable to test pure content-based
            clustering).
    """

    def __init__(
        self,
        structure_threshold: float = 0.6,
        keyword_threshold: float = 0.3,
        sequence_threshold: float = 0.7,
        use_url_grouping: bool = True,
    ) -> None:
        self.structure_threshold = structure_threshold
        self.keyword_threshold = keyword_threshold
        self.sequence_threshold = sequence_threshold
        self.use_url_grouping = use_url_grouping

    # ------------------------------------------------------------------ #

    def cluster(self, pages: Iterable[WebPage]) -> ClusteringResult:
        """Partition ``pages`` into page clusters.

        Raises:
            ClusteringError: when no pages are given.
        """
        pages = list(pages)
        if not pages:
            raise ClusteringError("no pages to cluster")

        groups = self._pre_group(pages)
        clusters: list[PageCluster] = []
        for group in groups:
            clusters.extend(self._cluster_group(group))
        clusters.sort(key=len, reverse=True)
        return ClusteringResult(clusters=clusters)

    # ------------------------------------------------------------------ #

    def _pre_group(self, pages: list[WebPage]) -> list[list[WebPage]]:
        if not self.use_url_grouping:
            # Still split by domain: the paper's first membership test.
            by_domain: dict[str, list[WebPage]] = defaultdict(list)
            for page in pages:
                by_domain[urlparse(page.url).netloc].append(page)
            return list(by_domain.values())
        by_signature: dict[str, list[WebPage]] = defaultdict(list)
        for page in pages:
            by_signature[url_signature(page.url)].append(page)
        return list(by_signature.values())

    def _cluster_group(self, pages: list[WebPage]) -> list[PageCluster]:
        if len(pages) == 1:
            return [self._make_cluster(pages)]
        signatures = [page_signature(page) for page in pages]
        profiles = [signature.paths for signature in signatures]
        keywords = [signature.keywords for signature in signatures]
        sequences = [page_tag_sequence(page) for page in pages]

        edges: list[tuple[int, int]] = []
        for i in range(len(pages)):
            for j in range(i + 1, len(pages)):
                if self._similar(
                    profiles[i], profiles[j],
                    keywords[i], keywords[j],
                    sequences[i], sequences[j],
                ):
                    edges.append((i, j))
        components = _connected_components(len(pages), edges)
        return [
            self._make_cluster([pages[index] for index in sorted(component)])
            for component in components
        ]

    def _similar(self, paths_a, paths_b, kw_a, kw_b, seq_a, seq_b) -> bool:
        structure = structure_similarity(paths_a, paths_b)
        if structure < self.structure_threshold * 0.5:
            return False
        concept = cosine_similarity(kw_a, kw_b)
        if concept < self.keyword_threshold:
            return False
        if structure >= self.structure_threshold:
            return True
        # Borderline structure: let sequence similarity arbitrate.
        return tag_sequence_similarity(seq_a, seq_b) >= self.sequence_threshold

    def _make_cluster(self, pages: list[WebPage]) -> PageCluster:
        signature = url_signature(pages[0].url)
        return PageCluster(name=signature, pages=pages)


def _connected_components(
    n: int, edges: list[tuple[int, int]]
) -> list[set[int]]:
    """Connected components; uses networkx when importable."""
    try:
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(edges)
        return [set(component) for component in nx.connected_components(graph)]
    except ImportError:  # pragma: no cover - networkx present in CI env
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        components: dict[int, set[int]] = defaultdict(set)
        for index in range(n):
            components[find(index)].add(index)
        return list(components.values())
