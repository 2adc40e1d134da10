"""Page clustering (Section 2.1 / step 1 of Figure 1).

"The pages composing a Web site are partitioned into page clusters,
according to their semantic content and their layout."  The paper
deliberately treats clustering as a substrate ("being a field of
research by itself") and relies on heuristics; this package implements
the heuristics it cites:

* URL-pattern analysis [7][20] — :func:`repro.clustering.features.url_signature`;
* tag periodicity / structure similarity [7][20] —
  :mod:`repro.clustering.similarity`;
* keyword frequency [22] — :func:`repro.clustering.features.keyword_profile`;

combined by :class:`repro.clustering.cluster.PageClusterer`, which
applies the paper's membership test: same domain, same concept
(keyword similarity), close HTML structure.
"""

from repro._exports import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "cluster": ("ClusteringResult", "PageCluster", "PageClusterer"),
    "features": ("keyword_profile", "url_signature"),
    "similarity": (
        "cosine_similarity",
        "jaccard_similarity",
        "structure_similarity",
        "tag_sequence_similarity",
    ),
})

__all__ = [
    "PageClusterer",
    "PageCluster",
    "ClusteringResult",
    "url_signature",
    "keyword_profile",
    "structure_similarity",
    "tag_sequence_similarity",
    "cosine_similarity",
    "jaccard_similarity",
]
