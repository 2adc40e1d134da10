"""Cluster routing: which wrapper should serve an incoming page?

The interactive pipeline relies on ``cluster_hint`` — a label only
synthetic generators provide.  A serving layer cannot: pages arrive
unlabelled, so the router re-uses the paper's Section-2.1 membership
signals (URL shape, concept keywords, HTML structure — computed via
:func:`repro.clustering.features.page_signature`) to classify each
page against per-cluster profiles fitted from exemplar pages.

Scoring per cluster::

    score = 0.55 * structure_similarity(page paths, centroid paths)
          + 0.30 * cosine(page keywords, centroid keywords)
          + 0.15 * [page URL signature seen in exemplars]

The best-scoring cluster wins when its score clears the confidence
threshold; everything else lands in the :data:`UNROUTABLE` bucket
rather than being mis-served — a wrong wrapper produces silently wrong
data, no wrapper produces an auditable gap.

Profiles are not frozen forever: :meth:`ClusterRouter.refit`
recomputes centroids from recent signatures (and can spawn a profile
for a cohort of unroutable pages) and installs the new profile set
with a single atomic swap, so routing that is concurrently in flight
always scores against one consistent generation.  The adaptation
policy deciding *when* to refit lives in :mod:`repro.service.adapt`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence

from repro.clustering.features import PageSignature, page_signature
from repro.errors import ClusteringError
from repro.sites.page import WebPage

#: Route target for pages no profile claims confidently.
UNROUTABLE = "unroutable"

_STRUCTURE_WEIGHT = 0.55
_KEYWORD_WEIGHT = 0.30
_URL_WEIGHT = 0.15


@dataclass(frozen=True)
class ClusterProfile:
    """Fitted signature centroid of one cluster's exemplar pages.

    ``__post_init__`` computes the two scoring constants once, however
    the profile is built (fit, refit, artifact load); unpickling
    restores them.  They stay out of ``==``, ``repr`` and the artifact
    form (:func:`~repro.service.registry.artifacts.profile_to_dict`).
    """

    name: str
    url_signatures: frozenset
    keywords: Counter
    paths: Counter
    #: Sum of the path weights, the profile's side of the Jaccard union.
    _path_total: float = field(init=False, repr=False, compare=False)
    #: Euclidean norm of the keyword weights.
    _keyword_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_path_total", sum(self.paths.values()))
        object.__setattr__(self, "_keyword_norm", math.sqrt(
            sum(weight * weight for weight in self.keywords.values())
        ))

    def score(self, signature: PageSignature) -> float:
        """Similarity of ``signature`` to this profile, in ``[0, 1]``.

        ``0.55 * structure_similarity(paths) + 0.30 *
        cosine_similarity(keywords) + 0.15 * [URL signature seen]``,
        computed in one loop over the page's own paths and one over
        its own keywords, so a page costs O(its keys) whatever the
        profile's size.  The multiset union comes from Broder's
        identity ``Σ max(a, b) = Σ a + Σ b − Σ min(a, b)``, which
        holds because every weight is non-negative: page counts, and
        centroids and convex blends of them.  The edge cases are those
        of :func:`~repro.clustering.similarity.jaccard_similarity` and
        :func:`~repro.clustering.similarity.cosine_similarity`.
        """
        page_paths = signature.paths
        if page_paths or self.paths:
            weight_of = self.paths.get
            page_total = common = 0
            for path, count in page_paths.items():
                page_total += count
                weight = weight_of(path)
                if weight is not None:
                    common += count if count < weight else weight
            union = page_total + self._path_total - common
            structure = common / union if union else 1.0
        else:
            structure = 1.0
        keywords = 0.0
        page_keywords = signature.keywords
        if page_keywords and self._keyword_norm:
            weight_of = self.keywords.get
            dot = squares = 0
            for word, count in page_keywords.items():
                squares += count * count
                weight = weight_of(word)
                if weight is not None:
                    dot += count * weight
            if squares:
                keywords = dot / (math.sqrt(squares) * self._keyword_norm)
        url = 1.0 if signature.url_signature in self.url_signatures else 0.0
        return (
            _STRUCTURE_WEIGHT * structure
            + _KEYWORD_WEIGHT * keywords
            + _URL_WEIGHT * url
        )


@dataclass(frozen=True)
class RouteDecision:
    """Routing outcome for one page."""

    cluster: str            # cluster name, or UNROUTABLE
    confidence: float       # best profile score in [0, 1]
    runner_up: Optional[str] = None
    margin: float = 0.0     # best minus second-best score

    @property
    def routed(self) -> bool:
        """Whether the page landed on a real cluster."""
        return self.cluster != UNROUTABLE


def _centroid(counters: Sequence[Counter]) -> Counter:
    """Element-wise mean of frequency vectors (float-valued Counter)."""
    total: Counter = Counter()
    for counter in counters:
        total.update(counter)
    n = len(counters)
    return Counter({key: value / n for key, value in total.items()})


#: Blended-centroid entries lighter than this are dropped: each refit
#: multiplies an unrefreshed key's weight by ``anchor``, so without a
#: floor a long-lived adaptive session accumulates every key it has
#: ever seen at weights far too small to move any score — unbounded
#: memory and per-route scoring cost.
_BLEND_EPSILON = 1e-6

#: URL signatures kept per profile across refits (recent ones win).
_URL_SIGNATURE_CAP = 64


def _blend(old: Counter, new: Counter, anchor: float) -> Counter:
    """``anchor * old + (1 - anchor) * new`` over the union of keys.

    ``anchor`` is the weight of the *previous* centroid: 0.0 tracks the
    recent signatures completely, 1.0 ignores them.  Entries decayed
    below :data:`_BLEND_EPSILON` are pruned, bounding profile size
    over arbitrarily many refits.
    """
    if anchor <= 0.0:
        return Counter(new)
    if anchor >= 1.0:
        return Counter(old)
    keys = set(old) | set(new)
    blended = Counter()
    for key in keys:
        value = (
            anchor * old.get(key, 0.0) + (1.0 - anchor) * new.get(key, 0.0)
        )
        if value >= _BLEND_EPSILON:
            blended[key] = value
    return blended


def _bounded_signature_union(
    old: frozenset, recent: frozenset, cap: int = _URL_SIGNATURE_CAP
) -> frozenset:
    """Union URL signatures, bounded: recent generations displace old.

    Selection is deterministic (sorted within each generation) so
    identically-configured workers keep identical profiles.
    """
    union = old | recent
    if len(union) <= cap:
        return union
    keep = set(sorted(recent)[:cap])
    for signature in sorted(old):
        if len(keep) >= cap:
            break
        keep.add(signature)
    return frozenset(keep)


def _profile_from_signatures(
    name: str, signatures: Sequence[PageSignature]
) -> ClusterProfile:
    return ClusterProfile(
        name=name,
        url_signatures=frozenset(s.url_signature for s in signatures),
        keywords=_centroid([s.keywords for s in signatures]),
        paths=_centroid([s.paths for s in signatures]),
    )


class ClusterRouter:
    """Routes pages to clusters by signature similarity.

    Args:
        profiles: fitted per-cluster profiles.
        threshold: minimum best score to route; below it the page is
            :data:`UNROUTABLE`.

    Build instances with :meth:`fit`.
    """

    def __init__(
        self, profiles: Sequence[ClusterProfile], threshold: float = 0.5
    ) -> None:
        if not profiles:
            raise ClusteringError("router needs at least one cluster profile")
        self.profiles = list(profiles)
        self.threshold = threshold

    @classmethod
    def fit(
        cls,
        exemplars: Mapping[str, Sequence[WebPage]],
        threshold: float = 0.5,
    ) -> "ClusterRouter":
        """Fit per-cluster profiles from labelled exemplar pages.

        Args:
            exemplars: cluster name -> a few representative pages
                (the working sample the rules were validated on is a
                natural choice).
            threshold: routing confidence threshold.

        Raises:
            ClusteringError: when ``exemplars`` is empty or any cluster
                has no pages.
        """
        profiles: list[ClusterProfile] = []
        for name, pages in exemplars.items():
            if not pages:
                raise ClusteringError(f"cluster {name!r} has no exemplar pages")
            profiles.append(_profile_from_signatures(
                name, [page_signature(page) for page in pages]
            ))
        return cls(profiles, threshold=threshold)

    # ------------------------------------------------------------------ #

    @staticmethod
    def signature(page: WebPage) -> PageSignature:
        """The page's routing signature, memoized on the page.

        :meth:`route`, :meth:`route_all`, :meth:`target` and the
        adaptation layer (which buffers signatures for refitting) all
        share this cache, so re-routing a buffered page costs a dict
        lookup instead of the signature's walk over the whole DOM
        (:func:`~repro.clustering.features.page_signature`).  The
        cache lives next to the parsed DOM and is dropped with it by
        :meth:`~repro.sites.page.WebPage.invalidate_parse_cache`.
        """
        cached = page.__dict__.get("_signature")
        if cached is None:
            cached = page_signature(page)
            page.__dict__["_signature"] = cached
        return cached

    def route(self, page: WebPage) -> RouteDecision:
        """Classify one page; below-threshold pages are unroutable."""
        return self.route_signature(self.signature(page))

    def route_signature(self, signature: PageSignature) -> RouteDecision:
        """Score a precomputed signature against one consistent
        profile generation (a single snapshot of the profile set, so a
        concurrent :meth:`refit` can never be observed half-applied)."""
        profiles = self.profiles
        best_name: Optional[str] = None
        second_name: Optional[str] = None
        best = second = 0.0
        for profile in profiles:
            score = profile.score(signature)
            if best_name is None or score > best:
                second, second_name = best, best_name
                best, best_name = score, profile.name
            elif second_name is None or score > second:
                second, second_name = score, profile.name
        if best_name is None or best < self.threshold:
            return RouteDecision(UNROUTABLE, best, None, 0.0)
        return RouteDecision(best_name, best, second_name, best - second)

    def target(self, page: WebPage) -> Optional[str]:
        """The routed cluster name, or ``None`` for unroutable pages.

        The form the streaming runtime consumes: callers that do not
        care about confidence/margin diagnostics get the decision as a
        plain optional name.
        """
        decision = self.route(page)
        return None if decision.cluster == UNROUTABLE else decision.cluster

    def route_all(
        self, pages: Iterable[WebPage]
    ) -> Dict[str, list[WebPage]]:
        """Partition pages by routed cluster (incl. the unroutable bucket)."""
        routed: Dict[str, list[WebPage]] = {}
        for page in pages:
            decision = self.route(page)
            routed.setdefault(decision.cluster, []).append(page)
        return routed

    def clusters(self) -> list[str]:
        """The fitted cluster names, in profile order."""
        return [profile.name for profile in self.profiles]

    def clone(self) -> "ClusterRouter":
        """An independent router over the same (immutable) profiles.

        Profiles are frozen dataclasses, so sharing them is safe; the
        copy gets its own profile *list*, letting a canary candidate be
        refit without touching the incumbent it shadows.
        """
        return ClusterRouter(list(self.profiles), threshold=self.threshold)

    # ------------------------------------------------------------------ #
    # Incremental refit
    # ------------------------------------------------------------------ #

    def refit(
        self,
        reservoirs: Mapping[str, Sequence[PageSignature]],
        unroutable: Sequence[PageSignature] = (),
        anchor: float = 0.25,
        spawn: Optional[tuple[str, Sequence[PageSignature]]] = None,
    ) -> tuple[list[str], list[str]]:
        """Recompute profiles from recent signatures; atomic swap.

        Args:
            reservoirs: cluster name -> recently *routed* signatures of
                that cluster (a bounded reservoir of served traffic).
            unroutable: recent signatures no profile claimed; each is
                absorbed into its best-scoring existing profile — the
                recovery move for a template that drifted away from
                its fitted centroid.  Callers should pass only
                signatures that still *resemble* some profile (the
                adaptation layer applies its alien floor first):
                absorption has no similarity check of its own, and
                blending genuinely alien traffic in can break a
                healthy cluster's routing.
            anchor: weight of the previous centroid in each blend step
                (0.0 = track recent traffic completely, 1.0 = freeze).
            spawn: optional ``(name, cohort)``: additionally create a
                *new* cluster profile of that name from the cohort's
                signatures — for traffic that matches no known
                cluster.

        The update blends in two steps: first the routed reservoir
        (keeping the centroid tracking traffic that still routes),
        then the absorbed cohort on its own.  Absorbed signatures are
        by definition *unlike* the current centroid — folding them
        into one mean with the much larger reservoir would dilute
        exactly the signal the refit exists to follow.

        Returns:
            ``(updated, spawned)`` cluster-name lists.

        The new profile set is built completely and then installed with
        one reference assignment, so a concurrent :meth:`route` (which
        snapshots the set once) scores against either the old or the
        new generation, never a mixture.
        """
        if not 0.0 <= anchor <= 1.0:
            raise ClusteringError(f"anchor must be in [0, 1], got {anchor}")
        current = self.profiles
        names = {profile.name for profile in current}
        spawn_cohort: Sequence[PageSignature] = ()
        spawn_name: Optional[str] = None
        if spawn is not None:
            spawn_name, spawn_cohort = spawn
            if spawn_name in names:
                raise ClusteringError(
                    f"cannot spawn cluster {spawn_name!r}: "
                    "name already routed"
                )
            if not spawn_cohort:
                raise ClusteringError(
                    "cannot spawn a cluster from an empty cohort"
                )
        unknown = sorted(set(reservoirs) - names)
        if unknown:
            raise ClusteringError(
                f"reservoir for unknown cluster(s): {', '.join(unknown)}"
            )
        absorbed: Dict[str, list[PageSignature]] = {}
        for signature in unroutable:
            best_profile = max(
                current, key=lambda p, s=signature: p.score(s)
            )
            absorbed.setdefault(best_profile.name, []).append(signature)
        updated: list[str] = []
        replacement: list[ClusterProfile] = []
        for profile in current:
            blended = profile
            for signatures in (
                reservoirs.get(profile.name, ()),
                absorbed.get(profile.name, ()),
            ):
                if not signatures:
                    continue
                recent = _profile_from_signatures(
                    profile.name, list(signatures)
                )
                blended = ClusterProfile(
                    name=profile.name,
                    url_signatures=_bounded_signature_union(
                        blended.url_signatures, recent.url_signatures
                    ),
                    keywords=_blend(
                        blended.keywords, recent.keywords, anchor
                    ),
                    paths=_blend(blended.paths, recent.paths, anchor),
                )
            if blended is not profile:
                updated.append(profile.name)
            replacement.append(blended)
        spawned: list[str] = []
        if spawn_name is not None:
            replacement.append(
                _profile_from_signatures(spawn_name, list(spawn_cohort))
            )
            spawned.append(spawn_name)
        # The atomic swap: one reference assignment, never an in-place
        # mutation of the list a concurrent reader may be iterating.
        self.profiles = replacement
        return updated, spawned
