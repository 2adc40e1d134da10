"""Online adaptation: keep the router honest under template drift.

Wrappers are induced once from a clustered sample, but served traffic
drifts away from that sample over time (template edits, new page
variants).  The paper records this as "Resilience/adaptiveness: No"
(Table 4); this module is the serving layer's answer for the *routing*
half of the problem:

* a :class:`DriftMonitor` consumes the per-page signals the runtime
  already produces — extraction failures, unroutable pages, low-margin
  :class:`~repro.service.router.RouteDecision` scores — over sliding
  windows, and raises a typed :class:`DriftEvent` exactly once when a
  window's bad-signal rate crosses its threshold;
* an :class:`AdaptiveRouter` wraps a fitted
  :class:`~repro.service.router.ClusterRouter`: it observes every
  decision, keeps bounded reservoirs of recent signatures (per routed
  cluster, plus the unroutable cohort), and answers a drift event with
  an incremental :meth:`~repro.service.router.ClusterRouter.refit` —
  recomputed centroids installed by atomic swap, so in-flight routing
  is never torn;
* :meth:`AdaptiveRouter.note_result` takes every extracted page's
  outcome from the runtime's outcome step back into the same monitor,
  closing the loop for drift that breaks extraction before it breaks
  routing;
* an :class:`AdaptationLog` records every drift and refit event as a
  JSON line so operators can audit exactly why the router moved.

Event lifecycle::

    route/extract signals -> DriftMonitor window -> DriftEvent
         -> ClusterRouter.refit (reservoir centroids, atomic swap)
         -> RefitEvent -> AdaptationLog, monitor re-armed

Hysteresis is built in twice: a fired window dis-arms until the refit
re-arms it, and re-arming clears the window, so the rate must
re-accumulate over fresh traffic before a second event can fire — one
refit never retriggers itself.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Deque, Dict, IO, Iterable, Optional, Union

from repro.clustering.features import PageSignature
from repro.errors import ClusteringError
from repro.service.metrics import default_registry
from repro.service.router import UNROUTABLE, ClusterRouter, RouteDecision
from repro.sites.page import WebPage

#: Sliding-window length (observations per key) unless overridden.
DEFAULT_WINDOW = 64

#: Fraction of bad signals in a cluster's window that means drift.
DEFAULT_FAILURE_THRESHOLD = 0.5

#: Fraction of unroutable pages in the stream window that means drift.
DEFAULT_UNROUTABLE_THRESHOLD = 0.3

#: Recent signatures kept per cluster (and for the unroutable cohort).
DEFAULT_RESERVOIR = 64

#: Monitor-key suffix separating low-margin windows from the cluster's
#: extraction-failure window — one window per signal stream, so adding
#: the margin signal can never dilute failure-rate detection.
MARGIN_KEY_SUFFIX = "::margin"


def margin_key(cluster: str) -> str:
    """The monitor key of a cluster's low-margin signal window."""
    return f"{cluster}{MARGIN_KEY_SUFFIX}"


# --------------------------------------------------------------------- #
# Events
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class DriftEvent:
    """One sliding window crossed its drift threshold."""

    kind: str            # "unroutable", "cluster-failure" or "low-margin"
    key: str             # cluster name (± MARGIN_KEY_SUFFIX), or UNROUTABLE
    rate: float          # bad-signal fraction observed in the window
    threshold: float     # the configured trip point
    window: int          # observations the window held when it fired
    observation: int     # monitor's total observation count at firing

    def to_dict(self) -> dict:
        """The JSON payload recorded in the audit log."""
        return {"event": "drift", **self.__dict__}


@dataclass(frozen=True)
class RefitEvent:
    """One refit performed in answer to a :class:`DriftEvent`."""

    trigger_kind: str
    trigger_key: str
    updated: tuple           # clusters whose centroids moved
    spawned: tuple           # clusters created for an unroutable cohort
    reservoir_pages: int     # routed signatures the refit consumed
    unroutable_pages: int    # unroutable signatures the refit consumed
    observation: int
    #: Cohort members under the alien floor: never absorbed, spawned
    #: only when spawning is enabled and the cohort is large enough.
    alien_pages: int = 0

    def to_dict(self) -> dict:
        """The JSON payload recorded in the audit log."""
        data = dict(self.__dict__)
        data["updated"] = list(self.updated)
        data["spawned"] = list(self.spawned)
        return {"event": "refit", **data}


class AdaptationLog:
    """Audit sink for drift/refit events: JSON lines plus memory.

    Args:
        target: a path (opened/closed by the log), an open text stream
            (borrowed; not closed), or ``None`` for in-memory only.

    ``events`` keeps every recorded event as a dict, so callers can
    assert on the exact lifecycle without re-parsing the file.
    """

    def __init__(
        self, target: Union[str, Path, IO[str], None] = None
    ) -> None:
        self.events: list[dict] = []
        self._stream: Optional[IO[str]] = None
        self._owns_stream = False
        if isinstance(target, (str, Path)):
            self._stream = open(target, "w", encoding="utf-8")
            self._owns_stream = True
        elif target is not None:
            self._stream = target

    def record(self, event: Union[DriftEvent, RefitEvent]) -> None:
        """Append ``event`` in memory and to the JSONL stream (flushed)."""
        payload = event.to_dict()
        self.events.append(payload)
        if self._stream is not None:
            self._stream.write(json.dumps(payload, sort_keys=True))
            self._stream.write("\n")
            self._stream.flush()

    def close(self) -> None:
        """Close the stream if the log owns it (borrowed streams stay open)."""
        if self._owns_stream and self._stream is not None:
            if not self._stream.closed:
                self._stream.close()

    def __enter__(self) -> "AdaptationLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --------------------------------------------------------------------- #
# Drift detection
# --------------------------------------------------------------------- #


class DriftMonitor:
    """Sliding-window drift detection over keyed good/bad signals.

    One window per key: the stream-wide :data:`~repro.service.router.
    UNROUTABLE` key collects routability, every cluster name collects
    that cluster's failure signals.  :meth:`observe` returns a
    :class:`DriftEvent` exactly once per crossing: a window needs at
    least ``min_samples`` observations, its bad fraction must reach the
    key's threshold, and a fired key stays dis-armed (no further
    events) until :meth:`rearm` — which also clears the window, so the
    rate must rebuild from fresh traffic before the next event.

    Repeat offenders back off: each *consecutive* firing of the same
    key doubles the observations it must accumulate after re-arming
    before it may fire again, so drift a refit cannot repair (say, a
    renamed label that breaks extraction no matter how pages route)
    degrades into occasional audit events instead of a refit storm.
    The streak resets only on clear recovery — a full window whose
    rate falls under half the threshold — so a rate oscillating just
    below the trip point cannot defeat the backoff.

    Args:
        window: observations each sliding window holds.
        failure_threshold: trip point for cluster keys.
        unroutable_threshold: trip point for the unroutable key.
        min_samples: observations a window needs before it may fire
            (default ``max(1, window // 2)``).
    """

    def __init__(
        self,
        window: int = DEFAULT_WINDOW,
        failure_threshold: float = DEFAULT_FAILURE_THRESHOLD,
        unroutable_threshold: float = DEFAULT_UNROUTABLE_THRESHOLD,
        min_samples: Optional[int] = None,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        for name, value in (
            ("failure_threshold", failure_threshold),
            ("unroutable_threshold", unroutable_threshold),
        ):
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {value}")
        if min_samples is None:
            min_samples = max(1, window // 2)
        if not 1 <= min_samples <= window:
            raise ValueError(
                f"min_samples must be in 1..{window}, got {min_samples}"
            )
        self.window = window
        self.failure_threshold = failure_threshold
        self.unroutable_threshold = unroutable_threshold
        self.min_samples = min_samples
        self.observations = 0
        self._windows: Dict[str, Deque[bool]] = {}
        self._armed: Dict[str, bool] = {}
        self._since_rearm: Dict[str, int] = {}
        self._streak: Dict[str, int] = {}

    def threshold_for(self, key: str) -> float:
        """The trip threshold for ``key`` (unroutable vs per-cluster)."""
        if key == UNROUTABLE:
            return self.unroutable_threshold
        return self.failure_threshold

    def rate(self, key: str) -> float:
        """Current bad fraction of a key's window (0.0 when empty)."""
        window = self._windows.get(key)
        if not window:
            return 0.0
        return sum(window) / len(window)

    def backoff(self, key: str) -> int:
        """Consecutive firings of this key (its current backoff level)."""
        return self._streak.get(key, 0)

    def observe(self, key: str, bad: bool) -> Optional[DriftEvent]:
        """Feed one signal; returns the drift event on a crossing."""
        self.observations += 1
        window = self._windows.get(key)
        if window is None:
            window = self._windows[key] = deque(maxlen=self.window)
        window.append(bool(bad))
        self._since_rearm[key] = self._since_rearm.get(key, 0) + 1
        if not self._armed.get(key, True):
            return None
        required = self.min_samples * (1 << self._streak.get(key, 0))
        if self._since_rearm[key] < required:
            return None
        rate = sum(window) / len(window)
        threshold = self.threshold_for(key)
        if rate < threshold:
            # The backoff streak resets only on clear recovery — a
            # full window at under half the threshold.  A single dip
            # (a rate oscillating just below the trip point) must not
            # re-enable min_samples-spaced refit storms.
            if len(window) == self.window and rate < threshold / 2:
                self._streak.pop(key, None)
            return None
        self._armed[key] = False
        self._streak[key] = self._streak.get(key, 0) + 1
        if key == UNROUTABLE:
            kind = "unroutable"
        elif key.endswith(MARGIN_KEY_SUFFIX):
            kind = "low-margin"
        else:
            kind = "cluster-failure"
        return DriftEvent(
            kind=kind,
            key=key,
            rate=rate,
            threshold=threshold,
            window=len(window),
            observation=self.observations,
        )

    def rearm(self, key: Optional[str] = None) -> None:
        """Clear window(s) and allow the next crossing to fire.

        After a refit every window describes the *previous* router
        generation, so the default re-arms everything.  Backoff streaks
        deliberately survive re-arming — they are what spaces out
        refits that keep not helping.
        """
        if key is None:
            self._windows.clear()
            self._armed.clear()
            self._since_rearm.clear()
            return
        self._windows.pop(key, None)
        self._armed.pop(key, None)
        self._since_rearm.pop(key, None)


# --------------------------------------------------------------------- #
# The adaptation layer
# --------------------------------------------------------------------- #


class AdaptiveRouter:
    """A drop-in router that watches its own decisions and refits.

    Implements the :class:`~repro.service.router.ClusterRouter` routing
    interface (``route`` / ``target`` / ``route_all`` / ``clusters``),
    so it slots in wherever a router goes — the streaming runtime, the
    serve handler, a shard worker.  Every decision is observed: routed
    signatures land in a bounded per-cluster reservoir, unroutable
    signatures in the cohort reservoir, and the shared
    :class:`DriftMonitor` decides when the evidence amounts to drift.
    A drift event triggers one :meth:`~repro.service.router.
    ClusterRouter.refit` (centroids recomputed from the reservoirs,
    unroutable cohort absorbed — or spawned as a new cluster when it
    resembles nothing known), the monitor is re-armed, and both events
    are recorded in the :class:`AdaptationLog`.

    Thread-safe: observation, reservoirs and refit run under one lock;
    the wrapped router's atomic profile swap keeps lock-free concurrent
    ``route()`` calls consistent.

    Args:
        router: the fitted router to adapt.
        monitor: drift detector (default: a :class:`DriftMonitor` with
            default windows/thresholds).
        reservoir: signatures kept per cluster and for the cohort.
        log: event audit sink (default: in-memory only).
        anchor: previous-centroid weight during refit (0..1).
        low_margin: routed decisions with ``margin`` below this also
            count as drift signals, in a per-cluster window of their
            own (0.0 disables the signal).
        spawn_clusters: allow refits to create a new profile from the
            alien part of the unroutable cohort.  A spawned cluster
            has no extraction rules: its pages stay unserved (counted
            as *skipped*, and still emitted as gap records by serve)
            but become a named, reservoir-tracked cohort an operator
            can build rules for, instead of anonymous unroutable
            noise.
        spawn_below: the alien floor.  Cohort members whose best
            profile score is below it resemble nothing known: they
            are never absorbed into an existing centroid (absorbing
            them would poison a healthy cluster's routing) and are
            spawned only when ``spawn_clusters`` is on.
        spawn_min_cohort: smallest alien cohort worth a new cluster.
        deployer: optional :class:`~repro.service.registry.canary.
            CanaryController`.  With one attached, a refit no longer
            swaps the live router directly: the refit product is built
            on a clone and staged as a shadow candidate, and only the
            deployer's verdict promotes it (or rolls it back).
        metrics: a :class:`~repro.service.metrics.MetricsRegistry`
            receiving the ``repro_drift_events_total{kind}`` and
            ``repro_refits_total`` counters (default: the process-wide
            registry).
    """

    def __init__(
        self,
        router: ClusterRouter,
        monitor: Optional[DriftMonitor] = None,
        reservoir: int = DEFAULT_RESERVOIR,
        log: Optional[AdaptationLog] = None,
        anchor: float = 0.25,
        low_margin: float = 0.0,
        spawn_clusters: bool = False,
        spawn_below: float = 0.25,
        spawn_min_cohort: int = 8,
        deployer=None,
        metrics=None,
    ) -> None:
        if reservoir < 1:
            raise ValueError("reservoir must be >= 1")
        if not 0.0 <= anchor <= 1.0:
            raise ValueError(f"anchor must be in [0, 1], got {anchor}")
        self.router = router
        self.monitor = monitor if monitor is not None else DriftMonitor()
        self.log = log if log is not None else AdaptationLog()
        self.reservoir = reservoir
        self.anchor = anchor
        self.low_margin = low_margin
        self.spawn_clusters = spawn_clusters
        self.spawn_below = spawn_below
        self.spawn_min_cohort = spawn_min_cohort
        self.deployer = deployer
        self.drift_events = 0
        self.refits = 0
        self.routed_pages = 0
        self.unroutable_pages = 0
        registry = metrics if metrics is not None else default_registry()
        self._m_drift = registry.from_spec("repro_drift_events_total")
        self._m_refits = registry.from_spec("repro_refits_total")
        self._reservoirs: Dict[str, Deque[PageSignature]] = {}
        self._unroutable: Deque[PageSignature] = deque(maxlen=reservoir)
        self._spawned = 0
        self._lock = threading.Lock()

    # -- the router interface ------------------------------------------ #

    def route(self, page: WebPage) -> RouteDecision:
        """Route one page, feeding the decision into drift detection."""
        signature = self.router.signature(page)
        decision = self.router.route_signature(signature)
        self.observe(signature, decision, page)
        return decision

    def observe(
        self,
        signature: PageSignature,
        decision: RouteDecision,
        page: Optional[WebPage] = None,
    ) -> None:
        """Feed one routing decision into drift detection.

        :meth:`route` calls this for the page it scored; the streaming
        runtime's ``run()`` scores pages with the plain :attr:`router`
        in its workers and calls this in the parent, in stream order.
        ``page`` is needed only by an attached ``deployer``, for its
        shadow extraction.
        """
        with self._lock:
            if decision.cluster == UNROUTABLE:
                self.unroutable_pages += 1
                self._unroutable.append(signature)
                event = self.monitor.observe(UNROUTABLE, True)
            else:
                self.routed_pages += 1
                reservoir = self._reservoirs.get(decision.cluster)
                if reservoir is None:
                    reservoir = self._reservoirs[decision.cluster] = deque(
                        maxlen=self.reservoir
                    )
                reservoir.append(signature)
                event = self.monitor.observe(UNROUTABLE, False)
                if event is None and self.low_margin > 0.0:
                    # Margin observations live in their own window:
                    # mixing them into the cluster's extraction-failure
                    # window would cap either signal's rate at 0.5 and
                    # mask drift.
                    event = self.monitor.observe(
                        margin_key(decision.cluster),
                        decision.margin < self.low_margin,
                    )
            if event is not None:
                self._refit(event)
        deployer = self.deployer
        if deployer is not None:
            # Outside the adapter lock: the canary takes only its own.
            deployer.observe(page, signature, decision)

    def target(self, page: WebPage) -> Optional[str]:
        """The routed cluster name, or ``None`` when unroutable."""
        decision = self.route(page)
        return None if decision.cluster == UNROUTABLE else decision.cluster

    def route_all(
        self, pages: Iterable[WebPage]
    ) -> Dict[str, list[WebPage]]:
        """Bucket ``pages`` by routed cluster (observing each decision)."""
        routed: Dict[str, list[WebPage]] = {}
        for page in pages:
            decision = self.route(page)
            routed.setdefault(decision.cluster, []).append(page)
        return routed

    def clusters(self) -> list[str]:
        """Cluster names the live router currently serves."""
        return self.router.clusters()

    @property
    def threshold(self) -> float:
        """The live router's confidence threshold."""
        return self.router.threshold

    # -- feedback from extraction -------------------------------------- #

    def note_result(self, cluster: str, failed: bool) -> None:
        """Feed one extracted page's outcome into the drift monitor.

        ``failed`` is true when any component failed or the extraction
        raised.  The runtime's outcome step calls this for every page,
        so adaptive and non-adaptive runs emit identical bytes until a
        refit actually changes a routing decision.
        """
        with self._lock:
            event = self.monitor.observe(cluster, failed)
            if event is not None:
                self._refit(event)
        deployer = self.deployer
        if deployer is not None:
            deployer.note_result(cluster, failed)

    # -- internals ------------------------------------------------------ #

    def _spawn_name(self) -> str:
        existing = set(self.router.clusters())
        while True:
            name = f"adapted-{self._spawned}"
            self._spawned += 1
            if name not in existing:
                return name

    def _refit(self, trigger: DriftEvent) -> None:
        """Answer one drift event: refit, re-arm, audit (lock held)."""
        self.drift_events += 1
        self._m_drift.labels(trigger.kind).inc()
        self.log.record(trigger)
        reservoirs = {
            cluster: list(window)
            for cluster, window in self._reservoirs.items()
            if window
        }
        # Partition the unroutable cohort by the alien floor: only
        # signatures that still resemble *some* profile are absorbed
        # (a drifted template scores well below threshold but far
        # above zero); genuinely alien traffic — bot pages, error
        # pages — must never be blended into a healthy centroid, where
        # it would poison routing for the cluster's real pages.
        absorbable: list[PageSignature] = []
        alien: list[PageSignature] = []
        for signature in self._unroutable:
            best = self.router.route_signature(signature).confidence
            if best >= self.spawn_below:
                absorbable.append(signature)
            else:
                alien.append(signature)
        spawn: Optional[tuple] = None
        if self.spawn_clusters and len(alien) >= self.spawn_min_cohort:
            spawn = (self._spawn_name(), alien)
        # With a canary deployer attached, the refit builds on a clone:
        # the incumbent keeps serving unchanged while the candidate
        # shadows, and only the deployer's verdict swaps profiles in.
        deployer = self.deployer
        target = self.router if deployer is None else self.router.clone()
        updated, spawned = target.refit(
            reservoirs, absorbable, anchor=self.anchor, spawn=spawn
        )
        # Everything observed before the swap describes the *previous*
        # router generation: stale reservoir signatures would drag the
        # next refit back toward the pre-drift centroid (an oscillation
        # observed in replay), so reservoirs, cohort and monitor
        # windows all restart from the new generation's traffic.
        cohort_size = len(self._unroutable)
        self._reservoirs.clear()
        self._unroutable.clear()
        self.monitor.rearm()
        self.refits += 1
        self._m_refits.inc()
        refit_event = RefitEvent(
            trigger_kind=trigger.kind,
            trigger_key=trigger.key,
            updated=tuple(updated),
            spawned=tuple(spawned),
            reservoir_pages=sum(len(s) for s in reservoirs.values()),
            unroutable_pages=cohort_size,
            observation=self.monitor.observations,
            alien_pages=len(alien),
        )
        self.log.record(refit_event)
        if deployer is not None:
            deployer.stage(target, trigger, refit_event)


def make_adapter(
    router: ClusterRouter,
    window: int = DEFAULT_WINDOW,
    threshold: Optional[float] = None,
    log_path: Union[str, Path, None] = None,
    **kwargs,
) -> AdaptiveRouter:
    """Convenience wiring used by the CLI entry points.

    ``threshold`` (when given) sets both the cluster-failure and the
    unroutable trip point — the single-knob shape of the CLI's
    ``--drift-threshold``; ``log_path`` opens a JSONL audit log.

    Raises:
        ClusteringError: when ``router`` is ``None`` — adaptation
            watches routing decisions, so hint-routed runs have
            nothing to adapt.
    """
    if router is None:
        raise ClusteringError(
            "adaptation needs a fitted signature router "
            "(hint-based routing has no profiles to refit)"
        )
    monitor = DriftMonitor(
        window=window,
        failure_threshold=(
            threshold if threshold is not None else DEFAULT_FAILURE_THRESHOLD
        ),
        unroutable_threshold=(
            threshold
            if threshold is not None
            else DEFAULT_UNROUTABLE_THRESHOLD
        ),
    )
    log = AdaptationLog(log_path) if log_path is not None else AdaptationLog()
    return AdaptiveRouter(router, monitor=monitor, log=log, **kwargs)
