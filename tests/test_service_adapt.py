"""Online adaptation: drift detection, refit lifecycle, serve recovery."""

import asyncio
import io
import json
import random
import threading
from collections import Counter, deque

import pytest

from repro.clustering.features import PageSignature
from repro.service.adapt import (
    AdaptationLog,
    AdaptiveRouter,
    AdaptiveRouterStage,
    DriftMonitor,
    make_adapter,
)
from repro.service.router import UNROUTABLE, ClusterProfile, ClusterRouter
from repro.service.serve import ServeHandler, serve_async
from repro.service.sink import PageRecord
from repro.sites.page import WebPage
from repro.sites.variation import DEPTH_COMPONENTS, generate_depth_cluster


def _signature(tag: str, generation: int = 0) -> PageSignature:
    return PageSignature(
        url_signature=f"{tag}.example.org/*/",
        keywords=Counter({tag: 3, f"gen{generation}": 1}),
        paths=Counter({f"html/body/{tag}-{generation}": 2}),
    )


# --------------------------------------------------------------------- #
# DriftMonitor
# --------------------------------------------------------------------- #


class TestDriftMonitor:
    @pytest.mark.parametrize("window,threshold,min_samples", [
        (4, 0.5, 1),
        (8, 0.25, 4),
        (10, 1.0, 10),
        (16, 0.75, 8),
        (3, 0.34, 2),
        (64, 0.3, 32),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_property_sweep_against_reference_model(
        self, window, threshold, min_samples, seed
    ):
        """Random streams vs an independent window-rate model.

        Invariants per key: no event while the window rate is below
        the threshold or under-sampled, the event fires at exactly the
        first qualifying observation, and never again (the key stays
        dis-armed without a rearm).
        """
        monitor = DriftMonitor(
            window=window,
            failure_threshold=threshold,
            unroutable_threshold=threshold,
            min_samples=min_samples,
        )
        rng = random.Random(seed)
        reference: deque = deque(maxlen=window)
        expected_fired_at = None
        fired_at = None
        for step in range(1, 400):
            bad = rng.random() < 0.4
            reference.append(bad)
            qualifies = (
                len(reference) >= min_samples
                and sum(reference) / len(reference) >= threshold
            )
            if expected_fired_at is None and qualifies:
                expected_fired_at = step
            event = monitor.observe("cluster-x", bad)
            if event is not None:
                assert fired_at is None, "monitor fired twice without rearm"
                fired_at = step
                assert event.rate >= threshold
                assert event.key == "cluster-x"
        assert fired_at == expected_fired_at

    def test_no_event_below_threshold(self):
        monitor = DriftMonitor(
            window=8, failure_threshold=0.5, min_samples=1
        )
        # 3 bad in every 8 (after 5 good): every window of any length
        # stays at most 0.375 < 0.5, forever.
        for step in range(200):
            assert monitor.observe("c", step % 8 >= 5) is None

    def test_exactly_once_event_at_crossing(self):
        monitor = DriftMonitor(
            window=10, failure_threshold=0.5, min_samples=10
        )
        events = []
        for _ in range(5):
            events.append(monitor.observe("c", False))
        for _ in range(20):
            events.append(monitor.observe("c", True))
        fired = [e for e in events if e is not None]
        # Rate reaches 5/10 exactly when the 5th bad signal lands
        # (observation 10, the first full window) — once, not again.
        assert len(fired) == 1
        assert fired[0].observation == 10
        assert fired[0].rate == 0.5

    def test_rearm_requires_fresh_accumulation(self):
        # Hysteresis: one refit (observe -> rearm) cannot retrigger
        # from leftovers; the rate must rebuild over new traffic.
        monitor = DriftMonitor(
            window=6, failure_threshold=0.5, min_samples=3
        )
        first = None
        for _ in range(6):
            first = monitor.observe("c", True) or first
        assert first is not None
        monitor.rearm()
        events = [monitor.observe("c", True) for _ in range(20)]
        fired = [e for e in events if e is not None]
        assert len(fired) == 1
        # Backoff doubles the requirement: 3 * 2**1 = 6 observations.
        assert fired[0].observation == monitor.observations - (20 - 6)

    def test_consecutive_firings_back_off_geometrically(self):
        monitor = DriftMonitor(
            window=4, failure_threshold=1.0, min_samples=2
        )
        firing_gaps = []
        since_rearm = 0
        for _ in range(200):
            since_rearm += 1
            if monitor.observe("c", True) is not None:
                firing_gaps.append(since_rearm)
                since_rearm = 0
                monitor.rearm()
        assert firing_gaps[:6] == [2, 4, 8, 16, 32, 64]
        assert monitor.backoff("c") == 6

    def test_healthy_window_resets_backoff(self):
        monitor = DriftMonitor(
            window=4, failure_threshold=0.75, min_samples=2
        )
        for _ in range(4):
            monitor.observe("c", True)
        assert monitor.backoff("c") == 1
        monitor.rearm()
        # A calm stretch (full window far under threshold) clears the
        # streak.
        for _ in range(8):
            monitor.observe("c", False)
        assert monitor.backoff("c") == 0

    def test_backoff_survives_dips_just_below_threshold(self):
        # A rate dipping below the trip point — but not to clear
        # recovery (a full window under half the threshold) — must not
        # reset the streak, or min_samples-spaced refit storms return.
        monitor = DriftMonitor(
            window=4, failure_threshold=0.5, min_samples=2
        )
        for _ in range(4):
            monitor.observe("c", True)
        assert monitor.backoff("c") == 1
        monitor.rearm()
        # One bad per four: full-window rate 0.25 — under threshold,
        # but not under threshold/2, so the streak survives.
        for step in range(8):
            assert monitor.observe("c", step % 4 == 0) is None
        assert monitor.backoff("c") == 1
        # When drift returns, the doubled requirement still applies:
        # the next event needs 4 observations, not min_samples = 2.
        monitor.rearm()
        events = [monitor.observe("c", True) for _ in range(8)]
        assert [e is not None for e in events].index(True) == 3
        assert sum(e is not None for e in events) == 1

    def test_unroutable_key_uses_its_own_threshold(self):
        monitor = DriftMonitor(
            window=10, failure_threshold=0.9,
            unroutable_threshold=0.2, min_samples=5,
        )
        events = []
        for step in range(10):
            events.append(monitor.observe(UNROUTABLE, step % 2 == 0))
            events.append(monitor.observe("c", step % 2 == 0))
        fired = [e for e in events if e is not None]
        assert [e.key for e in fired] == [UNROUTABLE]
        assert fired[0].kind == "unroutable"
        assert fired[0].threshold == 0.2

    def test_rate_is_inspectable(self):
        monitor = DriftMonitor(window=4)
        assert monitor.rate("c") == 0.0
        monitor.observe("c", True)
        monitor.observe("c", False)
        assert monitor.rate("c") == 0.5

    def test_rearm_single_key_leaves_others_alone(self):
        monitor = DriftMonitor(
            window=4, failure_threshold=0.5, min_samples=2
        )
        for _ in range(2):
            monitor.observe("a", True)
            monitor.observe("b", True)
        monitor.rearm("a")
        assert monitor.rate("a") == 0.0
        assert monitor.rate("b") == 1.0
        # "a" can fire again after refilling; "b" stays dis-armed.
        events = []
        for _ in range(4):
            events.append(monitor.observe("a", True))
            events.append(monitor.observe("b", True))
        fired = [e for e in events if e is not None]
        assert [e.key for e in fired] == ["a"]

    @pytest.mark.parametrize("kwargs", [
        {"window": 0},
        {"failure_threshold": 0.0},
        {"failure_threshold": 1.5},
        {"unroutable_threshold": -0.1},
        {"min_samples": 0},
        {"window": 4, "min_samples": 5},
    ])
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ValueError):
            DriftMonitor(**kwargs)


# --------------------------------------------------------------------- #
# Refit atomicity
# --------------------------------------------------------------------- #


class TestRefitAtomicity:
    def test_concurrent_route_never_sees_half_updated_profiles(self):
        """Readers racing 200 refits observe only whole generations.

        Every refit installs (anchor 0) profiles whose paths carry one
        generation marker across all three clusters.  A reader
        snapshot mixing markers — or a crash in ``route_signature``
        mid-swap — means the swap was not atomic.
        """
        names = ("alpha", "beta", "gamma")
        router = ClusterRouter(
            [
                ClusterProfile(
                    name=name,
                    url_signatures=frozenset({f"{name}.example.org/*/"}),
                    keywords=Counter({name: 1.0}),
                    paths=Counter({"gen-0": 1.0}),
                )
                for name in names
            ],
            threshold=0.1,
        )
        probe = PageSignature(
            url_signature="alpha.example.org/*/",
            keywords=Counter({"alpha": 1}),
            paths=Counter({"gen-0": 1}),
        )
        stop = threading.Event()
        torn: list = []
        errors: list = []

        def reader():
            valid = set(names) | {UNROUTABLE}
            while not stop.is_set():
                snapshot = router.profiles
                generations = {
                    marker for profile in snapshot
                    for marker in profile.paths
                }
                if len(generations) != 1:
                    torn.append(generations)
                try:
                    decision = router.route_signature(probe)
                except Exception as exc:  # pragma: no cover - the bug
                    errors.append(exc)
                    return
                if decision.cluster not in valid:
                    errors.append(decision)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        try:
            for generation in range(1, 200):
                reservoirs = {
                    name: [PageSignature(
                        url_signature=f"{name}.example.org/*/",
                        keywords=Counter({name: 1}),
                        paths=Counter({f"gen-{generation}": 1}),
                    )]
                    for name in names
                }
                router.refit(reservoirs, anchor=0.0)
        finally:
            stop.set()
            for thread in readers:
                thread.join()
        assert torn == []
        assert errors == []


# --------------------------------------------------------------------- #
# AdaptiveRouter + stage
# --------------------------------------------------------------------- #


def _page(tag: str, index: int) -> WebPage:
    rows = "".join(
        f"<tr><td><b>{tag}-{field}:</b> value-{index}</td></tr>"
        for field in ("one", "two", "three")
    )
    return WebPage(
        url=f"http://{tag}.example.org/{tag}/p{index}/",
        html=f"<html><body><table class='{tag}'>{rows}</table></body></html>",
    )


def _alien_page(index: int) -> WebPage:
    # Structurally and lexically unlike _page: resembles nothing known,
    # so a spawn-enabled adapter must not absorb it into a profile.
    items = "".join(f"<li>entry number {index}</li>" for _ in range(3))
    return WebPage(
        url=f"http://elsewhere.example.net/feed/{index}",
        html=f"<html><body><div><p>bulletin</p><ul>{items}</ul></div></body></html>",
    )


class TestAdaptiveRouter:
    def _adaptive(self, **kwargs) -> AdaptiveRouter:
        router = ClusterRouter.fit(
            {"alpha": [_page("alpha", i) for i in range(4)]},
            threshold=0.9,
        )
        monitor = DriftMonitor(
            window=8, unroutable_threshold=0.5,
            failure_threshold=0.5, min_samples=4,
        )
        return AdaptiveRouter(router, monitor=monitor, **kwargs)

    def test_routed_traffic_matches_wrapped_router(self):
        adaptive = self._adaptive()
        page = _page("alpha", 99)
        assert adaptive.route(page) == adaptive.router.route(page)
        assert adaptive.target(page) == "alpha"
        assert adaptive.clusters() == ["alpha"]
        assert adaptive.threshold == 0.9
        # route() and target() observe; the wrapped router's own
        # route() deliberately does not.
        assert adaptive.routed_pages == 2
        assert adaptive.refits == 0

    def test_unroutable_cohort_triggers_refit_and_recovers(self):
        adaptive = self._adaptive()
        drifted = [_page("omega", i) for i in range(12)]
        decisions = [adaptive.route(page) for page in drifted]
        assert adaptive.drift_events == 1
        assert adaptive.refits == 1
        # The cohort was absorbed: later pages route, earlier did not.
        assert not decisions[0].routed
        assert decisions[-1].routed
        # Audit trail: drift then refit, in order, with the lifecycle
        # fields operators need.
        kinds = [event["event"] for event in adaptive.log.events]
        assert kinds == ["drift", "refit"]
        drift, refit = adaptive.log.events
        assert drift["kind"] == "unroutable"
        assert refit["updated"] == ["alpha"]
        assert refit["unroutable_pages"] >= 4

    def test_route_all_partitions_and_observes(self):
        adaptive = self._adaptive()
        groups = adaptive.route_all([_page("alpha", i) for i in range(3)])
        assert sorted(groups) == ["alpha"]
        assert adaptive.routed_pages == 3

    def test_stage_failure_feedback_triggers_refit(self):
        adaptive = self._adaptive()
        stage = adaptive.stage()
        assert isinstance(stage, AdaptiveRouterStage)
        for index in range(6):
            record = PageRecord(
                url=f"http://alpha.example.org/alpha/p{index}/",
                cluster="alpha",
                values={"x": []},
                failures=[("x", "mandatory-missing")],
            )
            assert stage(record) is record  # records pass unchanged
        assert adaptive.drift_events == 1
        assert adaptive.refits == 1
        assert adaptive.log.events[0]["kind"] == "cluster-failure"

    def test_spawn_for_alien_cohort(self):
        adaptive = self._adaptive(
            spawn_clusters=True, spawn_below=0.5, spawn_min_cohort=4,
        )
        aliens = [_alien_page(i) for i in range(8)]
        for page in aliens:
            adaptive.route(page)
        assert adaptive.refits == 1
        (refit,) = [
            e for e in adaptive.log.events if e["event"] == "refit"
        ]
        assert refit["spawned"] == ["adapted-0"]
        assert "adapted-0" in adaptive.clusters()
        # The cohort's template now routes to its spawned cluster.
        assert adaptive.route(_alien_page(99)).cluster == "adapted-0"

    def test_alien_cohort_never_poisons_a_healthy_profile(self):
        # Spawning disabled (the default): a flood of pages resembling
        # no profile triggers a refit, but the alien signatures are
        # dropped, not absorbed — the cluster's centroid stays intact
        # and its real pages keep routing.
        adaptive = self._adaptive()
        (profile_before,) = adaptive.router.profiles
        for index in range(12):
            adaptive.route(_alien_page(index))
        assert adaptive.refits >= 1
        (profile_after,) = adaptive.router.profiles
        assert profile_after.keywords == profile_before.keywords
        assert profile_after.paths == profile_before.paths
        refit_events = [
            e for e in adaptive.log.events if e["event"] == "refit"
        ]
        # Un-absorbed aliens stay unroutable, so the window refires
        # (with backoff); every refit classifies the cohort as alien.
        assert refit_events
        for refit in refit_events:
            assert refit["alien_pages"] == refit["unroutable_pages"]
            assert refit["updated"] == [] and refit["spawned"] == []
        assert adaptive.route(_page("alpha", 99)).cluster == "alpha"

    def test_no_spawn_below_min_cohort(self):
        adaptive = self._adaptive(
            spawn_clusters=True, spawn_below=0.5, spawn_min_cohort=50,
        )
        for index in range(8):
            adaptive.route(_alien_page(index))
        (refit,) = [
            e for e in adaptive.log.events if e["event"] == "refit"
        ]
        assert refit["spawned"] == []

    def test_low_margin_decisions_drive_their_own_window(self):
        # With a sky-high margin floor every routed decision is a bad
        # signal, so drift fires from margins alone — in a dedicated
        # window, typed "low-margin".
        adaptive = self._adaptive(low_margin=2.0)
        for index in range(6):
            adaptive.route(_page("alpha", index))
        assert adaptive.drift_events == 1
        assert adaptive.log.events[0]["kind"] == "low-margin"
        assert adaptive.log.events[0]["key"] == "alpha::margin"

    def test_margin_signal_does_not_dilute_failure_detection(self):
        # Healthy margins plus failing extraction: the two signal
        # streams live in separate windows, so the failure rate still
        # reaches 1.0 instead of being capped at 0.5 by interleaved
        # good margin observations.
        adaptive = self._adaptive(low_margin=0.0001)
        stage = adaptive.stage()
        for index in range(6):
            adaptive.route(_page("alpha", index))  # margin fine: good
            stage(PageRecord(
                url=f"http://alpha.example.org/alpha/p{index}/",
                cluster="alpha", values={},
                failures=[("x", "mandatory-missing")],
            ))
        drift = [e for e in adaptive.log.events if e["event"] == "drift"]
        assert [e["kind"] for e in drift] == ["cluster-failure"]
        assert drift[0]["rate"] == 1.0

    def test_log_borrows_an_open_stream(self):
        stream = io.StringIO()
        log = AdaptationLog(stream)
        adaptive = self._adaptive(log=log)
        for index in range(12):
            adaptive.route(_page("omega", index))
        log.close()  # borrowed: must stay open
        lines = [
            json.loads(line)
            for line in stream.getvalue().strip().splitlines()
        ]
        assert [line["event"] for line in lines] == ["drift", "refit"]

    def test_log_writes_jsonl(self, tmp_path):
        target = tmp_path / "adapt.jsonl"
        with AdaptationLog(target) as log:
            adaptive = self._adaptive(log=log)
            for index in range(12):
                adaptive.route(_page("omega", index))
        lines = [
            json.loads(line)
            for line in target.read_text(encoding="utf-8").splitlines()
        ]
        assert [line["event"] for line in lines] == ["drift", "refit"]
        assert lines == adaptive.log.events

    def test_make_adapter_requires_router(self):
        from repro.errors import ClusteringError

        with pytest.raises(ClusteringError, match="fitted signature router"):
            make_adapter(None)

    def test_make_adapter_single_threshold_sets_both(self):
        router = ClusterRouter.fit(
            {"alpha": [_page("alpha", i) for i in range(2)]}
        )
        adapter = make_adapter(router, window=10, threshold=0.42)
        assert adapter.monitor.failure_threshold == 0.42
        assert adapter.monitor.unroutable_threshold == 0.42
        assert adapter.monitor.window == 10

    def test_invalid_configuration_rejected(self):
        router = ClusterRouter.fit(
            {"alpha": [_page("alpha", i) for i in range(2)]}
        )
        with pytest.raises(ValueError, match="reservoir"):
            AdaptiveRouter(router, reservoir=0)
        with pytest.raises(ValueError, match="anchor"):
            AdaptiveRouter(router, anchor=2.0)


class TestEntryPointWiring:
    """Adapter plumbing through the runtime and the serve handler."""

    def _router_and_pages(self, service_site):
        exemplars = {
            hint: service_site.pages_with_hint(hint)[:8]
            for hint in ("imdb-movies", "imdb-actors")
        }
        return (
            ClusterRouter.fit(exemplars, threshold=0.5),
            service_site.pages_with_hint("imdb-movies")[8:40],
        )

    def test_runtime_rejects_router_and_adapter_together(
        self, service_site, service_repository
    ):
        from repro.service.runtime import StreamingRuntime

        router, _ = self._router_and_pages(service_site)
        with pytest.raises(ValueError, match="not both"):
            StreamingRuntime(
                service_repository, router=router,
                adapter=make_adapter(router),
            )

    def test_serve_handler_rejects_router_and_adapter_together(
        self, service_site, service_repository
    ):
        router, _ = self._router_and_pages(service_site)
        with pytest.raises(ValueError, match="not both"):
            ServeHandler(
                service_repository, router=router,
                adapter=make_adapter(router),
            )

    def test_engine_passthrough_reports_drift_counts(
        self, service_site, service_repository
    ):
        from repro.service.runtime import (
            IterablePageSource,
            StreamingRuntime,
        )

        router, pages = self._router_and_pages(service_site)
        adapter = make_adapter(router)
        runtime = StreamingRuntime(
            service_repository, adapter=adapter, workers=2, chunk_size=8,
        )
        assert runtime.router is adapter
        report, records = runtime.run_collect(IterablePageSource(pages))
        assert len(records) == len(pages)
        assert report.drift_events == 0
        assert report.refits == 0
        assert adapter.routed_pages == len(pages)

    def test_contained_extraction_errors_feed_the_drift_monitor(
        self, service_site, service_repository, monkeypatch
    ):
        # An extraction that *raises* (contained-errors mode) never
        # reaches the stage pipeline; the runtime must report it to
        # the adapter directly or exception-class drift is invisible.
        from repro.service.compiler import CompiledWrapper
        from repro.service.runtime import (
            IterablePageSource,
            StreamingRuntime,
        )
        from repro.service.adapt import DriftMonitor

        def boom(self, page, failures=None):
            raise RuntimeError("template changed under the wrapper")

        monkeypatch.setattr(CompiledWrapper, "extract_page", boom)
        router, pages = self._router_and_pages(service_site)
        adapter = AdaptiveRouter(
            router,
            monitor=DriftMonitor(
                window=8, failure_threshold=0.5, min_samples=4
            ),
        )
        runtime = StreamingRuntime(
            service_repository, executor="inline",
            contain_errors=True, adapter=adapter,
        )
        report = runtime.run(IterablePageSource(pages[:8]))
        assert report.errors_count == 8
        assert report.drift_events >= 1
        assert adapter.log.events[0]["kind"] == "cluster-failure"
        assert adapter.log.events[0]["key"] == "imdb-movies"

    def test_runtime_report_carries_per_run_drift_share(
        self, service_site, service_repository
    ):
        # Two runs over one adapter: each report counts only its own
        # events (the serve session shape: many runs, one adapter).
        from repro.service.runtime import (
            IterablePageSource,
            StreamingRuntime,
        )
        from repro.service.adapt import DriftMonitor

        router, pages = self._router_and_pages(service_site)
        adapter = AdaptiveRouter(
            router,
            monitor=DriftMonitor(
                window=8, unroutable_threshold=0.5, min_samples=4
            ),
        )
        runtime = StreamingRuntime(
            service_repository, executor="inline", adapter=adapter,
        )
        calm = runtime.run(IterablePageSource(pages[:8]))
        assert (calm.drift_events, calm.refits) == (0, 0)
        aliens = [_alien_page(index) for index in range(8)]
        drifting = runtime.run(IterablePageSource(aliens))
        # ≥1: the unroutable window fires; absorbing the cohort can
        # legitimately trigger a follow-up cluster-failure event when
        # the claiming cluster's rules cannot extract the aliens.
        assert drifting.drift_events >= 1
        assert drifting.refits == drifting.drift_events
        assert (
            f"drift events    : {drifting.drift_events} "
            f"({drifting.refits} refit(s))"
        ) in drifting.summary()


# --------------------------------------------------------------------- #
# End-to-end: the serve loop under template drift
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def depth_corpus():
    """Exemplars + a stream whose second half mutates the template."""
    fitted = generate_depth_cluster(1, n_pages=40, seed=3)
    drifted = generate_depth_cluster(3, n_pages=80, seed=4)
    return fitted, fitted[8:] + drifted


@pytest.fixture(scope="module")
def depth_repository(depth_corpus):
    from repro.core.builder import MappingRuleBuilder
    from repro.core.oracle import ScriptedOracle
    from repro.core.repository import RuleRepository

    fitted, _ = depth_corpus
    repository = RuleRepository()
    report = MappingRuleBuilder(
        fitted[:8], ScriptedOracle(), repository=repository,
        cluster_name="depth-1", seed=1,
    ).build_all(list(DEPTH_COMPONENTS))
    assert report.failed_components == []
    return repository


def _serve_replay(handler, pages) -> tuple:
    """Run pages through the async serve loop; returns (stats, outputs)."""
    text = "".join(
        json.dumps({"url": page.url, "html": page.html}) + "\n"
        for page in pages
    )
    stdout = io.StringIO()
    stats = asyncio.run(serve_async(
        handler, io.StringIO(text), stdout, max_inflight=1,
    ))
    outputs = [
        json.loads(line) for line in stdout.getvalue().strip().splitlines()
    ]
    return stats, outputs


def _routed_fraction(outputs) -> float:
    unroutable = sum(
        1 for output in outputs if output.get("cluster") == UNROUTABLE
    )
    return 1.0 - unroutable / len(outputs)


class TestServeDriftRegression:
    def _router(self, depth_corpus) -> ClusterRouter:
        fitted, _ = depth_corpus
        return ClusterRouter.fit({"depth-1": fitted[:8]}, threshold=0.8)

    def test_adaptive_serve_recovers_routed_fraction(
        self, depth_corpus, depth_repository
    ):
        _, stream = depth_corpus

        frozen_handler = ServeHandler(
            depth_repository, router=self._router(depth_corpus)
        )
        frozen_stats, frozen_outputs = _serve_replay(frozen_handler, stream)

        adapter = make_adapter(self._router(depth_corpus), window=32)
        adaptive_handler = ServeHandler(depth_repository, adapter=adapter)
        adaptive_stats, adaptive_outputs = _serve_replay(
            adaptive_handler, stream
        )

        assert len(adaptive_outputs) == len(frozen_outputs) == len(stream)
        # The acceptance bar: at least one refit fired, and the
        # adaptive loop ends strictly ahead of the frozen router.
        assert adaptive_stats.refits >= 1
        assert adaptive_stats.drift_events >= 1
        assert _routed_fraction(adaptive_outputs) > _routed_fraction(
            frozen_outputs
        )
        # The frozen router lost the entire drifted half; the adaptive
        # one recovered it shortly after the drift boundary.
        assert _routed_fraction(frozen_outputs) < 0.6
        assert _routed_fraction(adaptive_outputs) > 0.85

    def test_adapt_is_byte_identical_without_drift(
        self, depth_corpus, depth_repository
    ):
        fitted, _ = depth_corpus
        calm = fitted[8:]  # drift-free: the template never changes

        frozen_handler = ServeHandler(
            depth_repository, router=self._router(depth_corpus)
        )
        adapter = make_adapter(self._router(depth_corpus), window=32)
        adaptive_handler = ServeHandler(depth_repository, adapter=adapter)

        frozen_text = io.StringIO()
        adaptive_text = io.StringIO()
        stream_text = "".join(
            json.dumps({"url": page.url, "html": page.html}) + "\n"
            for page in calm
        )
        asyncio.run(serve_async(
            frozen_handler, io.StringIO(stream_text), frozen_text,
        ))
        stats = asyncio.run(serve_async(
            adaptive_handler, io.StringIO(stream_text), adaptive_text,
        ))
        assert stats.refits == 0
        assert adaptive_text.getvalue() == frozen_text.getvalue()
