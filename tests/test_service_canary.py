"""Canary rollout: shadow routing, verdicts, serve/healthz integration."""

import asyncio
import io
import json
from collections import Counter

import pytest

from repro.cli import main
from repro.clustering.features import PageSignature
from repro.core.builder import MappingRuleBuilder
from repro.core.oracle import ScriptedOracle
from repro.core.repository import RuleRepository
from repro.service.adapt import AdaptationLog, make_adapter
from repro.service.http import HttpFrontEnd
from repro.service.registry import (
    ArtifactRegistry,
    CanaryController,
    wrapper_extractor,
)
from repro.service.router import (
    UNROUTABLE,
    ClusterRouter,
    _profile_from_signatures,
)
from repro.service.serve import ServeHandler, serve_lines
from repro.sites.variation import DEPTH_COMPONENTS, generate_depth_cluster


def _signature(tag: str) -> PageSignature:
    return PageSignature(
        url_signature=f"{tag}.example.org/*/",
        keywords=Counter({tag: 3}),
        paths=Counter({f"html/body/{tag}": 2}),
    )


def _router(*tags: str) -> ClusterRouter:
    return ClusterRouter(
        [_profile_from_signatures(tag, [_signature(tag)]) for tag in tags],
        threshold=0.8,
    )


class _Trigger:
    kind = "unroutable"
    key = UNROUTABLE

    def to_dict(self) -> dict:
        return {"event": "drift", "kind": self.kind, "key": self.key}


class _Refit:
    reservoir_pages = 24
    unroutable_pages = 8


def _drive(controller, tag: str, pages: int) -> None:
    """Feed ``pages`` observations of one signature through the canary."""
    signature = _signature(tag)
    for _ in range(pages):
        decision = controller.router.route_signature(signature)
        controller.observe(None, signature, decision)
        if decision.cluster != UNROUTABLE:
            controller.note_result(decision.cluster, False)


# --------------------------------------------------------------------- #
# Controller units
# --------------------------------------------------------------------- #


class TestCanaryController:
    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError, match="fraction"):
            CanaryController(_router("a"), RuleRepository(), fraction=1.5)
        with pytest.raises(ValueError, match="fraction"):
            CanaryController(_router("a"), RuleRepository(), fraction=-0.1)
        with pytest.raises(ValueError, match="window"):
            CanaryController(_router("a"), RuleRepository(), window=0)

    @pytest.mark.parametrize("fraction, expected", [
        # 0.1 is not a binary float: the accumulator crosses 1.0 on
        # page 11 and the second crossing falls just past page 20.
        (1.0, 20), (0.5, 10), (0.25, 5), (0.1, 1),
    ])
    def test_sampling_is_deterministic(self, fraction, expected):
        """The accumulator samples exactly ``fraction`` — no RNG."""
        controller = CanaryController(
            _router("alpha"), RuleRepository(),
            fraction=fraction, window=64,
        )
        controller.stage(_router("alpha", "gamma"), _Trigger(), _Refit())
        _drive(controller, "alpha", 20)
        assert controller.shadow_pages == expected

    def test_nothing_staged_means_nothing_sampled(self):
        controller = CanaryController(
            _router("alpha"), RuleRepository(), fraction=1.0, window=8
        )
        _drive(controller, "alpha", 10)
        assert controller.shadow_pages == 0
        assert not controller.staged

    def test_fraction_zero_promotes_on_stage(self, tmp_path):
        log = AdaptationLog()
        registry = ArtifactRegistry(tmp_path / "reg")
        router = _router("alpha")
        repository = RuleRepository()
        controller = CanaryController(
            router, repository, registry=registry, fraction=0.0,
            window=8, log=log,
        )
        baseline = controller.ensure_baseline()
        candidate = _router("alpha", "gamma")
        controller.stage(candidate, _Trigger(), _Refit())
        assert controller.promotions == 1
        assert not controller.staged
        # The live router now carries the candidate's profile list.
        assert [p.name for p in router.profiles] == ["alpha", "gamma"]
        promoted = registry.pinned()
        assert promoted is not None and promoted != baseline.version
        assert registry.manifest(promoted).parent == baseline.version
        (event,) = [e for e in log.events if e["event"] == "promote"]
        assert event["reason"] == "no canary traffic configured"

    def test_promotes_a_candidate_that_routes_more(self, tmp_path):
        log = AdaptationLog()
        registry = ArtifactRegistry(tmp_path / "reg")
        router = _router("alpha")
        controller = CanaryController(
            router, RuleRepository(), registry=registry,
            fraction=1.0, window=8, log=log,
        )
        baseline = controller.ensure_baseline()
        controller.stage(_router("alpha", "gamma"), _Trigger(), _Refit())
        # Traffic the incumbent cannot route but the candidate can.
        _drive(controller, "gamma", 8)
        assert controller.promotions == 1
        assert controller.rollbacks == 0
        assert router.route_signature(_signature("gamma")).cluster == "gamma"
        assert registry.pinned() != baseline.version
        (event,) = [e for e in log.events if e["event"] == "promote"]
        assert event["candidate"]["routed"] > event["incumbent"]["routed"]
        assert event["samples"] == 8

    def test_rolls_back_a_candidate_that_routes_less(self, tmp_path):
        log = AdaptationLog()
        registry = ArtifactRegistry(tmp_path / "reg")
        router = _router("alpha")
        controller = CanaryController(
            router, RuleRepository(), registry=registry,
            fraction=1.0, window=8, log=log,
        )
        baseline = controller.ensure_baseline()
        controller.stage(_router("omega"), _Trigger(), _Refit())
        _drive(controller, "alpha", 8)
        assert controller.rollbacks == 1
        assert controller.promotions == 0
        assert not controller.staged
        # Live router and pin both untouched.
        assert [p.name for p in router.profiles] == ["alpha"]
        assert registry.pinned() == baseline.version
        (event,) = [e for e in log.events if e["event"] == "rollback"]
        assert "routed fraction dropped" in event["reason"]
        # The losing candidate stays in the registry for the audit trail.
        assert len(registry.version_ids()) == 2

    def test_rolls_back_on_extraction_failures(self):
        """Divergent routes are dry-run; a failing candidate loses."""
        extractions = []

        def extract(cluster, page):
            extractions.append(cluster)
            return True  # every candidate extraction fails

        router = _router("alpha")
        controller = CanaryController(
            router, RuleRepository(), fraction=1.0, window=8,
            extract=extract, log=AdaptationLog(),
        )
        # Same centroid under a different name: routes diverge while
        # both sides stay routed.
        divergent = ClusterRouter(
            [_profile_from_signatures("beta", [_signature("alpha")])],
            threshold=0.8,
        )
        controller.stage(divergent, _Trigger(), _Refit())
        _drive(controller, "alpha", 8)
        assert extractions == ["beta"] * 8
        assert controller.shadow_extractions == 8
        assert controller.rollbacks == 1
        (event,) = [
            e for e in controller.log.events if e["event"] == "rollback"
        ]
        assert "clean-serve fraction dropped" in event["reason"]
        assert event["candidate"]["failure_rate"] == 1.0

    def test_promotes_when_divergent_extractions_succeed(self):
        controller = CanaryController(
            _router("alpha"), RuleRepository(), fraction=1.0, window=8,
            extract=lambda cluster, page: False,
        )
        divergent = ClusterRouter(
            [_profile_from_signatures("beta", [_signature("alpha")])],
            threshold=0.8,
        )
        controller.stage(divergent, _Trigger(), _Refit())
        _drive(controller, "alpha", 8)
        assert controller.promotions == 1

    def test_agreeing_routes_inherit_the_live_outcome(self):
        """Same cluster -> same wrapper: no dry-run, shared failures."""
        def extract(cluster, page):  # pragma: no cover - must not run
            raise AssertionError("agreeing routes must not dry-run")

        controller = CanaryController(
            _router("alpha"), RuleRepository(), fraction=1.0, window=8,
            extract=extract, log=AdaptationLog(),
        )
        controller.stage(_router("alpha"), _Trigger(), _Refit())
        signature = _signature("alpha")
        for _ in range(8):
            decision = controller.router.route_signature(signature)
            controller.observe(None, signature, decision)
            controller.note_result(decision.cluster, True)  # live failures
        assert controller.shadow_extractions == 0
        # Both sides carry the same failure rate, so the candidate ties
        # on every axis and is promoted.
        assert controller.promotions == 1
        (event,) = [
            e for e in controller.log.events if e["event"] == "promote"
        ]
        assert event["candidate"]["failure_rate"] == pytest.approx(
            event["incumbent"]["failure_rate"]
        )
        assert event["incumbent"]["failure_rate"] == 1.0

    def test_rolls_back_on_low_margin_routes(self):
        controller = CanaryController(
            _router("alpha"), RuleRepository(), fraction=1.0, window=8,
            low_margin=0.5, log=AdaptationLog(),
        )
        # Two near-identical profiles: every route wins by a whisker.
        wobbly = ClusterRouter(
            [
                _profile_from_signatures("alpha", [_signature("alpha")]),
                _profile_from_signatures("alpha-2", [_signature("alpha")]),
            ],
            threshold=0.8,
        )
        controller.stage(wobbly, _Trigger(), _Refit())
        _drive(controller, "alpha", 8)
        assert controller.rollbacks == 1
        (event,) = [
            e for e in controller.log.events if e["event"] == "rollback"
        ]
        assert "low-margin routes rose" in event["reason"]

    def test_restaging_supersedes_the_open_window(self):
        log = AdaptationLog()
        controller = CanaryController(
            _router("alpha"), RuleRepository(), fraction=1.0, window=8,
            log=log,
        )
        controller.stage(_router("omega"), _Trigger(), _Refit())
        _drive(controller, "alpha", 4)  # half a window: no verdict yet
        controller.stage(_router("alpha", "gamma"), _Trigger(), _Refit())
        assert controller.rollbacks == 0
        # The fresh window starts from zero paired samples.
        _drive(controller, "gamma", 7)
        assert controller.promotions == 0
        _drive(controller, "gamma", 1)
        assert controller.promotions == 1
        assert [e["event"] for e in log.events] == [
            "shadow", "shadow", "promote",
        ]

    def test_ensure_baseline_adopts_an_existing_pin(self, tmp_path):
        registry = ArtifactRegistry(tmp_path / "reg")
        router = _router("alpha")
        repository = RuleRepository()
        first = CanaryController(router, repository, registry=registry)
        published = first.ensure_baseline()
        second = CanaryController(router, repository, registry=registry)
        adopted = second.ensure_baseline()
        assert adopted.version == published.version
        assert second.active_version == published.version
        assert len(registry.version_ids()) == 1

    def test_ensure_baseline_without_a_registry(self):
        controller = CanaryController(_router("alpha"), RuleRepository())
        assert controller.ensure_baseline() is None
        assert controller.active_version is None

    def test_note_result_ignores_unroutable_and_idle(self):
        controller = CanaryController(
            _router("alpha"), RuleRepository(), fraction=1.0, window=4
        )
        controller.note_result("alpha", True)  # nothing staged
        controller.stage(_router("alpha"), _Trigger(), _Refit())
        controller.note_result(UNROUTABLE, True)
        assert len(controller._incumbent_failures) == 0

    def test_status_snapshot(self, tmp_path):
        registry = ArtifactRegistry(tmp_path / "reg")
        controller = CanaryController(
            _router("alpha"), RuleRepository(), registry=registry,
            fraction=1.0, window=8,
        )
        baseline = controller.ensure_baseline()
        controller.stage(_router("omega"), _Trigger(), _Refit())
        _drive(controller, "alpha", 3)
        status = controller.status()
        assert status["registry_version"] == baseline.version
        assert status["shadow_version"] == controller.candidate_version
        assert status["canary_staged"] is True
        assert status["canary_shadow_pages"] == 3
        assert status["canary_promotions"] == 0
        assert status["canary_rollbacks"] == 0


class TestWrapperExtractor:
    class _Runtime:
        def __init__(self, wrapper):
            self._wrapper = wrapper

        def wrapper_for(self, cluster):
            return self._wrapper

    def test_unknown_cluster_counts_as_failure(self):
        extract = wrapper_extractor(self._Runtime(None))
        assert extract("ghost", None) is True

    def test_exception_counts_as_failure(self):
        class Exploding:
            def extract_page(self, page, failures=None):
                raise RuntimeError("boom")

        assert wrapper_extractor(self._Runtime(Exploding()))("c", None) is True

    def test_reported_failures_count(self):
        class Failing:
            def extract_page(self, page, failures=None):
                failures.append("mandatory-missing")

        class Clean:
            def extract_page(self, page, failures=None):
                return {}

        assert wrapper_extractor(self._Runtime(Failing()))("c", None) is True
        assert wrapper_extractor(self._Runtime(Clean()))("c", None) is False


# --------------------------------------------------------------------- #
# Serve integration: drift -> refit -> shadow -> promote -> rollback
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def depth_corpus():
    fitted = generate_depth_cluster(1, n_pages=40, seed=3)
    drifted = generate_depth_cluster(3, n_pages=80, seed=4)
    return fitted, fitted[8:] + drifted


@pytest.fixture(scope="module")
def depth_repository(depth_corpus):
    fitted, _ = depth_corpus
    repository = RuleRepository()
    report = MappingRuleBuilder(
        fitted[:8], ScriptedOracle(), repository=repository,
        cluster_name="depth-1", seed=1,
    ).build_all(list(DEPTH_COMPONENTS))
    assert report.failed_components == []
    return repository


def _fit_router(depth_corpus) -> ClusterRouter:
    fitted, _ = depth_corpus
    return ClusterRouter.fit({"depth-1": fitted[:8]}, threshold=0.8)


def _serve_replay(handler, pages) -> tuple:
    text = "".join(
        json.dumps({"url": page.url, "html": page.html}) + "\n"
        for page in pages
    )
    stdout = io.StringIO()
    stats = serve_lines(handler, io.StringIO(text), stdout)
    outputs = [
        json.loads(line) for line in stdout.getvalue().strip().splitlines()
    ]
    return stats, outputs


def _routed_fraction(outputs) -> float:
    unroutable = sum(
        1 for output in outputs if output.get("cluster") == UNROUTABLE
    )
    return 1.0 - unroutable / len(outputs)


class TestServeCanaryLifecycle:
    def test_drift_refit_shadow_promote_then_rollback(
        self, depth_corpus, depth_repository, tmp_path, capsys
    ):
        """The issue's acceptance scenario, end to end."""
        _, stream = depth_corpus
        registry = ArtifactRegistry(tmp_path / "registry")
        adapter = make_adapter(_fit_router(depth_corpus), window=32)
        handler = ServeHandler(depth_repository, adapter=adapter)
        deployer = CanaryController(
            adapter.router, depth_repository, registry=registry,
            fraction=0.5, window=16,
            extract=wrapper_extractor(handler.runtime), log=adapter.log,
        )
        baseline = deployer.ensure_baseline()
        adapter.deployer = deployer

        stats, outputs = _serve_replay(handler, stream)

        assert stats.drift_events >= 1
        assert stats.refits >= 1
        # The canary counters surface through ServeStats.
        assert stats.promotions == deployer.promotions >= 1
        assert stats.rollbacks == deployer.rollbacks == 0
        # Promotion recovered most of the drifted half.
        assert _routed_fraction(outputs) > 0.55

        events = [e["event"] for e in adapter.log.events]
        first_promote = events.index("promote")
        assert events.index("drift") < events.index("refit") < events.index(
            "shadow"
        ) < first_promote

        promoted = registry.pinned()
        assert promoted != baseline.version
        chain = registry.manifest(promoted)
        assert chain.source == "refit"
        assert chain.trigger["event"] == "drift"
        # Walk the parent chain back to the pre-drift baseline.
        seen = set()
        while chain.parent is not None and chain.version not in seen:
            seen.add(chain.version)
            chain = registry.manifest(chain.parent)
        assert chain.version == baseline.version

        # One command undoes the rollout.
        capsys.readouterr()
        assert main(["registry", "rollback", str(tmp_path / "registry")]) == 0
        rolled_to = registry.pinned()
        assert rolled_to == registry.manifest(promoted).parent
        assert rolled_to != promoted

    def test_canary_is_inert_without_drift(
        self, depth_corpus, depth_repository, tmp_path
    ):
        fitted, _ = depth_corpus
        calm = fitted[8:]
        registry = ArtifactRegistry(tmp_path / "registry")
        adapter = make_adapter(_fit_router(depth_corpus), window=32)
        handler = ServeHandler(depth_repository, adapter=adapter)
        deployer = CanaryController(
            adapter.router, depth_repository, registry=registry,
            fraction=0.5, window=16,
            extract=wrapper_extractor(handler.runtime), log=adapter.log,
        )
        baseline = deployer.ensure_baseline()
        adapter.deployer = deployer
        stats, outputs = _serve_replay(handler, calm)
        assert stats.promotions == stats.rollbacks == 0
        assert deployer.shadow_pages == 0
        assert registry.pinned() == baseline.version
        assert registry.version_ids() == [baseline.version]
        assert _routed_fraction(outputs) == 1.0


# --------------------------------------------------------------------- #
# Operator surfaces: /healthz and the serve stderr summary
# --------------------------------------------------------------------- #


async def _get_healthz(port: int) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200")
    return json.loads(body)


class TestOperatorSurfaces:
    def test_healthz_reports_registry_and_canary(
        self, depth_corpus, depth_repository, tmp_path
    ):
        registry = ArtifactRegistry(tmp_path / "registry")
        adapter = make_adapter(_fit_router(depth_corpus), window=32)
        handler = ServeHandler(depth_repository, adapter=adapter)
        deployer = CanaryController(
            adapter.router, depth_repository, registry=registry,
            fraction=0.5, window=16, log=adapter.log,
        )
        baseline = deployer.ensure_baseline()
        adapter.deployer = deployer
        deployer.stage(
            _router("alpha"), _Trigger(), _Refit()
        )

        async def scenario():
            front = HttpFrontEnd(handler, "127.0.0.1", 0)
            await front.start()
            try:
                return await _get_healthz(front.port)
            finally:
                await front.shutdown()

        health = asyncio.run(scenario())
        assert health["status"] == "ok"
        assert health["registry_version"] == baseline.version
        assert health["shadow_version"] == deployer.candidate_version
        assert health["canary_promotions"] == 0
        assert health["canary_rollbacks"] == 0
        assert health["canary_shadow_pages"] == 0

    def test_healthz_without_a_deployer_stays_null(
        self, depth_corpus, depth_repository
    ):
        adapter = make_adapter(_fit_router(depth_corpus), window=32)
        handler = ServeHandler(depth_repository, adapter=adapter)

        async def scenario():
            front = HttpFrontEnd(handler, "127.0.0.1", 0)
            await front.start()
            try:
                return await _get_healthz(front.port)
            finally:
                await front.shutdown()

        health = asyncio.run(scenario())
        assert health["registry_version"] is None
        assert health["shadow_version"] is None
        assert health["canary_promotions"] == 0

    def test_serve_cli_reports_the_rollout_on_stderr(
        self, depth_corpus, depth_repository, tmp_path, capsys, monkeypatch
    ):
        """`serve --registry --adapt --canary-fraction` end to end."""
        _, stream = depth_corpus
        repo_path = tmp_path / "rules.json"
        depth_repository.save(repo_path)
        reg_dir = tmp_path / "registry"
        registry = ArtifactRegistry(reg_dir)
        baseline = registry.publish(
            depth_repository, _fit_router(depth_corpus), source="initial",
        )
        registry.pin(baseline.version)
        text = "".join(
            json.dumps({"url": page.url, "html": page.html}) + "\n"
            for page in stream
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        log_path = tmp_path / "adapt.jsonl"
        assert main([
            "serve", "--repository", str(repo_path),
            "--registry", str(reg_dir),
            "--adapt", "--drift-window", "32",
            "--canary-fraction", "0.5", "--canary-window", "16",
            "--adapt-log", str(log_path),
        ]) == 0
        err = capsys.readouterr().err
        assert f"registry: using pinned version {baseline.version}" in err
        assert "registry: active " in err
        assert "promotion(s)" in err
        assert "1 promotion(s), 0 rollback(s)" in err
        assert registry.pinned() != baseline.version
        # The canary's verdicts land in the same audit log as the drift.
        events = [
            json.loads(line)["event"]
            for line in log_path.read_text(encoding="utf-8").splitlines()
        ]
        assert "promote" in events

    def test_serve_cli_rejects_canary_without_adapt(
        self, depth_repository, tmp_path, capsys
    ):
        repo_path = tmp_path / "rules.json"
        depth_repository.save(repo_path)
        assert main([
            "serve", "--repository", str(repo_path),
            "--canary-fraction", "0.5",
        ]) == 2
        assert "--canary-fraction needs --adapt" in capsys.readouterr().err

    def test_serve_cli_rejects_an_out_of_range_fraction(
        self, depth_corpus, depth_repository, tmp_path, capsys
    ):
        repo_path = tmp_path / "rules.json"
        depth_repository.save(repo_path)
        reg_dir = tmp_path / "registry"
        registry = ArtifactRegistry(reg_dir)
        baseline = registry.publish(
            depth_repository, _fit_router(depth_corpus), source="initial",
        )
        registry.pin(baseline.version)
        assert main([
            "serve", "--repository", str(repo_path),
            "--registry", str(reg_dir),
            "--adapt", "--canary-fraction", "1.5",
        ]) == 2
        assert "canary fraction must be in [0, 1]" in (
            capsys.readouterr().err
        )

    def test_cli_reports_a_broken_pin(
        self, depth_repository, tmp_path, capsys
    ):
        """A CURRENT file naming a missing version fails loudly."""
        repo_path = tmp_path / "rules.json"
        depth_repository.save(repo_path)
        reg_dir = tmp_path / "registry"
        ArtifactRegistry(reg_dir)  # create the layout
        (reg_dir / "CURRENT").write_text("feedfacefeed\n", encoding="utf-8")
        (tmp_path / "depth-1-0.html").write_text(
            "<html><body>x</body></html>", encoding="utf-8"
        )
        for argv in (
            ["serve", "--repository", str(repo_path),
             "--registry", str(reg_dir)],
            ["batch", str(tmp_path), "--repository", str(repo_path),
             "--registry", str(reg_dir)],
        ):
            assert main(argv) == 2
            assert "no version 'feedfacefeed'" in capsys.readouterr().err

    def test_batch_cli_seeds_an_empty_registry(
        self, depth_corpus, depth_repository, tmp_path, capsys
    ):
        fitted, _ = depth_corpus
        site_dir = tmp_path / "pages"
        site_dir.mkdir()
        for index, page in enumerate(fitted[8:16]):
            (site_dir / f"depth-1-{index}.html").write_text(
                page.html, encoding="utf-8"
            )
        repo_path = tmp_path / "rules.json"
        depth_repository.save(repo_path)
        reg_dir = tmp_path / "registry"
        assert main([
            "batch", str(site_dir), "--repository", str(repo_path),
            "--jsonl", str(tmp_path / "out.jsonl"),
            "--registry", str(reg_dir),
        ]) == 0
        err = capsys.readouterr().err
        assert "registry: published and pinned initial version" in err
        registry = ArtifactRegistry(reg_dir)
        pinned = registry.pinned()
        assert pinned is not None
        assert registry.manifest(pinned).source == "initial"
        # A second run deploys the pinned artifact instead of reseeding.
        assert main([
            "batch", str(site_dir), "--repository", str(repo_path),
            "--jsonl", str(tmp_path / "out2.jsonl"),
            "--registry", str(reg_dir),
        ]) == 0
        assert f"registry: using pinned version {pinned}" in (
            capsys.readouterr().err
        )
        assert registry.version_ids() == [pinned]
