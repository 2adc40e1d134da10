"""Rule-set static analyzer: catalogue, findings, gates, mutations."""

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis import (
    LINT_SPECS,
    SEVERITIES,
    Finding,
    analyze_artifact,
    analyze_path,
    analyze_registry,
    analyze_repository,
    analyze_router,
    analyze_rule,
    gate_findings,
    location_cost,
    location_key,
    make_finding,
    parse_report,
    render_lint_table,
    render_report,
    render_text,
    sort_findings,
    spec_for,
    worst_severity,
)
from repro.analysis.mutations import (
    MUTATIONS,
    run_mutation,
    verify_mutations,
)
from repro.cli import main
from repro.core.builder import MappingRuleBuilder
from repro.core.component import PageComponent
from repro.core.oracle import ScriptedOracle
from repro.core.repository import RuleRepository
from repro.core.rule import MappingRule
from repro.errors import LintGateError
from repro.service.adapt import AdaptationLog
from repro.service.metrics import default_registry
from repro.service.registry import ArtifactRegistry, CanaryController
from repro.service.router import ClusterRouter
from repro.sites import generate_news_site

SRC = Path(__file__).resolve().parent.parent / "src" / "repro" / "analysis"


def _rule(name: str, *locations: str) -> MappingRule:
    return MappingRule(PageComponent(name), tuple(locations))


def _repository(*rules: MappingRule, cluster: str = "c") -> RuleRepository:
    repository = RuleRepository()
    for rule in rules:
        repository.record(cluster, rule)
    return repository


#: A label anchor on the *following* text: the scan's register holds
#: only the preceding label, so this location stays automaton-ineligible.
_FOLLOWING_ANCHOR = (
    'BODY//SPAN/text()[normalize-space(following::text()'
    '[normalize-space(.) != ""][1]) = "By:"]'
)


@pytest.fixture(scope="module")
def news():
    """One real induced family: repository + fitted router.

    Every induced location rides the automaton, so the repository also
    records one rule with an ineligible location: the RW301 info the
    CLI and stats-passthrough tests below count on.
    """
    pages = generate_news_site(12, seed=4).pages_with_hint("news-articles")
    repository = RuleRepository()
    report = MappingRuleBuilder(
        pages[:8], ScriptedOracle(), repository=repository,
        cluster_name="news-articles", seed=1,
    ).build_all(["headline", "byline", "date"])
    assert report.failed_components == []
    repository.record("news-articles", _rule("teaser", _FOLLOWING_ANCHOR))
    router = ClusterRouter.fit({"news-articles": pages[:8]}, threshold=0.8)
    return repository, router


# --------------------------------------------------------------------- #
# Catalogue (the METRIC_SPECS pattern: one declaration, no drift)
# --------------------------------------------------------------------- #


class TestCatalogue:
    def test_codes_unique_and_severities_declared(self):
        codes = [spec.code for spec in LINT_SPECS]
        assert len(codes) == len(set(codes))
        for spec in LINT_SPECS:
            assert spec.severity in SEVERITIES
            assert spec.title and spec.hint

    def test_every_emitted_code_is_declared_and_vice_versa(self):
        """Analyzer sources and the catalogue agree on the code set."""
        emitted = set()
        for path in sorted(SRC.glob("*.py")):
            if path.name == "findings.py":
                continue  # the catalogue itself
            emitted |= set(re.findall(r"\"(RW\d{3})\"", path.read_text()))
        declared = {spec.code for spec in LINT_SPECS}
        assert emitted == declared

    def test_spec_for_unknown_code_raises(self):
        assert spec_for("RW101").severity == "error"
        with pytest.raises(KeyError):
            spec_for("RW999")

    def test_make_finding_resolves_severity_and_hint(self):
        finding = make_finding("RW201", "m", rule="r", location="l")
        spec = spec_for("RW201")
        assert finding.severity == spec.severity
        assert finding.hint == spec.hint

    def test_make_finding_refuses_undeclared_codes(self):
        with pytest.raises(KeyError):
            make_finding("RW999", "no such code")


# --------------------------------------------------------------------- #
# Finding model and report round trips
# --------------------------------------------------------------------- #


class TestFindingModel:
    FINDING = Finding(
        code="RW202", severity="warning", message="dup", target="t",
        cluster="c", rule="r", location="l", hint="h",
    )

    def test_dict_round_trip(self):
        assert Finding.from_dict(self.FINDING.to_dict()) == self.FINDING

    def test_from_dict_refuses_unknown_fields(self):
        payload = self.FINDING.to_dict()
        payload["extra"] = 1
        with pytest.raises(ValueError):
            Finding.from_dict(payload)

    def test_sort_is_severity_first(self):
        info = make_finding("RW301", "i")
        error = make_finding("RW101", "e")
        warning = make_finding("RW201", "w")
        ordered = sort_findings([info, warning, error])
        assert [f.severity for f in ordered] == [
            "error", "warning", "info",
        ]

    def test_worst_severity(self):
        assert worst_severity([]) is None
        assert worst_severity(
            [make_finding("RW301", "i"), make_finding("RW101", "e")]
        ) == "error"

    def test_gate_filters_below_threshold(self):
        findings = [make_finding("RW301", "i"), make_finding("RW201", "w")]
        assert [f.code for f in gate_findings(findings)] == ["RW201"]
        assert len(gate_findings(findings, "info")) == 2
        assert gate_findings(findings, "error") == []
        with pytest.raises(ValueError):
            gate_findings(findings, "fatal")

    def test_render_text_one_line_per_finding(self):
        text = render_text([self.FINDING, make_finding("RW101", "bad")])
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("RW101 [error]")
        assert "fix:" in lines[0]

    def test_report_round_trip_and_clean_flag(self):
        report = json.loads(render_report([self.FINDING], gate="warning"))
        assert report["clean"] is False
        assert report["counts"]["warning"] == 1
        assert parse_report(render_report([self.FINDING])) == [self.FINDING]
        clean = json.loads(render_report([], gate="warning"))
        assert clean["clean"] is True

    def test_parse_report_rejects_malformed_documents(self):
        with pytest.raises(ValueError):
            parse_report("not json")
        with pytest.raises(ValueError):
            parse_report('{"no": "findings key"}')

    def test_lint_table_documents_every_code(self):
        table = render_lint_table()
        for spec in LINT_SPECS:
            assert spec.code in table


# --------------------------------------------------------------------- #
# Per-rule defect detection
# --------------------------------------------------------------------- #


class TestAnalyzeRule:
    @pytest.mark.parametrize("location", [
        "BODY[1]/DIV[1]/TD[0]",
        "BODY[1]/UL[1]/LI[position() < 1]",
        "BODY[1]/TABLE[1]/TR[position() = 1.5]",
    ])
    def test_rw101_unsatisfiable_position(self, location):
        findings = analyze_rule(_rule("x", location))
        assert "RW101" in {f.code for f in findings}

    @pytest.mark.parametrize("location", [
        "BODY[1]/P[1]/text()[1]/SPAN[1]",
        "BODY[1]/P[1]/comment()[1]/text()",
    ])
    def test_rw102_step_after_leaf_node_test(self, location):
        findings = analyze_rule(_rule("x", location))
        assert "RW102" in {f.code for f in findings}

    def test_rw201_shadowed_alternative(self):
        rule = _rule(
            "x", "BODY[1]/DIV[1]/TD[2]",
            "BODY[1]/DIV[1]/TD[position() = 2]",
        )
        (finding,) = [
            f for f in analyze_rule(rule) if f.code == "RW201"
        ]
        assert finding.severity == "warning"
        assert finding.location == "BODY[1]/DIV[1]/TD[position() = 2]"

    def test_distinct_alternative_is_not_shadowed(self):
        rule = _rule(
            "x", "BODY[1]/DIV[1]/TD[2]", "BODY[1]/DIV[1]/TD[3]",
        )
        assert [f for f in analyze_rule(rule) if f.code == "RW201"] == []

    def test_rw301_carries_the_automaton_reason(self):
        findings = analyze_rule(_rule("x", "BODY[1]/descendant::SPAN[1]"))
        (finding,) = [f for f in findings if f.code == "RW301"]
        assert finding.severity == "info"
        assert "descendant" in finding.message

    def test_clean_rule_has_no_findings(self):
        assert analyze_rule(
            _rule("x", "BODY[1]/DIV[2]/TABLE[1]/TR/TD[1]")
        ) == []


class TestLocationHelpers:
    def test_location_key_normalizes_position_spellings(self):
        assert location_key("BODY[1]/TD[2]") == location_key(
            "BODY[1]/TD[position() = 2]"
        )
        assert location_key("BODY[1]/TD[2]") != location_key(
            "BODY[1]/TD[3]"
        )

    def test_descendant_steps_cost_more_than_child_steps(self):
        assert location_cost("BODY[1]//SPAN") > location_cost(
            "BODY[1]/SPAN"
        )

    def test_filter_paths_key_on_the_whole_expression(self):
        assert location_key("(BODY[1]//DIV)[2]") == location_key(
            "(BODY[1]//DIV)[2]"
        )
        assert location_key("(BODY[1]//DIV)[2]") != location_key(
            "(BODY[1]//DIV)[3]"
        )
        assert location_cost("(BODY[1]//DIV)[2]") > 0

    def test_non_child_axes_and_extra_predicates_cost_more(self):
        base = location_cost("BODY[1]/DIV[1]")
        assert location_cost("BODY[1]/DIV[1]/parent::BODY") > base
        assert location_cost("BODY[1]/DIV[1][2]") > base

    def test_non_path_expressions_fall_back_to_opaque_keys(self):
        assert location_key("count(BODY[1]/DIV)") == (
            "expr", "count(BODY[1]/DIV)"
        )
        assert location_cost("count(BODY[1]/DIV)") > 0
        findings = analyze_rule(_rule("x", "count(BODY[1]/DIV)"))
        assert {f.code for f in findings} <= {"RW301"}

    def test_rw102_attribute_axis_followed_by_a_step(self):
        findings = analyze_rule(_rule("x", "BODY[1]/DIV[1]/@id/SPAN[1]"))
        assert "RW102" in {f.code for f in findings}

    def test_filter_path_rules_analyze_without_crashing(self):
        findings = analyze_rule(_rule("x", "(BODY[1]//DIV)[2]"))
        # Ineligible for the automaton, but not a defect.
        assert {f.code for f in findings} <= {"RW301"}


# --------------------------------------------------------------------- #
# Repository- and router-level defects
# --------------------------------------------------------------------- #


class TestAnalyzeRepository:
    def test_rw202_duplicate_primary_location_across_rules(self):
        repository = _repository(
            _rule("a", "BODY[1]/DIV[1]"),
            _rule("b", "BODY[1]/DIV[1]"),
        )
        (finding,) = [
            f for f in analyze_repository(repository)
            if f.code == "RW202"
        ]
        assert finding.cluster == "c"
        assert "a" in finding.message and "b" in finding.message

    def test_rw302_scan_cost_outlier(self):
        cheap = [
            _rule(name, "BODY[1]/DIV[%d]" % i)
            for i, name in enumerate(["a", "b", "c", "d"], start=1)
        ]
        expensive = _rule("e", "BODY[1]//DIV//TABLE//TR")
        repository = _repository(*cheap, expensive)
        (finding,) = [
            f for f in analyze_repository(repository)
            if f.code == "RW302"
        ]
        assert finding.rule == "e"

    def test_small_populations_never_flag_outliers(self):
        repository = _repository(
            _rule("a", "BODY[1]/DIV[1]"),
            _rule("b", "BODY[1]//DIV//TABLE//TR"),
        )
        assert [
            f for f in analyze_repository(repository)
            if f.code == "RW302"
        ] == []

    def test_induced_family_is_clean_at_the_default_gate(self, news):
        repository, router = news
        findings = analyze_artifact(repository, router)
        assert gate_findings(findings, "warning") == []


class TestAnalyzeRouter:
    def test_clean_router_has_no_findings(self, news):
        _, router = news
        assert analyze_router(router) == []

    def test_rw401_signature_collision(self, news):
        _, router = news
        profile = router.profiles[0]
        twin = replace(profile, name=profile.name + "-twin")
        collided = ClusterRouter(
            [profile, twin], threshold=router.threshold
        )
        codes = [f.code for f in analyze_router(collided)]
        assert codes and set(codes) == {"RW401"}


# --------------------------------------------------------------------- #
# Registry and filesystem targets
# --------------------------------------------------------------------- #


class TestRegistryAndPathTargets:
    def test_rule_set_file_and_directory(self, news, tmp_path):
        repository, _ = news
        path = tmp_path / "rules.json"
        repository.save(path)
        from_file = analyze_path(path)
        from_dir = analyze_path(tmp_path)
        assert gate_findings(from_file, "warning") == []
        assert [f.to_dict() for f in from_dir] == [
            f.to_dict() for f in from_file
        ]

    def test_artifact_payload_file_includes_the_router(self, news, tmp_path):
        repository, router = news
        registry = ArtifactRegistry(tmp_path / "reg")
        manifest = registry.publish(repository, router, source="test")
        artifact = (
            tmp_path / "reg" / "versions" / manifest.version
            / "artifact.json"
        )
        findings = analyze_path(artifact)
        assert gate_findings(findings, "warning") == []
        assert {f.code for f in findings} <= {"RW301", "RW302"}

    def test_unparseable_file_is_a_rw501_finding(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{truncated", encoding="utf-8")
        (finding,) = analyze_path(bad)
        assert finding.code == "RW501"
        assert finding.severity == "error"

    def test_registry_versions_and_corruption(self, news, tmp_path):
        repository, router = news
        registry = ArtifactRegistry(tmp_path / "reg")
        manifest = registry.publish(repository, router, source="test")
        clean = analyze_registry(registry)
        assert gate_findings(clean, "warning") == []
        assert all(f.target == manifest.version for f in clean)
        artifact = (
            tmp_path / "reg" / "versions" / manifest.version
            / "artifact.json"
        )
        artifact.write_bytes(artifact.read_bytes()[:-1] + b" ")
        findings = analyze_registry(registry, [manifest.version])
        assert "RW501" in {f.code for f in findings}


# --------------------------------------------------------------------- #
# Mutation harness: every defect class fires its own code
# --------------------------------------------------------------------- #


class TestMutations:
    def test_every_defect_class_fires_its_code(self, news, tmp_path):
        repository, router = news
        outcomes = verify_mutations(repository, router, tmp_path)
        assert len(outcomes) == len(MUTATIONS)
        for outcome in outcomes:
            assert outcome.ok, (
                outcome.mutation.name, outcome.missing, outcome.spurious
            )
            assert outcome.mutation.code in {
                f.code for f in outcome.introduced
            }

    def test_unknown_mutation_name_raises(self, news):
        repository, router = news
        with pytest.raises(KeyError):
            run_mutation("no-such-defect", repository, router)

    def test_corrupted_artifact_needs_a_scratch_registry(self, news):
        repository, router = news
        with pytest.raises(ValueError, match="registry_root"):
            run_mutation("corrupted-artifact", repository, router)

    def test_no_eligible_rule_is_a_lookup_error(self):
        ineligible = _repository(_rule("x", "BODY[1]/descendant::SPAN"))
        with pytest.raises(LookupError):
            run_mutation("unsatisfiable-predicate", ineligible, None)

    def test_injectors_skip_rules_without_the_needed_shape(self):
        # The first eligible rule fits neither injector; both fall
        # through to the one that does.
        repository = _repository(
            _rule("plain", "BODY[1]/DIV"),
            _rule("positioned", "BODY[1]/DIV[2]"),
            _rule("leafy", "BODY[1]/P[1]/text()[1]"),
        )
        shadowed = run_mutation("shadowed-alternative", repository, None)
        assert shadowed.ok
        void = run_mutation("void-step", repository, None)
        assert void.ok


# --------------------------------------------------------------------- #
# Publish-time gates
# --------------------------------------------------------------------- #


class TestPublishGate:
    def _defective(self) -> RuleRepository:
        return _repository(_rule("x", "BODY[1]/DIV[0]"))

    def test_error_findings_refuse_publish(self, tmp_path):
        registry = ArtifactRegistry(tmp_path / "reg")
        with pytest.raises(LintGateError) as excinfo:
            registry.publish(self._defective(), None, source="test")
        assert {f.code for f in excinfo.value.findings} == {"RW101"}
        assert registry.versions() == []

    def test_allow_findings_overrides_the_gate(self, tmp_path):
        registry = ArtifactRegistry(tmp_path / "reg")
        manifest = registry.publish(
            self._defective(), None, source="test", allow_findings=True
        )
        assert registry.exists(manifest.version)

    def test_lint_false_skips_the_gate(self, tmp_path):
        registry = ArtifactRegistry(tmp_path / "reg")
        manifest = registry.publish(
            self._defective(), None, source="test", lint=False
        )
        assert registry.exists(manifest.version)

    def test_gate_counts_findings_in_the_metric(self, tmp_path):
        counter = default_registry().from_spec("repro_lint_findings_total")
        before = counter.labels("RW101").value
        with pytest.raises(LintGateError):
            ArtifactRegistry(tmp_path / "reg").publish(
                self._defective(), None, source="test"
            )
        assert counter.labels("RW101").value == before + 1

    def test_canary_stage_refusal_is_logged_not_staged(self, news, tmp_path):
        _, router = news
        log = AdaptationLog()
        controller = CanaryController(
            router, self._defective(),
            registry=ArtifactRegistry(tmp_path / "reg"), log=log,
        )

        class _Trigger:
            kind = "unroutable"
            key = "?"

            def to_dict(self):
                return {"event": "drift"}

        class _Refit:
            reservoir_pages = 8
            unroutable_pages = 8

        controller.stage(router, _Trigger(), _Refit())
        assert controller.lint_refusals == 1
        assert not controller.staged
        assert controller.status()["lint_refusals"] == 1
        (event,) = [
            e for e in log.events if e["event"] == "lint_refusal"
        ]
        assert event["codes"] == ["RW101"]


# --------------------------------------------------------------------- #
# Compiler-stats passthrough
# --------------------------------------------------------------------- #


class TestStatsPassthrough:
    def test_registry_show_stats_surfaces_lint_findings(
        self, news, tmp_path, capsys
    ):
        repository, router = news
        registry = ArtifactRegistry(tmp_path / "reg")
        manifest = registry.publish(repository, router, source="test")
        assert main([
            "registry", "show", str(tmp_path / "reg"),
            manifest.version, "--stats",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        stats = payload["compiler_stats"]["news-articles"]
        # The induced family carries RW301 eligibility infos; compile
        # attaches the per-cluster count to its stats.
        assert stats["lint_findings"] >= 1


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


class TestLintCli:
    @pytest.fixture(scope="class")
    def rules_file(self, news, tmp_path_factory):
        repository, _ = news
        path = tmp_path_factory.mktemp("lint") / "rules.json"
        repository.save(path)
        return path

    def test_clean_at_default_gate(self, rules_file, capsys):
        assert main(["lint", str(rules_file)]) == 0
        assert "finding(s)" in capsys.readouterr().err

    def test_info_gate_fails_on_info_findings(self, rules_file):
        # The induced family carries RW301 eligibility infos.
        assert main(["lint", str(rules_file), "--severity", "info"]) == 1

    def test_json_report_parses(self, rules_file, capsys):
        assert main(["lint", str(rules_file), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["clean"] is True
        assert parse_report(json.dumps(report)) != []

    def test_registry_target(self, news, tmp_path, capsys):
        repository, router = news
        registry = ArtifactRegistry(tmp_path / "reg")
        manifest = registry.publish(repository, router, source="test")
        root = str(tmp_path / "reg")
        assert main(["lint", "--registry", root]) == 0
        assert main([
            "lint", "--registry", root, "--version", manifest.version,
        ]) == 0
        assert main([
            "lint", "--registry", root, "--version", "v0000000000",
        ]) == 2
        capsys.readouterr()

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        assert main(["lint"]) == 2
        assert main(["lint", str(tmp_path / "missing.json")]) == 2
        capsys.readouterr()

    def test_batch_publish_refusal_renders_findings(self, tmp_path, capsys):
        # A defective artifact hitting the publish gate through the
        # batch entry point is a clean refusal, not a traceback: the
        # findings print, the override is named, and the exit is 2.
        repository = _repository(_rule("x", "BODY[1]/DIV[0]"))
        rules = tmp_path / "rules.json"
        repository.save(rules)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "c-0000.html").write_text(
            "<body><div>x</div></body>", encoding="utf-8"
        )
        argv = [
            "batch", str(corpus), "--repository", str(rules),
            "--route", "hint", "--jsonl", str(tmp_path / "out.jsonl"),
            "--registry", str(tmp_path / "reg"),
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "RW101" in err and "--allow-findings" in err
        assert main([*argv, "--allow-findings"]) == 0
        capsys.readouterr()
