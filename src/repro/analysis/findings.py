"""The analyzer's finding model and declared error-code catalogue.

Every defect the rule-set static analyzer (:mod:`repro.analysis`) can
report is declared **once**, here, in :data:`LINT_SPECS` — the same
single-source-of-truth pattern the metrics layer uses for its series
catalogue (:data:`repro.service.metrics.METRIC_SPECS`).  Analyzer code
cannot emit an undeclared code: every :class:`Finding` is built
through :func:`make_finding`, which resolves the code's severity and
fix hint from the catalogue and raises ``KeyError`` for anything not
declared.  ``docs/lint.md`` is generated from the same catalogue
(:func:`render_lint_table`) with a byte-identity sync test, so the
operator reference can never drift from what the analyzer ships.

Severity semantics:

* ``error`` — the artifact is defective: it will extract wrong data,
  route ambiguously, or fail integrity checks.  Error findings refuse
  ``registry publish`` unless ``--allow-findings`` is passed.
* ``warning`` — almost certainly an induction defect (dead rule parts,
  colliding rules) but the artifact still serves; fails ``lint`` at
  the default gate without blocking deploys.
* ``info`` — performance or eligibility diagnostics; never gates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Finding",
    "LINT_SPECS",
    "LintSpec",
    "SEVERITIES",
    "gate_findings",
    "make_finding",
    "parse_report",
    "render_report",
    "render_lint_table",
    "render_text",
    "sort_findings",
    "spec_for",
    "worst_severity",
]

#: Severity levels, mildest first (the index is the gate ordering).
SEVERITIES: Tuple[str, ...] = ("info", "warning", "error")

_SEVERITY_RANK: Dict[str, int] = {
    name: rank for rank, name in enumerate(SEVERITIES)
}


@dataclass(frozen=True)
class LintSpec:
    """One declared analyzer code: identity, severity and meaning.

    Attributes:
        code: stable ``RW###`` identifier (never renumbered; retired
            codes are removed, not reused).
        severity: ``error`` / ``warning`` / ``info`` — fixed per code.
        title: short defect name (the docs table's "meaning" column
            lead-in; findings carry a specific ``message`` besides).
        hint: the one-line fix hint every finding of this code carries.
    """

    code: str
    severity: str
    title: str
    hint: str


LINT_SPECS: Tuple[LintSpec, ...] = (
    LintSpec(
        "RW101", "error",
        "unsatisfiable position predicate",
        "drop the predicate or use a 1-based position the step can "
        "actually take (positions are integers >= 1)",
    ),
    LintSpec(
        "RW102", "error",
        "provably-void step",
        "remove the steps after the text()/comment() step; text and "
        "comment nodes have no children or attributes to select",
    ),
    LintSpec(
        "RW201", "warning",
        "dead/shadowed alternative",
        "delete the alternative: an earlier location of the same rule "
        "selects exactly the same nodes, so it can never contribute",
    ),
    LintSpec(
        "RW202", "warning",
        "duplicate location across rules",
        "re-induce one of the rules: two components mapping the same "
        "location extract the same nodes under two names",
    ),
    LintSpec(
        "RW301", "info",
        "automaton-ineligible location",
        "rewrite as a relative path of child steps and bare // steps, "
        "each child step with at most one predicate: positional, or the "
        "preceding-label anchor (following:: and contains() anchors "
        "cannot ride the single-pass scan)",
    ),
    LintSpec(
        "RW302", "info",
        "estimated scan-cost outlier",
        "shorten the path or replace descendant-axis scans with "
        "explicit child steps; this location dominates the cluster's "
        "per-page evaluation cost",
    ),
    LintSpec(
        "RW401", "error",
        "router signature collision / ambiguous cluster margin",
        "refit the router with more distinctive exemplars or merge the "
        "clusters; indistinguishable profiles route traffic by tie-break",
    ),
    LintSpec(
        "RW501", "error",
        "registry artifact integrity drift",
        "republish the artifact or roll back to a healthy version; the "
        "stored bytes no longer match their recorded content hash",
    ),
)

_SPEC_BY_CODE: Dict[str, LintSpec] = {spec.code: spec for spec in LINT_SPECS}


def spec_for(code: str) -> LintSpec:
    """The declared spec of ``code``.

    Raises:
        KeyError: when ``code`` is not declared in :data:`LINT_SPECS` —
            an undeclared finding cannot exist.
    """
    spec = _SPEC_BY_CODE.get(code)
    if spec is None:
        raise KeyError(
            f"analyzer code {code!r} is not declared "
            "(see LINT_SPECS in repro.analysis.findings)"
        )
    return spec


@dataclass(frozen=True)
class Finding:
    """One analyzer finding, fully self-describing.

    Attributes:
        code: declared ``RW###`` code.
        severity: the code's declared severity (denormalised so a
            parsed report needs no catalogue lookup).
        message: what is wrong, specifically, at this site.
        target: the artifact examined (file path, registry version id,
            or ``""`` for in-memory analysis).
        cluster: cluster name the finding belongs to (``""`` for
            router/registry-level findings).
        rule: component name of the offending rule (``""`` when the
            finding is not rule-scoped).
        location: the offending XPath location, profile name, or
            registry file (``""`` when not applicable).
        hint: the code's one-line fix hint.
    """

    code: str
    severity: str
    message: str
    target: str = ""
    cluster: str = ""
    rule: str = ""
    location: str = ""
    hint: str = ""

    def to_dict(self) -> dict:
        """The JSON object form (machine output; round-trips exactly)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "Finding":
        """Rebuild a finding from :meth:`to_dict` output."""
        names = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - names)
        if unknown:
            raise ValueError(f"unknown finding field(s): {', '.join(unknown)}")
        return cls(**data)

    @property
    def scope(self) -> str:
        """The human rendering's ``target:cluster/rule`` prefix."""
        parts = [part for part in (self.cluster, self.rule) if part]
        scope = "/".join(parts)
        if self.target:
            scope = f"{self.target}:{scope}" if scope else self.target
        return scope


def make_finding(
    code: str,
    message: str,
    target: str = "",
    cluster: str = "",
    rule: str = "",
    location: str = "",
) -> Finding:
    """Build a finding for a declared code (severity/hint from the spec)."""
    spec = spec_for(code)
    return Finding(
        code=code,
        severity=spec.severity,
        message=message,
        target=target,
        cluster=cluster,
        rule=rule,
        location=location,
        hint=spec.hint,
    )


# --------------------------------------------------------------------- #
# Ordering, gating
# --------------------------------------------------------------------- #


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    """Stable severity-first ordering (then code, then scope)."""
    return sorted(
        findings,
        key=lambda f: (
            -_SEVERITY_RANK.get(f.severity, 0),
            f.code,
            f.target,
            f.cluster,
            f.rule,
            f.location,
        ),
    )


def worst_severity(findings: Iterable[Finding]) -> Optional[str]:
    """The most severe level present, or ``None`` for no findings."""
    worst = None
    for finding in findings:
        if worst is None or (
            _SEVERITY_RANK[finding.severity] > _SEVERITY_RANK[worst]
        ):
            worst = finding.severity
    return worst


def gate_findings(
    findings: Iterable[Finding], gate: str = "warning"
) -> List[Finding]:
    """The findings at or above ``gate`` severity (the lint exit gate).

    Raises:
        ValueError: for a gate level outside :data:`SEVERITIES`.
    """
    if gate not in _SEVERITY_RANK:
        raise ValueError(
            f"unknown severity gate {gate!r}; pick one of "
            f"{', '.join(SEVERITIES)}"
        )
    floor = _SEVERITY_RANK[gate]
    return [f for f in findings if _SEVERITY_RANK[f.severity] >= floor]


# --------------------------------------------------------------------- #
# Rendering: human text, machine JSON, docs table
# --------------------------------------------------------------------- #


def render_text(findings: Iterable[Finding]) -> str:
    """Human output: one ``CODE [severity] scope — message`` line each.

    Findings come out severity-first; the fix hint rides each line so
    an operator reading a deploy refusal knows the next move without
    opening ``docs/lint.md``.
    """
    lines = []
    for finding in sort_findings(findings):
        scope = finding.scope
        where = f" {scope}" if scope else ""
        at = f" @ {finding.location}" if finding.location else ""
        lines.append(
            f"{finding.code} [{finding.severity}]{where}{at}: "
            f"{finding.message} (fix: {finding.hint})"
        )
    return "\n".join(lines)


def render_report(
    findings: Iterable[Finding], gate: str = "warning"
) -> str:
    """Machine output: one JSON document (parse with :func:`parse_report`)."""
    ordered = sort_findings(findings)
    counts = {severity: 0 for severity in SEVERITIES}
    for finding in ordered:
        counts[finding.severity] += 1
    return json.dumps(
        {
            "findings": [finding.to_dict() for finding in ordered],
            "counts": counts,
            "gate": gate,
            "clean": not gate_findings(ordered, gate),
        },
        indent=2,
        sort_keys=True,
    )


def parse_report(text: str) -> List[Finding]:
    """The findings inside a :func:`render_report` document.

    Raises:
        ValueError: malformed document or unknown finding fields.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not a lint report: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(
        data.get("findings"), list
    ):
        raise ValueError("not a lint report: missing 'findings' list")
    return [Finding.from_dict(entry) for entry in data["findings"]]


def render_lint_table() -> str:
    """The ``docs/lint.md`` reference table, straight from the catalogue.

    Same contract as :func:`repro.service.metrics.render_metrics_table`:
    the docs file embeds this text verbatim between markers and a test
    regenerates it on every run, so the error-code reference can never
    drift from :data:`LINT_SPECS`.
    """
    lines = [
        "| Code | Severity | Meaning | Fix hint |",
        "| --- | --- | --- | --- |",
    ]
    for spec in LINT_SPECS:
        lines.append(
            f"| `{spec.code}` | {spec.severity} | {spec.title} "
            f"| {spec.hint} |"
        )
    return "\n".join(lines) + "\n"


# `field` is imported for dataclass consumers of this module's model;
# keep the namespace stable for them.
_ = field
