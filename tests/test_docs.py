"""Documentation gates: links resolve, doctests run, metrics stay in sync."""

import doctest
import importlib
import re
from pathlib import Path

import pytest

from repro.analysis import LINT_SPECS, render_lint_table
from repro.service import METRIC_SPECS, render_metrics_table

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DOCS = [
    ROOT / "README.md",
    ROOT / "ROADMAP.md",
    *sorted((ROOT / "docs").glob("*.md")),
]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#+\s+(.*)$", re.MULTILINE)


def _anchor(heading: str) -> str:
    """A GitHub-style anchor slug for a markdown heading."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\s-]", "", text)
    return text.replace(" ", "-")


def _anchors_of(path: Path) -> set:
    return {_anchor(h) for h in _HEADING.findall(path.read_text("utf-8"))}


class TestMarkdownLinks:
    @pytest.mark.parametrize("doc", DOCS, ids=lambda d: d.name)
    def test_relative_links_resolve(self, doc):
        broken = []
        for target in _LINK.findall(doc.read_text("utf-8")):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path, _, fragment = target.partition("#")
            if not path:
                continue  # same-document anchor, checked below
            resolved = (doc.parent / path).resolve()
            if ROOT not in resolved.parents and resolved != ROOT:
                continue  # GitHub-site-relative (the CI badge)
            if not resolved.exists():
                broken.append(target)
            elif fragment and resolved.suffix == ".md":
                if _anchor(fragment) not in _anchors_of(resolved):
                    broken.append(target)
        assert not broken, f"{doc.name}: broken links {broken}"

    @pytest.mark.parametrize("doc", DOCS, ids=lambda d: d.name)
    def test_same_document_anchors_resolve(self, doc):
        anchors = _anchors_of(doc)
        broken = [
            target
            for target in _LINK.findall(doc.read_text("utf-8"))
            if target.startswith("#") and _anchor(target[1:]) not in anchors
        ]
        assert not broken, f"{doc.name}: broken anchors {broken}"


class TestMetricsDocSync:
    def test_generated_table_matches_the_catalogue(self):
        # The table between the markers must be byte-identical to what
        # render_metrics_table() produces today — regenerate with the
        # command shown at the top of docs/metrics.md.
        text = (ROOT / "docs" / "metrics.md").read_text("utf-8")
        begin = "<!-- metrics-table:begin -->\n"
        end = "<!-- metrics-table:end -->"
        assert begin in text and end in text
        section = text.split(begin, 1)[1].split(end, 1)[0]
        assert section == render_metrics_table()

    def test_every_declared_series_is_documented(self):
        text = (ROOT / "docs" / "metrics.md").read_text("utf-8")
        missing = [
            spec.name for spec in METRIC_SPECS
            if f"`{spec.name}`" not in text
        ]
        assert not missing, f"undocumented series: {missing}"


class TestLintDocSync:
    def test_generated_table_matches_the_catalogue(self):
        # Same gate as the metrics table: the section between the
        # markers is byte-identical to render_lint_table() — the
        # regeneration command sits at the top of docs/lint.md.
        text = (ROOT / "docs" / "lint.md").read_text("utf-8")
        begin = "<!-- lint-table:begin -->\n"
        end = "<!-- lint-table:end -->"
        assert begin in text and end in text
        section = text.split(begin, 1)[1].split(end, 1)[0]
        assert section == render_lint_table()

    def test_every_declared_code_is_documented(self):
        text = (ROOT / "docs" / "lint.md").read_text("utf-8")
        missing = [
            spec.code for spec in LINT_SPECS
            if f"`{spec.code}`" not in text
        ]
        assert not missing, f"undocumented lint codes: {missing}"


#: Every package module with ``>>>`` examples, and the runbook.
DOCTESTED = [
    *sorted(
        path for path in (SRC / "repro").rglob("*.py")
        if ">>>" in path.read_text("utf-8")
    ),
    ROOT / "docs" / "operations.md",
]


def _module_name(path: Path) -> str:
    name = ".".join(path.relative_to(SRC).with_suffix("").parts)
    return name.removesuffix(".__init__")


@pytest.mark.parametrize(
    "path", DOCTESTED, ids=lambda p: str(p.relative_to(ROOT))
)
def test_examples_run_as_printed(path):
    # Examples are executable documentation: each one must print
    # exactly what it shows.  CI's docs job also runs the runbook
    # under `python -m doctest` directly.
    if path.suffix == ".md":
        results = doctest.testfile(str(path), module_relative=False)
        assert results.attempted > 0
    else:
        results = doctest.testmod(importlib.import_module(_module_name(path)))
    assert results.failed == 0


class TestOperationsRunbook:
    def test_runbook_covers_every_admission_status(self):
        text = (ROOT / "docs" / "operations.md").read_text("utf-8")
        for needle in ("429", "503", "Retry-After", "rate-limited",
                       "saturated"):
            assert needle in text
