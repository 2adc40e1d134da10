"""Rule compilation: from a repository cluster to a serving artifact.

An :class:`~repro.extraction.extractor.ExtractionProcessor` re-walks
each rule's location path independently on every page.  A
:class:`CompiledWrapper` instead compiles the cluster once into a
serving artifact that reads a page in one pass:

* **Pre-parsed ASTs** — every location is compiled to an
  :class:`~repro.xpath.engine.XPath` once, at compile time.
* **The single-pass automaton** — every eligible location, primaries
  *and* alternatives across every rule, compiles into one
  :class:`~repro.service.automaton.ExtractionAutomaton`, so a page is
  scanned once regardless of rule count.  That covers the paper's
  positional locations and its contextual label anchors (``BODY//TD/
  text()[normalize-space(preceding::text()[...][1]) = "Label:"]``).

Anything else (absolute paths, filter expressions, other axes,
``following::`` or ``contains()`` anchors) evaluates lazily through
:meth:`XPath.select`.

A wrapper yields the rules' raw texts; post-processing is not part of
the artifact.  The runtime applies the resolved chains
(:meth:`repro.extraction.postprocess.PostProcessor.resolve`) once per
page in its outcome step, whatever the executor.

Output is byte-identical to the sequential processor: value grouping
goes through :meth:`MappingRule.match_from_nodes` and failure
detection through :func:`~repro.extraction.extractor.classify_failure`
— the same code paths the interactive extractor uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.repository import RuleRepository
from repro.core.rule import MappingRule
from repro.errors import ExtractionError
from repro.extraction.extractor import (
    ExtractedPage,
    ExtractionFailure,
    ExtractionResult,
    classify_failure,
)
from repro.service.automaton import ExtractionAutomaton, automaton_steps
from repro.sites.page import WebPage
from repro.xpath.ast import Step
from repro.xpath.engine import XPath, compile_xpath


# --------------------------------------------------------------------- #
# Compiled artifacts
# --------------------------------------------------------------------- #


@dataclass
class CompiledRule:
    """One rule, ready to serve.

    Attributes:
        rule: the underlying mapping rule.
        locations: every location pre-compiled, in rule order.
    """

    rule: MappingRule
    locations: tuple[XPath, ...]
    #: Automaton slot per location (parallel to ``locations``); ``None``
    #: where a location is ineligible and evaluates elsewhere.
    slots: tuple[Optional[int], ...] = ()

    @property
    def name(self) -> str:
        """The compiled rule's component name."""
        return self.rule.name


@dataclass(frozen=True)
class CompilerStats:
    """Automaton sharing accounting (compile time, per wrapper)."""

    rules: int
    automaton_slots: int = 0        # locations riding the one-pass scan
    automaton_states: int = 0       # distinct automaton states
    automaton_transitions: int = 0  # dispatch-table entries plus // moves
    automaton_location_steps: int = 0  # steps across automaton locations
    #: Static-analyzer findings for this cluster's rule-set, passed
    #: through by deploy paths that lint what they compile (registry
    #: compiles); 0 for direct in-memory builds that skip analysis.
    lint_findings: int = 0

    @property
    def automaton_steps_saved(self) -> int:
        """Steps per page the automaton dedupes across its locations.

        Walked one by one, every location would evaluate each of its
        steps; the automaton evaluates each distinct transition once,
        so the saving is total location steps minus distinct
        transitions.
        """
        return self.automaton_location_steps - self.automaton_transitions

    def as_dict(self) -> dict:
        """A JSON-ready view (``registry show --stats``, progress)."""
        return {
            "rules": self.rules,
            "automaton_slots": self.automaton_slots,
            "automaton_states": self.automaton_states,
            "automaton_transitions": self.automaton_transitions,
            "automaton_location_steps": self.automaton_location_steps,
            "automaton_steps_saved": self.automaton_steps_saved,
            "lint_findings": self.lint_findings,
        }


class CompiledWrapper:
    """A cluster's rules compiled for high-throughput extraction.

    Obtain instances via :func:`compile_wrapper` or
    :meth:`RuleRepository.compile_cluster`.  Thread-safe after
    construction: extraction mutates no wrapper state.
    """

    def __init__(
        self,
        cluster: str,
        rules: list[CompiledRule],
        automaton: ExtractionAutomaton,
        stats: CompilerStats,
        version: Optional[str] = None,
    ) -> None:
        self.cluster = cluster
        self.rules = rules
        #: The single-pass automaton over every eligible location.
        self.automaton = automaton
        self.stats = stats
        #: Registry version id of the artifact this wrapper was
        #: compiled from (``None`` for direct in-memory builds).
        self.version = version

    # -- hot path -------------------------------------------------------- #

    def extract_page(
        self,
        page: WebPage,
        failures: Optional[list[ExtractionFailure]] = None,
    ) -> ExtractedPage:
        """Apply every rule to one page (same contract as the processor)."""
        context = page.root_element
        hits = self.automaton.scan(context)
        extracted = ExtractedPage(url=page.url)
        for crule in self.rules:
            rule = crule.rule
            slot = crule.slots[0]
            if slot is not None:
                nodes = hits[slot]
            else:
                nodes = crule.locations[0].select(context)
            if nodes:
                match = rule.match_from_nodes(nodes, rule.primary_location)
            else:
                match = None
                for xpath, alt_slot in zip(
                    crule.locations[1:], crule.slots[1:]
                ):
                    nodes = (
                        hits[alt_slot] if alt_slot is not None
                        else xpath.select(context)
                    )
                    if nodes:
                        match = rule.match_from_nodes(nodes, xpath.source)
                        break
                if match is None:
                    match = rule.match_from_nodes([], None)
            if failures is not None:
                reason = classify_failure(rule, len(match.values))
                if reason is not None:
                    failures.append(
                        ExtractionFailure(page.url, rule.name, reason)
                    )
            extracted.values[rule.name] = [value.text for value in match.values]
            extracted.raw_values[rule.name] = list(match.values)
        return extracted

    def extract(self, pages: Iterable[WebPage]) -> ExtractionResult:
        """Batch façade mirroring :meth:`ExtractionProcessor.extract`."""
        result = ExtractionResult(cluster=self.cluster)
        for page in pages:
            result.pages.append(self.extract_page(page, result.failures))
        return result


# --------------------------------------------------------------------- #
# Compilation
# --------------------------------------------------------------------- #


def compile_wrapper(
    repository: RuleRepository,
    cluster: str,
    version: Optional[str] = None,
    lint_findings: int = 0,
) -> CompiledWrapper:
    """Compile ``cluster``'s recorded rules into a serving wrapper.

    Eligible locations compile into the single-pass
    :class:`ExtractionAutomaton`; the others evaluate through
    :meth:`XPath.select` when the page reaches them.

    Args:
        version: registry version id to stamp on the wrapper when the
            repository was loaded from a versioned artifact.
        lint_findings: static-analyzer finding count for this cluster,
            recorded on :attr:`CompilerStats.lint_findings` by deploy
            paths that lint what they compile (the registry).

    Raises:
        ExtractionError: when the cluster has no recorded rules (same
            contract as :class:`ExtractionProcessor`).
    """
    rules = (
        repository.rules(cluster) if cluster in repository.clusters() else []
    )
    if not rules:
        raise ExtractionError(f"no rules recorded for cluster {cluster!r}")

    compiled: list[CompiledRule] = []
    slot_locations: list[tuple[int, tuple[Step, ...]]] = []
    for rule in rules:
        locations = tuple(compile_xpath(loc) for loc in rule.locations)
        slots: list[Optional[int]] = []
        for xpath in locations:
            auto_steps = automaton_steps(xpath)
            if auto_steps is None:
                slots.append(None)
            else:
                slots.append(len(slot_locations))
                slot_locations.append((len(slot_locations), auto_steps))
        compiled.append(
            CompiledRule(
                rule=rule,
                locations=locations,
                slots=tuple(slots),
            )
        )

    automaton = ExtractionAutomaton(slot_locations)
    auto_stats = automaton.stats
    stats = CompilerStats(
        rules=len(rules),
        automaton_slots=auto_stats.slots,
        automaton_states=auto_stats.states,
        automaton_transitions=auto_stats.transitions,
        automaton_location_steps=auto_stats.location_steps,
        lint_findings=lint_findings,
    )
    return CompiledWrapper(cluster, compiled, automaton, stats, version=version)
