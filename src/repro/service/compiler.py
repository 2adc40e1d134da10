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
  scanned once regardless of rule count.
* **The residual prefix trie** — relative primaries the automaton
  cannot take (descendant axes, value predicates) are merged into a
  step trie walked in the same ``extract_page`` call; applying a
  location path is associative over its steps, so evaluating a shared
  prefix once and continuing per branch is exact.  The common
  paper-style step (``child`` axis, optional positional predicate such
  as ``TR[2]``) is applied with direct child-list indexing while the
  running node-set is *disjoint* (no node an ancestor of another),
  where concatenating per-parent matches provably preserves document
  order and uniqueness; any other step falls back to the generic
  evaluator and turns the flag off.

Everything else (absolute paths, filter expressions, ineligible
alternatives) evaluates lazily through the generic engine.

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
from repro.dom.node import Comment, Element, Node, Text
from repro.errors import ExtractionError
from repro.extraction.extractor import (
    ExtractedPage,
    ExtractionFailure,
    ExtractionResult,
    classify_failure,
)
from repro.service.automaton import (
    ExtractionAutomaton,
    automaton_steps,
    child_step_eligible,
)
from repro.sites.page import WebPage
from repro.xpath.ast import LocationPath, NameTest, NodeTypeTest, Step
from repro.xpath.engine import XPath, compile_xpath
from repro.xpath.evaluator import Evaluator, XPathContext

_EVALUATOR = Evaluator()


# --------------------------------------------------------------------- #
# Prefix trie
# --------------------------------------------------------------------- #


class _TrieNode:
    """One factored location step; terminals are rule indices."""

    __slots__ = ("step", "children", "terminals", "fast")

    def __init__(self, step: Step, fast: bool) -> None:
        self.step = step
        self.children: dict[Step, "_TrieNode"] = {}
        self.terminals: list[int] = []
        self.fast = fast


# The trie's fast-step criterion and the automaton's are one and the
# same shape — a single definition keeps them provably in sync.
_fast_step_eligible = child_step_eligible


def _apply_fast_child_step(step: Step, parents: list) -> list:
    """Direct child-list indexing for the common paper-style step.

    ``parents`` must be document-ordered and disjoint (no ancestry
    between members): children of distinct nodes are then disjoint and
    their in-order concatenation is document order, so no sort/dedup
    pass is needed.
    """
    position: Optional[int] = None
    if step.predicates:
        value = step.predicates[0].value
        if value != int(value) or value < 1:
            return []
        position = int(value)
    test = step.node_test
    out: list = []
    for parent in parents:
        children = parent.children
        if not children:
            continue
        if isinstance(test, NameTest):
            if test.name == "*":
                matched = [c for c in children if isinstance(c, Element)]
            else:
                tag = test.name.upper()
                matched = [
                    c for c in children
                    if isinstance(c, Element) and c.tag == tag
                ]
        elif test.node_type == "node":
            matched = list(children)
        elif test.node_type == "text":
            matched = [c for c in children if isinstance(c, Text)]
        elif test.node_type == "comment":
            matched = [c for c in children if isinstance(c, Comment)]
        else:
            matched = []
        if position is None:
            out.extend(matched)
        elif len(matched) >= position:
            out.append(matched[position - 1])
    return out


# --------------------------------------------------------------------- #
# Compiled artifacts
# --------------------------------------------------------------------- #


@dataclass
class CompiledRule:
    """One rule, ready to serve.

    Attributes:
        rule: the underlying mapping rule.
        index: position within the wrapper (trie terminal key).
        locations: every location pre-compiled, in rule order.
        trie_primary: whether the primary location is evaluated through
            the wrapper's residual prefix trie (alternatives always
            evaluate lazily — they only run when the primary is void).
    """

    rule: MappingRule
    index: int
    locations: tuple[XPath, ...]
    trie_primary: bool
    #: Automaton slot per location (parallel to ``locations``); ``None``
    #: where a location is ineligible and evaluates elsewhere.
    slots: tuple[Optional[int], ...] = ()

    @property
    def name(self) -> str:
        """The compiled rule's component name."""
        return self.rule.name


@dataclass(frozen=True)
class CompilerStats:
    """Prefix-sharing accounting (compile time, per wrapper)."""

    rules: int
    trie_rules: int       # rules whose primary went into the residual trie
    primary_steps: int    # total steps across those primaries
    trie_nodes: int       # distinct trie steps actually evaluated per page
    # -- single-pass automaton --
    automaton_slots: int = 0        # locations riding the one-pass scan
    automaton_states: int = 0       # distinct automaton states
    automaton_transitions: int = 0  # dispatch-table entries
    automaton_location_steps: int = 0  # steps across automaton locations
    #: Static-analyzer findings for this cluster's rule-set, passed
    #: through by deploy paths that lint what they compile (registry
    #: compiles); 0 for direct in-memory builds that skip analysis.
    lint_findings: int = 0

    @property
    def steps_shared(self) -> int:
        """Steps per page saved by prefix factoring in the residual trie."""
        return self.primary_steps - self.trie_nodes

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
            "trie_rules": self.trie_rules,
            "primary_steps": self.primary_steps,
            "trie_nodes": self.trie_nodes,
            "steps_shared": self.steps_shared,
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
        trie_root: _TrieNode,
        stats: CompilerStats,
        version: Optional[str] = None,
    ) -> None:
        self.cluster = cluster
        self.rules = rules
        #: The single-pass automaton over every eligible location.
        self.automaton = automaton
        #: Trie over factorable primaries the automaton could *not*
        #: absorb (descendant axes, value predicates): walked alongside
        #: the scan so those rules keep their prefix sharing.
        self._trie_root = trie_root
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
        primary_hits = self._walk_trie(context)
        extracted = ExtractedPage(url=page.url)
        for crule in self.rules:
            rule = crule.rule
            slot = crule.slots[0]
            if slot is not None:
                nodes = hits[slot]
            elif crule.trie_primary:
                nodes = primary_hits.get(crule.index)
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

    # -- internals ------------------------------------------------------- #

    def _walk_trie(self, context: Node) -> dict[int, list]:
        """Evaluate every trie primary with one shared DOM walk."""
        results: dict[int, list] = {}
        root = self._trie_root
        if not root.children:
            return results
        xcontext = XPathContext(context, 1, 1, {})
        stack: list[tuple[_TrieNode, list]] = [
            (node, [context]) for node in root.children.values()
        ]
        while stack:
            node, parents = stack.pop()
            if not parents:
                nodes: list = []
            elif node.fast:
                nodes = _apply_fast_child_step(node.step, parents)
            else:
                nodes = _EVALUATOR.apply_steps([node.step], parents, xcontext)
            for index in node.terminals:
                results[index] = nodes
            for child in node.children.values():
                stack.append((child, nodes))
        return results


# --------------------------------------------------------------------- #
# Compilation
# --------------------------------------------------------------------- #


def _trie_candidate(xpath: XPath) -> Optional[tuple[Step, ...]]:
    """The step tuple of a factorable location, or ``None``.

    Only *relative* location paths join the trie: absolute paths and
    filter expressions re-anchor the context and evaluate lazily
    through the generic engine instead.
    """
    ast = xpath.ast
    if isinstance(ast, LocationPath) and not ast.absolute and ast.steps:
        return ast.steps
    return None


def compile_wrapper(
    repository: RuleRepository,
    cluster: str,
    version: Optional[str] = None,
    lint_findings: int = 0,
) -> CompiledWrapper:
    """Compile ``cluster``'s recorded rules into a serving wrapper.

    Eligible locations compile into the single-pass
    :class:`ExtractionAutomaton`; relative primaries it cannot take go
    into the residual prefix trie.

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

    root = _TrieNode(Step("self", NodeTypeTest("node")), fast=True)
    compiled: list[CompiledRule] = []
    trie_rules = 0
    primary_steps = 0
    slot_locations: list[tuple[int, tuple[Step, ...]]] = []
    for index, rule in enumerate(rules):
        locations = tuple(compile_xpath(loc) for loc in rule.locations)
        slots: list[Optional[int]] = []
        for xpath in locations:
            auto_steps = automaton_steps(xpath)
            if auto_steps is None:
                slots.append(None)
            else:
                slots.append(len(slot_locations))
                slot_locations.append((len(slot_locations), auto_steps))
        steps = _trie_candidate(locations[0]) if slots[0] is None else None
        if steps is not None:
            trie_rules += 1
            primary_steps += len(steps)
            _trie_insert(root, steps, index)
        compiled.append(
            CompiledRule(
                rule=rule,
                index=index,
                locations=locations,
                trie_primary=steps is not None,
                slots=tuple(slots),
            )
        )

    automaton = ExtractionAutomaton(slot_locations)
    auto_stats = automaton.stats
    stats = CompilerStats(
        rules=len(rules),
        trie_rules=trie_rules,
        primary_steps=primary_steps,
        trie_nodes=_count_nodes(root),
        automaton_slots=auto_stats.slots,
        automaton_states=auto_stats.states,
        automaton_transitions=auto_stats.transitions,
        automaton_location_steps=auto_stats.location_steps,
        lint_findings=lint_findings,
    )
    return CompiledWrapper(
        cluster, compiled, automaton, root, stats, version=version
    )


def _trie_insert(root: _TrieNode, steps: tuple[Step, ...], index: int) -> None:
    """Thread one primary's steps into a trie, marking the terminal."""
    node = root
    for step in steps:
        child = node.children.get(step)
        if child is None:
            child = _TrieNode(
                step, fast=node.fast and _fast_step_eligible(step)
            )
            node.children[step] = child
        node = child
    node.terminals.append(index)


def _count_nodes(root: _TrieNode) -> int:
    count = 0
    stack = list(root.children.values())
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node.children.values())
    return count
