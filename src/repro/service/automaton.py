"""Single-pass extraction automaton: one DOM walk feeds every rule.

A cluster's rules each carry one or more locations.  Walking every
location through the generic evaluator would re-traverse the page once
per location, so this module compiles **all** automaton-eligible
locations of a cluster — primaries *and* alternatives, across every
rule — into one tree automaton:

* **States** form a trie over location steps: locations sharing a
  step prefix share the states for that prefix, so the shared work is
  done once per page no matter how many rules ride on it.
* **Transitions** are per-state dispatch tables keyed by what the DOM
  offers cheaply during a scan: a ``tag -> targets`` dict for named
  element tests plus optional ``*``/``text()``/``comment()``/
  ``node()`` target lists.  Each target carries the step's positional
  constraint (``TR[2]``-style) or the label its anchor requires.
* **The ``//`` state.**  A bare ``descendant-or-self::node()`` step
  (the ``//`` abbreviation) is a *sticky* state: the frame where it is
  reached and every frame below it inherit it, and its transitions
  apply there with that frame's own sibling counters, so ``//TD[2]``
  keeps meaning "the second TD child of each node".
* **The label register.**  The paper's contextual anchor (Section
  3.4), ``normalize-space(preceding::text()[normalize-space(.) !=
  ""][1]) = "Label:"``, asks for the nearest non-blank text before the
  candidate.  Text nodes are never ancestors, so that is the last
  non-blank text node visited before the candidate in document order:
  one register, updated at every non-blank text node of the scan and
  compared in O(1) per candidate.
* **Accepting states** emit into *slots*: each compiled location owns
  one slot, and :meth:`ExtractionAutomaton.scan` returns the matched
  nodes per slot after a single preorder traversal.

Eligibility: a location joins the automaton when it is a *relative*
location path whose every step is either a bare ``//`` (not last), or
a ``child`` step with at most one predicate that is *positional* —
a number literal (``TR[2]``) or a ``position()`` comparison against
one (``LI[position() >= 1]``) — or, on a name test or ``text()``, the
preceding-label anchor above with a string literal.  Positional
constraints compile to ``(lo, hi, ne)`` index bounds checked against
per-frame sibling counters.  Anything else (absolute paths, filter
expressions, other axes, ``following::`` or ``contains()`` anchors,
other value predicates) evaluates through :meth:`XPath.select`.

Byte-identity argument: the scan visits nodes in true preorder (an
explicit stack of suspended frames, so depth is bounded by memory),
and a node is matched by the states active at its parent's frame and
emitted when that frame reaches it, so each slot lists its matches in
document order.  A frame's state set is deduplicated — a ``//`` state
can be both inherited and reached again at one frame — and every slot
has one accepting state, so no node is emitted twice.  A wrapper with
an anchor visits the whole document (the register must see every text
node before a candidate, HEAD's included, and is seeded with the
context's nearest preceding text); a wrapper without one descends only
where a state is live, and a frame whose transitions are all bounded
(``TR[2]``, not ``LI[position() >= 1]``) and carry no ``//`` stops at
the child that spends the last of them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from repro.dom.node import Element, Text
from repro.xpath.ast import (
    DESCENDANT_OR_SELF_STEP,
    BinaryOp,
    FunctionCall,
    LocationPath,
    NameTest,
    NumberLiteral,
    Step,
    StringLiteral,
)
from repro.xpath.engine import XPath
from repro.xpath.parser import parse_xpath

__all__ = [
    "AutomatonStats",
    "ExtractionAutomaton",
    "automaton_steps",
    "location_ineligibility",
    "step_anchor",
    "step_constraint",
    "step_ineligibility",
]

#: "No upper bound" for a positional constraint (sibling counts are
#: tiny; any unreachable integer works).
_UNBOUNDED = sys.maxsize

#: Flipped comparison for ``literal op position()`` operand order.
_FLIP = {">=": "<=", ">": "<", "<=": ">=", "<": ">", "=": "=", "!=": "!="}

#: The nearest non-blank text before (or after) the context, normalised:
#: the left side of the rule builder's label anchors, as ASTs.
_LABEL_BEFORE = parse_xpath(
    'normalize-space(preceding::text()[normalize-space(.) != ""][1])'
)
_LABEL_AFTER = parse_xpath(
    'normalize-space(following::text()[normalize-space(.) != ""][1])'
)


def _is_position(expr) -> bool:
    return (
        isinstance(expr, FunctionCall)
        and expr.name == "position"
        and not expr.args
    )


def _range_constraint(op: str, value: float) -> Optional[Tuple[int, int, int]]:
    """Bounds for ``position() op value``, or ``None`` when unsupported."""
    if value != value:  # NaN: every comparison but != is false
        if op == "!=":
            return (1, _UNBOUNDED, 0)
        return (1, 0, 0)
    if op == ">=":
        return (max(1, math.ceil(value)), _UNBOUNDED, 0)
    if op == ">":
        return (max(1, math.floor(value) + 1), _UNBOUNDED, 0)
    if op == "<=":
        return (1, math.floor(value), 0)
    if op == "<":
        return (1, math.ceil(value) - 1, 0)
    if op == "=":
        if value != int(value) or value < 1:
            return (1, 0, 0)
        return (int(value), int(value), 0)
    if op == "!=":
        if value != int(value):
            return (1, _UNBOUNDED, 0)
        return (1, _UNBOUNDED, int(value))
    return None


def step_constraint(step: Step) -> Optional[Tuple[int, int, int]]:
    """A step's positional constraint as ``(lo, hi, ne)``, or ``None``.

    ``None`` means the step has no positional form (it may still ride
    the automaton as a ``//`` or an anchored step; see
    :func:`step_ineligibility`).  Otherwise a child node at 1-based
    position ``i`` among its test-matching siblings matches iff
    ``lo <= i <= hi and i != ne`` (``ne`` is 0 — never a real position
    — when there is no exclusion).  Provably void constraints
    (``TD[0]``, ``position() = 1.5``) come back with ``hi < lo`` and
    compile to no transition at all, mirroring the generic evaluator
    selecting nothing.
    """
    if step.axis != "child":
        return None
    if not step.predicates:
        return (1, _UNBOUNDED, 0)
    if len(step.predicates) != 1:
        return None
    predicate = step.predicates[0]
    if isinstance(predicate, NumberLiteral):
        return _range_constraint("=", predicate.value)
    if isinstance(predicate, BinaryOp):
        if _is_position(predicate.left) and isinstance(
            predicate.right, NumberLiteral
        ):
            return _range_constraint(predicate.op, predicate.right.value)
        if _is_position(predicate.right) and isinstance(
            predicate.left, NumberLiteral
        ):
            flipped = _FLIP.get(predicate.op)
            if flipped is None:
                return None
            return _range_constraint(flipped, predicate.left.value)
    return None


def _anchor_label(predicate) -> Optional[str]:
    """The label of a preceding-label anchor predicate, or ``None``."""
    if (
        isinstance(predicate, BinaryOp)
        and predicate.op == "="
        and predicate.left == _LABEL_BEFORE
        and isinstance(predicate.right, StringLiteral)
    ):
        return predicate.right.value
    return None


def step_anchor(step: Step) -> Optional[str]:
    """The label an anchored step requires, or ``None``.

    An anchored step is a ``child`` step on a name test or ``text()``
    whose one predicate is the rule builder's preceding-label anchor,
    ``normalize-space(preceding::text()[normalize-space(.) != ""][1])
    = "Label:"``.  The shape is matched on the AST, so another
    spelling of the same test is simply ineligible.
    """
    if step.axis != "child" or len(step.predicates) != 1:
        return None
    test = step.node_test
    if not isinstance(test, NameTest) and test.node_type != "text":
        return None
    return _anchor_label(step.predicates[0])


#: Comparison operators :func:`_range_constraint` can turn into index
#: bounds; anything else on a ``position()`` predicate is ineligible.
_SUPPORTED_OPS = frozenset(_FLIP)


def _value_predicate_reason(predicate) -> str:
    """Why a non-positional predicate cannot ride the scan."""
    if _anchor_label(predicate) is not None:
        return (
            "a label anchor rides the scan only on a name test or text()"
        )
    if isinstance(predicate, BinaryOp) and predicate.left == _LABEL_AFTER:
        return (
            "following:: label anchor (the scan's register holds only "
            "the preceding label)"
        )
    if isinstance(predicate, FunctionCall) and predicate.name == "contains":
        return (
            "contains() label test (the scan compares labels by "
            "equality only)"
        )
    return (
        "predicate is neither positional nor a preceding-label anchor "
        "(value tests need the generic evaluator)"
    )


def step_ineligibility(step: Step) -> Optional[str]:
    """Why ``step`` cannot ride the automaton, or ``None`` if it can.

    ``None`` exactly for a bare ``//`` step, a step with a
    :func:`step_constraint`, and an anchored step (:func:`step_anchor`);
    otherwise a one-line human reason (surfaced verbatim by the
    ``RW301`` analyzer finding in :mod:`repro.analysis`).
    """
    if step == DESCENDANT_OR_SELF_STEP:
        return None
    if step.axis != "child":
        if step.axis == "descendant-or-self":
            return (
                "descendant-or-self:: rides the scan only as a bare // "
                "(node() test, no predicate)"
            )
        return (
            f"axis {step.axis}:: re-anchors the scan and needs the "
            "generic evaluator"
        )
    if len(step.predicates) > 1:
        return "more than one predicate on a single step"
    if not step.predicates:
        return None
    predicate = step.predicates[0]
    if isinstance(predicate, NumberLiteral):
        return None
    if isinstance(predicate, BinaryOp):
        sides = (
            (predicate.left, predicate.right),
            (predicate.right, predicate.left),
        )
        for position_side, literal_side in sides:
            if _is_position(position_side):
                if not isinstance(literal_side, NumberLiteral):
                    return (
                        "position() compared against a non-literal "
                        "expression"
                    )
                if predicate.op not in _SUPPORTED_OPS:
                    return (
                        f"operator {predicate.op!r} on position() has no "
                        "index-bound form"
                    )
                return None
    if step_anchor(step) is not None:
        return None
    return _value_predicate_reason(predicate)


def location_ineligibility(xpath: XPath) -> Optional[str]:
    """Why a location cannot ride the automaton, or ``None`` if it can.

    The exact complement of :func:`automaton_steps`: ``None`` is
    returned precisely for the locations that compile into the
    single-pass scan.
    """
    ast = xpath.ast
    if not isinstance(ast, LocationPath):
        return "not a location path (filter expressions re-anchor the context)"
    if ast.absolute:
        return "absolute path re-anchors at the document root"
    if not ast.steps:
        return "empty location path selects only the context node"
    if ast.steps[-1] == DESCENDANT_OR_SELF_STEP:
        return "a trailing // selects whole subtrees, not one node per match"
    for index, step in enumerate(ast.steps, start=1):
        reason = step_ineligibility(step)
        if reason is not None:
            return f"step {index} ({step}): {reason}"
    return None


def automaton_steps(xpath: XPath) -> Optional[Tuple[Step, ...]]:
    """The step tuple of an automaton-eligible location, or ``None``.

    :func:`location_ineligibility` names the disqualifying shape of
    every location this returns ``None`` for.
    """
    if location_ineligibility(xpath) is not None:
        return None
    return xpath.ast.steps


class _State:
    """One automaton state: dispatch tables plus emitted slots.

    Transition lists hold ``(lo, hi, ne, target)`` entries: the
    :func:`step_constraint` bounds on the child's 1-based position
    among *test-matching* siblings, exactly the semantics of the
    generic evaluator's per-parent predicate filtering.
    """

    __slots__ = (
        "by_tag", "star", "text", "comment", "node", "emits", "label",
        "sticky", "enter", "enter_sticky", "enter_width", "children",
    )

    def __init__(self) -> None:
        self.by_tag: dict = {}
        self.star: Optional[list] = None
        self.text: Optional[list] = None
        self.comment: Optional[list] = None
        self.node: Optional[list] = None
        self.emits: list = []
        #: The label the register must hold when a node reaches this
        #: state (its step's anchor), or ``None``.
        self.label: Optional[str] = None
        #: A ``//`` state: inherited by every frame below the one that
        #: reaches it.
        self.sticky = False
        #: States active at a frame where this one is reached: itself
        #: when it has transitions, plus its ``//`` closure.  Empty for
        #: a dead end (the scan stops descending).
        self.enter: tuple = ()
        #: The sticky members of ``enter``.
        self.enter_sticky: tuple = ()
        #: How many transition entries ``enter`` holds (:func:`_width`).
        self.enter_width = 0
        #: step -> child state (trie structure, build time only).
        self.children: dict = {}

    def tables(self) -> list:
        """Every transition list leaving this state."""
        tables = [
            table for table in (self.star, self.text, self.comment, self.node)
            if table is not None
        ]
        tables.extend(self.by_tag.values())
        return tables


@dataclass(frozen=True)
class AutomatonStats:
    """Sharing accounting for one compiled automaton."""

    slots: int           # locations riding the single-pass scan
    states: int          # distinct states (excluding the root)
    transitions: int     # dispatch-table entries plus // moves
    location_steps: int  # total steps across the compiled locations

    @property
    def steps_saved(self) -> int:
        """Steps per page deduplicated versus per-location evaluation."""
        return self.location_steps - self.transitions


def _label_before(node) -> str:
    """The normalised nearest non-blank text before ``node`` (or "")."""
    for candidate in node.preceding():
        if isinstance(candidate, Text):
            words = candidate.data.split()
            if words:
                return " ".join(words)
    return ""


def _width(states) -> int:
    """How many transition entries ``states`` hold.

    An entry ``(lo, hi, ne, target)`` is spent once its sibling counter
    reaches ``hi`` (never, when unbounded); a frame whose entries are
    all spent can match none of its remaining children.
    """
    return sum(len(table) for state in states for table in state.tables())


def _join(states, targets) -> tuple:
    """``states`` plus each target's closure, deduplicated, and the
    sticky subset: a ``//`` state can be inherited and reached again
    at one frame, and must not run twice."""
    merged = list(states)
    for target in targets:
        for state in target.enter:
            if state not in merged:
                merged.append(state)
    return tuple(merged), tuple(state for state in merged if state.sticky)


class ExtractionAutomaton:
    """A cluster's eligible locations compiled for one-pass scanning.

    Built from ``(slot, steps)`` pairs — one slot per location — and
    immutable afterwards; :meth:`scan` mutates no automaton state, so
    a compiled instance is thread-safe to share across workers.
    """

    __slots__ = ("_root", "_anchored", "slot_count", "stats")

    def __init__(
        self, locations: Iterable[Tuple[int, Tuple[Step, ...]]]
    ) -> None:
        root = _State()
        slot_count = 0
        location_steps = 0
        for slot, steps in locations:
            if slot >= slot_count:
                slot_count = slot + 1
            location_steps += len(steps)
            state = root
            for step in steps:
                state = self._extend(state, step)
            state.emits.append(slot)
        # Preorder over the trie (parents first), then closures bottom
        # up, so a location thousands of steps long needs no recursion.
        order = []
        stack = [root]
        while stack:
            state = stack.pop()
            order.append(state)
            stack.extend(state.children.values())
        transitions = 0
        anchored = False
        for state in reversed(order):
            tables = state.tables()
            for table in tables:
                transitions += len(table)
            enter = [state] if tables else []
            for child in state.children.values():
                if child.sticky:
                    transitions += 1
                    enter.extend(child.enter)
            state.enter = tuple(enter)
            state.enter_sticky = tuple(s for s in enter if s.sticky)
            state.enter_width = _width(enter)
            anchored = anchored or state.label is not None
        self._root = root
        self._anchored = anchored
        self.slot_count = slot_count
        self.stats = AutomatonStats(
            slots=slot_count,
            states=len(order) - 1,
            transitions=transitions,
            location_steps=location_steps,
        )

    @staticmethod
    def _extend(state: _State, step: Step) -> _State:
        """The child state for ``step``, wiring its transition once."""
        child = state.children.get(step)
        if child is not None:
            return child
        child = _State()
        state.children[step] = child
        if step == DESCENDANT_OR_SELF_STEP:
            # A move without consuming a node: the scan activates the
            # state wherever its parent is active, and below.
            child.sticky = True
            return child
        child.label = step_anchor(step)
        if child.label is None:
            lo, hi, ne = step_constraint(step)
            if hi < lo:
                # Provably void (``TD[0]``, ``position() = 1.5``): the
                # state exists for trie sharing but no transition ever
                # reaches it, same as the evaluator selecting nothing.
                return child
        else:
            lo, hi, ne = 1, _UNBOUNDED, 0
        test = step.node_test
        entry = (lo, hi, ne, child)
        if isinstance(test, NameTest):
            if test.name == "*":
                if state.star is None:
                    state.star = []
                state.star.append(entry)
            else:
                # Interned to match the DOM arena: the scan's dict
                # lookups then hit on pointer identity.
                tag = sys.intern(test.name.upper())
                state.by_tag.setdefault(tag, []).append(entry)
        elif test.node_type == "text":
            if state.text is None:
                state.text = []
            state.text.append(entry)
        elif test.node_type == "comment":
            if state.comment is None:
                state.comment = []
            state.comment.append(entry)
        elif test.node_type == "node":
            if state.node is None:
                state.node = []
            state.node.append(entry)
        # Any other node test (processing-instruction) matches nothing
        # in this DOM, as in the generic evaluator.
        return child

    # -- hot path -------------------------------------------------------- #

    def scan(self, context: Element) -> list:
        """One preorder traversal; returns matched nodes per slot.

        A frame walks one node's children in order with the states
        active there, their ``//`` subset, the count of transition
        entries not yet spent (``live``) and per-frame counters of
        position among test-matching siblings (per tag for named tests,
        elements for ``*``, node kinds for the type tests).  Each child
        is matched, checked against its anchor and emitted when the
        frame reaches it, which is its preorder visit: the register
        then holds the label before it.  A child that needs its own
        frame suspends the parent's, whose remaining children resume
        after the child's subtree; a frame stops once ``live`` is 0.
        """
        results: list = [[] for _ in range(self.slot_count)]
        root = self._root
        if not root.enter:
            return results
        full = self._anchored
        label = _label_before(context) if full else ""
        children = context.children
        stack = [(
            iter(children), len(children), root.enter, root.enter_sticky,
            -1 if full or root.enter_sticky else root.enter_width,
            {}, 0, 0, 0, 0,
        )]
        pop = stack.pop
        push = stack.append
        while stack:
            (
                children, size, states, sticky, live, tag_counts,
                elem_count, text_count, comment_count, node_count,
            ) = pop()
            spread = full or sticky
            for child in children:
                if not live:
                    break
                node_count += 1
                if isinstance(child, Element):
                    elem_count += 1
                    tag = child.tag
                    count = 0
                    passed = None
                    for state in states:
                        targets = state.by_tag.get(tag)
                        if targets is not None:
                            if not count:
                                count = tag_counts.get(tag, 0) + 1
                                tag_counts[tag] = count
                            for lo, hi, ne, target in targets:
                                if count == hi:
                                    live -= 1
                                if lo <= count <= hi and count != ne and (
                                    target.label is None
                                    or target.label == label
                                ):
                                    for slot in target.emits:
                                        results[slot].append(child)
                                    if target.enter:
                                        if passed is None:
                                            passed = [target]
                                        else:
                                            passed.append(target)
                        if state.star is not None:
                            for lo, hi, ne, target in state.star:
                                if elem_count == hi:
                                    live -= 1
                                if lo <= elem_count <= hi and (
                                    elem_count != ne
                                ) and (
                                    target.label is None
                                    or target.label == label
                                ):
                                    for slot in target.emits:
                                        results[slot].append(child)
                                    if target.enter:
                                        if passed is None:
                                            passed = [target]
                                        else:
                                            passed.append(target)
                        if state.node is not None:
                            for lo, hi, ne, target in state.node:
                                if node_count == hi:
                                    live -= 1
                                if lo <= node_count <= hi and (
                                    node_count != ne
                                ):
                                    for slot in target.emits:
                                        results[slot].append(child)
                                    if target.enter:
                                        if passed is None:
                                            passed = [target]
                                        else:
                                            passed.append(target)
                    # The child's own frame: the inherited ``//`` states
                    # plus what it passed.  A frame that must see every
                    # child (register, ``//``) never runs out (-1).
                    if passed is None:
                        if not spread:
                            continue
                        inner = inner_sticky = sticky
                        inner_live = -1
                    elif sticky or len(passed) > 1:
                        inner, inner_sticky = _join(sticky, passed)
                        inner_live = -1 if full or inner_sticky else (
                            _width(inner)
                        )
                    else:
                        target = passed[0]
                        inner = target.enter
                        inner_sticky = target.enter_sticky
                        inner_live = -1 if full or inner_sticky else (
                            target.enter_width
                        )
                    grandchildren = child.children
                    if not grandchildren:
                        continue
                    if live and node_count < size:
                        push((
                            children, size, states, sticky, live, tag_counts,
                            elem_count, text_count, comment_count, node_count,
                        ))
                    push((
                        iter(grandchildren), len(grandchildren), inner,
                        inner_sticky, inner_live, {}, 0, 0, 0, 0,
                    ))
                    break
                if isinstance(child, Text):
                    text_count += 1
                    for state in states:
                        if state.text is not None:
                            for lo, hi, ne, target in state.text:
                                if text_count == hi:
                                    live -= 1
                                if lo <= text_count <= hi and (
                                    text_count != ne
                                ) and (
                                    target.label is None
                                    or target.label == label
                                ):
                                    for slot in target.emits:
                                        results[slot].append(child)
                        if state.node is not None:
                            for lo, hi, ne, target in state.node:
                                if node_count == hi:
                                    live -= 1
                                if lo <= node_count <= hi and (
                                    node_count != ne
                                ):
                                    for slot in target.emits:
                                        results[slot].append(child)
                    if full:
                        # The register: the last non-blank text visited.
                        words = child.data.split()
                        if words:
                            label = " ".join(words)
                    continue
                comment_count += 1
                for state in states:
                    if state.comment is not None:
                        for lo, hi, ne, target in state.comment:
                            if comment_count == hi:
                                live -= 1
                            if lo <= comment_count <= hi and (
                                comment_count != ne
                            ):
                                for slot in target.emits:
                                    results[slot].append(child)
                    if state.node is not None:
                        for lo, hi, ne, target in state.node:
                            if node_count == hi:
                                live -= 1
                            if lo <= node_count <= hi and node_count != ne:
                                for slot in target.emits:
                                    results[slot].append(child)
        return results
