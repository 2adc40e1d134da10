"""XPath 1.0 evaluation engine.

Evaluates parsed ASTs against :mod:`repro.dom` trees.  The four XPath
value types map to Python as:

==============  =====================
XPath type      Python representation
==============  =====================
node-set        ``list`` of nodes, document order, no duplicates
string          ``str``
number          ``float``
boolean         ``bool``
==============  =====================

Semantics follow the recommendation: predicates see a context position
counted along the *axis direction* (reverse axes count backwards), a
bare number predicate means ``position() = n``, comparisons involving
node-sets are existential, and results of every step are normalised to
document order.

Element name tests are case-insensitive (HTML names are
case-insensitive, and the DOM stores them upper-case so the paper's
``BODY[1]/DIV[2]`` notation matches directly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import methodcaller
from typing import Iterable

from repro.dom.node import Comment, Element, Text
from repro.errors import XPathEvaluationError, XPathTypeError
from repro.xpath.ast import (
    BinaryOp,
    Expr,
    FilterPath,
    FunctionCall,
    LocationPath,
    NodeTypeTest,
    NumberLiteral,
    Step,
    StringLiteral,
    UnaryMinus,
    VariableRef,
)
from repro.xpath.functions import (
    FUNCTIONS,
    node_string_value,
    to_boolean,
    to_number,
    to_string,
)

@dataclass(frozen=True)
class AttributeNode:
    """A lightweight stand-in for DOM attribute nodes.

    The DOM proper stores attributes as a dict on the element; the
    attribute axis materialises these wrappers on demand.
    """

    owner: Element
    name: str
    value: str

    def document_order(self) -> float:
        """A sort key strictly between the owner and its first child.

        Attributes sort immediately after their owner element, ordered
        by insertion position of the attribute name.
        """
        attributes = list(self.owner.attributes)
        try:
            rank = attributes.index(self.name)
        except ValueError:
            rank = 0
        return self.owner.document_order() + (rank + 1) / (
            len(attributes) + 1
        )

    def text_content(self) -> str:
        return self.value


@dataclass
class XPathContext:
    """Evaluation context: the context node plus position/size/variables."""

    node: object
    position: int = 1
    size: int = 1
    variables: dict = field(default_factory=dict)

    def with_node(self, node, position: int, size: int) -> "XPathContext":
        return XPathContext(node, position, size, self.variables)


_document_order_key = methodcaller("document_order")


def _sort_node_set(nodes: Iterable) -> list:
    unique: dict[int, object] = {}
    for node in nodes:
        unique[id(node)] = node
    if len(unique) < 2:
        return list(unique.values())
    return sorted(unique.values(), key=_document_order_key)


#: Function calls whose result is boolean: a predicate built from them
#: (or from a comparison or ``and``/``or``) is never read as a position.
_BOOLEAN_FUNCTIONS = frozenset(
    {"not", "true", "false", "boolean", "contains", "starts-with", "lang"}
)
_BOOLEAN_OPS = frozenset({"or", "and", "=", "!=", "<", "<=", ">", ">="})

def _uses_position(expr) -> bool:
    """True when ``position()`` or ``last()`` appears anywhere in ``expr``."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, FunctionCall):
            if node.name in ("position", "last"):
                return True
            stack.extend(node.args)
        elif isinstance(node, BinaryOp):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, UnaryMinus):
            stack.append(node.operand)
        elif isinstance(node, (LocationPath, FilterPath)):
            if isinstance(node, FilterPath):
                stack.append(node.primary)
                stack.extend(node.predicates)
            for step in node.steps:
                stack.extend(step.predicates)
    return False


def _lazy_index(predicates: tuple) -> int:
    """``k`` when a step may stop at its ``k``-th survivor, else 0.

    That holds when the last predicate is the number literal ``k`` and
    every earlier one is a boolean test that ignores position: each
    candidate then survives or not on its own, and ``[k]`` keeps the
    ``k``-th survivor in axis order.  A fractional or non-positive
    ``k`` selects nothing (-1).
    """
    if not predicates or not isinstance(predicates[-1], NumberLiteral):
        return 0
    for predicate in predicates[:-1]:
        boolean = (
            isinstance(predicate, BinaryOp) and predicate.op in _BOOLEAN_OPS
        ) or (
            isinstance(predicate, FunctionCall)
            and predicate.name in _BOOLEAN_FUNCTIONS
        )
        if not boolean or _uses_position(predicate):
            return 0
    value = predicates[-1].value
    if value != int(value) or value < 1:
        return -1
    return int(value)


class Evaluator:
    """Evaluates expression ASTs.  Stateless; safe to share."""

    # ------------------------------------------------------------------ #
    # Entry
    # ------------------------------------------------------------------ #

    def evaluate(self, expr: Expr, context: XPathContext):
        if isinstance(expr, NumberLiteral):
            return expr.value
        if isinstance(expr, StringLiteral):
            return expr.value
        if isinstance(expr, VariableRef):
            if expr.name not in context.variables:
                raise XPathEvaluationError(f"unbound variable ${expr.name}")
            return context.variables[expr.name]
        if isinstance(expr, FunctionCall):
            return self._call_function(expr, context)
        if isinstance(expr, UnaryMinus):
            return -to_number(self.evaluate(expr.operand, context))
        if isinstance(expr, BinaryOp):
            return self._binary(expr, context)
        if isinstance(expr, LocationPath):
            return self._location_path(expr, context)
        if isinstance(expr, FilterPath):
            return self._filter_path(expr, context)
        raise XPathEvaluationError(f"cannot evaluate {type(expr).__name__}")

    # ------------------------------------------------------------------ #
    # Operators
    # ------------------------------------------------------------------ #

    def _binary(self, expr: BinaryOp, context: XPathContext):
        op = expr.op
        if op == "or":
            return to_boolean(self.evaluate(expr.left, context)) or to_boolean(
                self.evaluate(expr.right, context)
            )
        if op == "and":
            return to_boolean(self.evaluate(expr.left, context)) and to_boolean(
                self.evaluate(expr.right, context)
            )
        left = self.evaluate(expr.left, context)
        right = self.evaluate(expr.right, context)
        if op in ("=", "!="):
            return self._compare_equality(op, left, right)
        if op in ("<", "<=", ">", ">="):
            return self._compare_relational(op, left, right)
        if op == "|":
            if not isinstance(left, list) or not isinstance(right, list):
                raise XPathTypeError("union requires node-sets")
            return _sort_node_set([*left, *right])
        left_num, right_num = to_number(left), to_number(right)
        if op == "+":
            return left_num + right_num
        if op == "-":
            return left_num - right_num
        if op == "*":
            return left_num * right_num
        if op == "div":
            if right_num == 0:
                if left_num == 0:
                    return float("nan")
                return float("inf") if left_num > 0 else float("-inf")
            return left_num / right_num
        if op == "mod":
            if right_num == 0:
                return float("nan")
            # XPath mod truncates (like Java %), unlike Python %.
            return left_num - right_num * int(left_num / right_num)
        raise XPathEvaluationError(f"unknown operator {op!r}")

    def _compare_equality(self, op: str, left, right) -> bool:
        def eq(a, b) -> bool:
            # When neither is a node-set: boolean > number > string priority.
            if isinstance(a, bool) or isinstance(b, bool):
                result = to_boolean(a) == to_boolean(b)
            elif isinstance(a, float) or isinstance(b, float):
                result = to_number(a) == to_number(b)
            else:
                result = to_string(a) == to_string(b)
            return result if op == "=" else not result

        if isinstance(left, list) and isinstance(right, list):
            right_values = {node_string_value(n) for n in right}
            for node in left:
                value = node_string_value(node)
                if op == "=" and value in right_values:
                    return True
                if op == "!=" and any(value != other for other in right_values):
                    return True
            return False
        if isinstance(left, list):
            return any(eq(node_string_value(n), right) for n in left)
        if isinstance(right, list):
            return any(eq(left, node_string_value(n)) for n in right)
        return eq(left, right)

    def _compare_relational(self, op: str, left, right) -> bool:
        def rel(a: float, b: float) -> bool:
            if op == "<":
                return a < b
            if op == "<=":
                return a <= b
            if op == ">":
                return a > b
            return a >= b

        if isinstance(left, list) and isinstance(right, list):
            return any(
                rel(
                    to_number(node_string_value(lnode)),
                    to_number(node_string_value(rnode)),
                )
                for lnode in left
                for rnode in right
            )
        if isinstance(left, list):
            rnum = to_number(right)
            return any(rel(to_number(node_string_value(n)), rnum) for n in left)
        if isinstance(right, list):
            lnum = to_number(left)
            return any(rel(lnum, to_number(node_string_value(n))) for n in right)
        return rel(to_number(left), to_number(right))

    # ------------------------------------------------------------------ #
    # Functions
    # ------------------------------------------------------------------ #

    def _call_function(self, expr: FunctionCall, context: XPathContext):
        implementation = FUNCTIONS.get(expr.name)
        if implementation is None:
            raise XPathEvaluationError(f"unknown function {expr.name}()")
        args = [self.evaluate(arg, context) for arg in expr.args]
        return implementation(context, args)

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #

    def _location_path(self, path: LocationPath, context: XPathContext) -> list:
        if path.absolute:
            node = context.node
            root = node.owner if isinstance(node, AttributeNode) else node
            start: list = [root.root]
            if not path.steps:
                return start
        else:
            start = [context.node]
        return self._apply_steps(path.steps, start, context)

    def _filter_path(self, path: FilterPath, context: XPathContext):
        value = self.evaluate(path.primary, context)
        if not path.predicates and not path.steps:
            return value
        if not isinstance(value, list):
            raise XPathTypeError(
                "predicates and path steps require a node-set primary"
            )
        nodes = _sort_node_set(value)
        for predicate in path.predicates:
            nodes = self._filter_by_predicate(nodes, predicate, context, reverse=False)
        if path.steps:
            return self._apply_steps(path.steps, nodes, context)
        return nodes

    def _apply_steps(self, steps, start: list, context: XPathContext) -> list:
        current = list(start)
        for step in steps:
            gathered: list = []
            for node in current:
                gathered.extend(self._apply_step(step, node, context))
            current = _sort_node_set(gathered)
        return current

    def _apply_step(self, step: Step, node, context: XPathContext) -> list:
        axis, test = step.axis, step.node_test
        wanted = _lazy_index(step.predicates)
        if wanted:
            # Walk the axis lazily and stop at the wanted survivor: a
            # nearest-label lookup (``preceding::text()[...][1]``)
            # then costs the distance to the label, not the page.
            if wanted < 0:
                return []
            filters = step.predicates[:-1]
            for candidate in self._axis(axis, node):
                if not self._matches_test(axis, test, candidate):
                    continue
                sub_context = context.with_node(candidate, 1, 1)
                if all(
                    to_boolean(self.evaluate(predicate, sub_context))
                    for predicate in filters
                ):
                    wanted -= 1
                    if not wanted:
                        return [candidate]
            return []
        candidates = [
            candidate
            for candidate in self._axis(axis, node)
            if self._matches_test(axis, test, candidate)
        ]
        for predicate in step.predicates:
            candidates = self._filter_by_predicate(
                candidates, predicate, context, reverse=False
            )
            # Candidates are already ordered along the axis direction, so
            # position() inside the predicate counts axis order naturally;
            # no extra reversal is needed here.
        return candidates

    def _filter_by_predicate(
        self, nodes: list, predicate: Expr, context: XPathContext, reverse: bool
    ) -> list:
        size = len(nodes)
        kept: list = []
        for index, node in enumerate(nodes, start=1):
            sub_context = context.with_node(node, index, size)
            value = self.evaluate(predicate, sub_context)
            if isinstance(value, float):
                if value == index:
                    kept.append(node)
            elif to_boolean(value):
                kept.append(node)
        return kept

    # ------------------------------------------------------------------ #
    # Axes and node tests
    # ------------------------------------------------------------------ #

    def _axis(self, axis: str, node) -> Iterable:
        """``node``'s ``axis`` in axis order; the long axes are lazy."""
        if isinstance(node, AttributeNode):
            return self._attribute_axis_member(axis, node)
        if axis == "child":
            return node.children
        if axis == "descendant":
            return node.descendants()
        if axis == "descendant-or-self":
            return node.self_and_descendants()
        if axis == "parent":
            return [node.parent] if node.parent is not None else []
        if axis == "ancestor":
            return node.ancestors()
        if axis == "ancestor-or-self":
            return [node, *node.ancestors()]
        if axis == "self":
            return [node]
        if axis == "following-sibling":
            if node.parent is None:
                return []
            index = node.index_in_parent
            return list(node.parent.children[index + 1 :])
        if axis == "preceding-sibling":
            if node.parent is None:
                return []
            index = node.index_in_parent
            return list(reversed(node.parent.children[:index]))
        if axis == "following":
            return node.following()
        if axis == "preceding":
            return node.preceding()
        if axis == "attribute":
            if isinstance(node, Element):
                return [
                    AttributeNode(node, name, value)
                    for name, value in node.attributes.items()
                ]
            return []
        raise XPathEvaluationError(f"unsupported axis {axis!r}")

    def _attribute_axis_member(self, axis: str, node: AttributeNode) -> list:
        """Axes evaluated from an attribute node context."""
        if axis == "parent":
            return [node.owner]
        if axis == "ancestor":
            return [node.owner, *node.owner.ancestors()]
        if axis == "ancestor-or-self":
            return [node, node.owner, *node.owner.ancestors()]
        if axis == "self":
            return [node]
        return []

    def _matches_test(self, axis: str, test, candidate) -> bool:
        if isinstance(test, NodeTypeTest):
            if test.node_type == "node":
                return True
            if test.node_type == "text":
                return isinstance(candidate, Text)
            if test.node_type == "comment":
                return isinstance(candidate, Comment)
            return False
        # NameTest: principal node type is attribute on the attribute
        # axis, element everywhere else.
        if axis == "attribute":
            if not isinstance(candidate, AttributeNode):
                return False
            return test.name == "*" or candidate.name == test.name.lower()
        if not isinstance(candidate, Element):
            return False
        return test.name == "*" or candidate.tag == test.name.upper()
