"""Unit tests for XPath evaluation: axes, predicates, functions, operators."""

import math

import pytest

from repro.errors import XPathEvaluationError, XPathTypeError
from repro.html import parse_html
from repro.xpath import evaluate, select, select_one
from repro.xpath.engine import evaluate_string


@pytest.fixture()
def root():
    doc = parse_html(
        """<html><body>
        <div id="first"><h1>Title</h1></div>
        <div id="second">
          <table>
            <tr><th>K</th><th>V</th></tr>
            <tr><td>alpha</td><td>1</td></tr>
            <tr><td>beta</td><td>2</td></tr>
            <tr><td>gamma</td><td>3</td></tr>
          </table>
          <p>one <b>two</b> three</p>
        </div>
        </body></html>"""
    )
    return doc.document_element


class TestLazyPositionalStep:
    """``axis::T[filters][k]`` may stop at the k-th survivor only when
    every earlier filter is a position-free boolean test."""

    @pytest.mark.parametrize("expression, expected", [
        ("preceding::TD[1]", ["gamma"]),
        ('preceding::TD[. != "2"][2]', ["beta"]),
        ('preceding::TD[contains(., "a")][3]', ["alpha"]),
        # Earlier filters that read position() or last(), or are not
        # boolean, must see the whole axis.
        ("preceding::TD[position() > 1][1]", ["2"]),
        ("preceding::TD[last()][1]", ["alpha"]),
        ("preceding::TD[3][1]", ["beta"]),
        ("preceding::TD[0.5]", []),
        ("preceding::TD[0]", []),
        ("ancestor::*[2]", ["TABLE"]),
    ])
    def test_matches_the_whole_axis_semantics(self, root, expression,
                                              expected):
        last_cell = select_one(root, "BODY/DIV[2]/TABLE/TR[4]/TD[2]")
        found = select(last_cell, expression)
        assert [
            node.text_content() if node.tag == "TD" else node.tag
            for node in found
        ] == expected

    def test_following_stops_at_the_kth(self, root):
        first_cell = select_one(root, "BODY/DIV[2]/TABLE/TR[2]/TD[1]")
        (node,) = select(first_cell, "following::TD[2]")
        assert node.text_content() == "beta"


class TestAxes:
    def test_child(self, root):
        assert len(select(root, "BODY/DIV")) == 2

    def test_descendant(self, root):
        assert len(select(root, "BODY/descendant::TD")) == 6

    def test_descendant_or_self_abbreviation(self, root):
        assert len(select(root, "BODY//TD")) == 6

    def test_parent(self, root):
        td = select_one(root, "BODY//TD")
        assert select_one(root, "BODY//TD/..").tag == "TR"

    def test_ancestor(self, root):
        tags = [n.tag for n in select(root, "BODY//B/ancestor::*")]
        assert tags == ["HTML", "BODY", "DIV", "P"]

    def test_ancestor_or_self(self, root):
        tags = [n.tag for n in select(root, "BODY//B/ancestor-or-self::*")]
        assert "B" in tags

    def test_self(self, root):
        assert select_one(root, "BODY//P/self::P") is not None
        assert select(root, "BODY//P/self::DIV") == []

    def test_following_sibling(self, root):
        tds = select(root, "BODY//TD[contains(., 'alpha')]/following-sibling::TD")
        assert [td.text_content() for td in tds] == ["1"]

    def test_preceding_sibling_nearest_first(self, root):
        # position 1 on a reverse axis = nearest preceding sibling.
        rows = select(root, "BODY//TR[3]/preceding-sibling::TR[1]")
        assert "alpha" in rows[0].text_content()

    def test_following(self, root):
        nodes = select(root, "BODY//H1/following::P")
        assert len(nodes) == 1

    def test_preceding(self, root):
        nodes = select(root, "BODY//P/preceding::H1")
        assert len(nodes) == 1

    def test_attribute_axis(self, root):
        assert evaluate(root, "string(BODY/DIV[1]/@id)") == "first"

    def test_attribute_wildcard(self, root):
        assert len(select(root, "BODY/DIV[1]/@*")) == 1


class TestNodeTests:
    def test_text_node_test(self, root):
        texts = select(root, "BODY//P/text()")
        assert [t.data for t in texts] == ["one ", " three"]

    def test_node_test_matches_all(self, root):
        nodes = select(root, "BODY//P/node()")
        assert len(nodes) == 3

    def test_name_test_case_insensitive(self, root):
        assert len(select(root, "body//td")) == 6

    def test_wildcard_elements_only(self, root):
        nodes = select(root, "BODY//P/*")
        assert [n.tag for n in nodes] == ["B"]

    def test_comment_node_test(self):
        doc = parse_html("<body><!--c--><p>x</p></body>")
        comments = select(doc.document_element, "BODY/comment()")
        assert len(comments) == 1


class TestPredicates:
    def test_numeric_position(self, root):
        assert select_one(root, "BODY//TR[2]/TD[1]").text_content() == "alpha"

    def test_position_function(self, root):
        rows = select(root, "BODY//TR[position() >= 2]")
        assert len(rows) == 3

    def test_last_function(self, root):
        last = select_one(root, "BODY//TR[last()]")
        assert "gamma" in last.text_content()

    def test_boolean_predicate(self, root):
        row = select_one(root, "BODY//TR[TD = 'beta']")
        assert "2" in row.text_content()

    def test_chained_predicates(self, root):
        rows = select(root, "BODY//TR[position() >= 2][2]")
        assert "beta" in rows[0].text_content()

    def test_predicate_on_reverse_axis(self, root):
        # The nearest preceding row of the gamma row is beta.
        node = select_one(
            root, "BODY//TR[TD = 'gamma']/preceding-sibling::TR[1]/TD[1]"
        )
        assert node.text_content() == "beta"

    def test_void_result(self, root):
        assert select(root, "BODY//TABLE[9]") == []


class TestFunctions:
    def test_count(self, root):
        assert evaluate(root, "count(BODY//TR)") == 4.0

    def test_contains_two_arg(self, root):
        assert evaluate(root, "contains('abcdef', 'cde')") is True

    def test_contains_lenient_one_arg(self, root):
        nodes = select(root, "BODY//TD[contains('alp')]")
        assert len(nodes) == 1

    def test_starts_with_and_ends_with(self, root):
        assert evaluate(root, "starts-with('Runtime:', 'Run')") is True
        assert evaluate(root, "ends-with('108 min', 'min')") is True

    def test_normalize_space(self, root):
        assert evaluate(root, "normalize-space('  a   b  ')") == "a b"

    def test_normalize_space_context(self, root):
        value = evaluate(root, "normalize-space(BODY//P)")
        assert value == "one two three"

    def test_string_number_formatting(self, root):
        assert evaluate(root, "string(2)") == "2"
        assert evaluate(root, "string(2.5)") == "2.5"

    def test_concat(self, root):
        assert evaluate(root, "concat('a', 'b', 'c')") == "abc"

    def test_concat_single_arg_raises(self, root):
        with pytest.raises(XPathEvaluationError):
            evaluate(root, "concat('a')")

    def test_substring_family(self, root):
        assert evaluate(root, "substring('12345', 2, 3)") == "234"
        assert evaluate(root, "substring-before('108 min', ' min')") == "108"
        assert evaluate(root, "substring-after('Runtime: 108', ': ')") == "108"

    def test_substring_rounding_rules(self, root):
        # Spec example: substring("12345", 1.5, 2.6) == "234"
        assert evaluate(root, "substring('12345', 1.5, 2.6)") == "234"

    def test_string_length(self, root):
        assert evaluate(root, "string-length('abc')") == 3.0

    def test_translate(self, root):
        assert evaluate(root, "translate('bar', 'abc', 'ABC')") == "BAr"
        assert evaluate(root, "translate('-abc-', '-', '')") == "abc"

    def test_boolean_not_true_false(self, root):
        assert evaluate(root, "not(false())") is True
        assert evaluate(root, "boolean(0)") is False
        assert evaluate(root, "boolean('x')") is True

    def test_number_conversion(self, root):
        assert evaluate(root, "number(' 42 ')") == 42.0
        assert math.isnan(evaluate(root, "number('x')"))

    def test_sum(self, root):
        assert evaluate(root, "sum(BODY//TR/TD[2])") == 6.0

    def test_floor_ceiling_round(self, root):
        assert evaluate(root, "floor(2.7)") == 2.0
        assert evaluate(root, "ceiling(2.1)") == 3.0
        assert evaluate(root, "round(2.5)") == 3.0
        assert evaluate(root, "round(-2.5)") == -2.0

    def test_name_function(self, root):
        assert evaluate(root, "name(BODY//P)") == "P"

    def test_unknown_function_raises(self, root):
        with pytest.raises(XPathEvaluationError):
            evaluate(root, "frobnicate(1)")


class TestOperators:
    def test_arithmetic(self, root):
        assert evaluate(root, "1 + 2 * 3 - 4") == 3.0
        assert evaluate(root, "7 div 2") == 3.5
        assert evaluate(root, "7 mod 2") == 1.0

    def test_mod_truncates_like_spec(self, root):
        assert evaluate(root, "-7 mod 2") == -1.0

    def test_div_by_zero(self, root):
        assert evaluate(root, "1 div 0") == float("inf")
        assert math.isnan(evaluate(root, "0 div 0"))

    def test_comparison_node_set_existential(self, root):
        assert evaluate(root, "BODY//TD = 'beta'") is True
        assert evaluate(root, "BODY//TD = 'nope'") is False

    def test_not_equal_node_set(self, root):
        # != is existential too: some TD differs from 'beta'.
        assert evaluate(root, "BODY//TD != 'beta'") is True

    def test_relational_with_node_set(self, root):
        assert evaluate(root, "BODY//TR/TD[2] > 2") is True
        assert evaluate(root, "BODY//TR/TD[2] > 3") is False

    def test_union_sorted_document_order(self, root):
        nodes = select(root, "BODY//P | BODY//H1")
        assert [n.tag for n in nodes] == ["H1", "P"]

    def test_union_type_error(self, root):
        with pytest.raises(XPathTypeError):
            evaluate(root, "1 | 2")

    def test_and_or_short_circuit(self, root):
        assert evaluate(root, "true() or frobnicate()") is True
        assert evaluate(root, "false() and frobnicate()") is False

    def test_boolean_number_comparison(self, root):
        assert evaluate(root, "true() = 1") is True


class TestAbsolutePaths:
    def test_absolute_from_nested_context(self, root):
        td = select_one(root, "BODY//TD")
        assert select(td, "/HTML/BODY/DIV[1]/H1")[0].text_content() == "Title"

    def test_evaluate_string_helper(self, root):
        assert evaluate_string(root, "BODY//H1") == "Title"
