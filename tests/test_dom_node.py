"""Unit tests for the DOM node model."""

import pytest

from repro.dom.node import (
    Comment,
    Document,
    Element,
    NodeType,
    Text,
    sort_document_order,
)


def build_tree():
    """<body><div><p>one</p><p>two<b>bold</b></p></div><div/></body>"""
    doc = Document("http://t/")
    body = doc.append_child(Element("body"))
    div1 = body.append_child(Element("div"))
    p1 = div1.append_child(Element("p"))
    t1 = p1.append_child(Text("one"))
    p2 = div1.append_child(Element("p"))
    t2 = p2.append_child(Text("two"))
    b = p2.append_child(Element("b"))
    tb = b.append_child(Text("bold"))
    div2 = body.append_child(Element("div"))
    return doc, body, div1, p1, t1, p2, t2, b, tb, div2


class TestStructure:
    def test_append_child_sets_parent(self):
        parent = Element("div")
        child = Element("p")
        assert parent.append_child(child) is child
        assert child.parent is parent
        assert parent.children == [child]

    def test_append_child_reparents(self):
        a, b = Element("a"), Element("b")
        child = Element("p")
        a.append_child(child)
        b.append_child(child)
        assert child.parent is b
        assert a.children == []

    def test_insert_before(self):
        parent = Element("div")
        first = parent.append_child(Element("a"))
        new = parent.insert_before(Element("b"), first)
        assert parent.children == [new, first]

    def test_insert_before_none_appends(self):
        parent = Element("div")
        first = parent.append_child(Element("a"))
        new = parent.insert_before(Element("b"), None)
        assert parent.children == [first, new]

    def test_insert_before_foreign_reference_raises(self):
        parent = Element("div")
        with pytest.raises(ValueError):
            parent.insert_before(Element("b"), Element("x"))

    def test_remove_child(self):
        parent = Element("div")
        child = parent.append_child(Element("p"))
        parent.remove_child(child)
        assert child.parent is None
        assert parent.children == []

    def test_remove_non_child_raises(self):
        with pytest.raises(ValueError):
            Element("div").remove_child(Element("p"))

    def test_tag_uppercased(self):
        assert Element("tAbLe").tag == "TABLE"

    def test_node_types(self):
        assert Document().node_type is NodeType.DOCUMENT
        assert Element("p").node_type is NodeType.ELEMENT
        assert Text("x").node_type is NodeType.TEXT
        assert Comment("x").node_type is NodeType.COMMENT


class TestNavigation:
    def test_owner_document(self):
        doc, body, *_ = build_tree()
        assert body.owner_document is doc
        assert doc.owner_document is doc

    def test_owner_document_detached(self):
        assert Element("p").owner_document is None

    def test_root(self):
        doc, _, _, p1, *_ = build_tree()
        assert p1.root is doc

    def test_index_in_parent(self):
        _, _, div1, p1, _, p2, *_ = build_tree()
        assert p1.index_in_parent == 0
        assert p2.index_in_parent == 1

    def test_index_in_parent_detached_raises(self):
        with pytest.raises(ValueError):
            Element("p").index_in_parent

    def test_siblings(self):
        _, _, _, p1, _, p2, *_ = build_tree()
        assert p1.next_sibling is p2
        assert p2.previous_sibling is p1
        assert p1.previous_sibling is None
        assert p2.next_sibling is None

    def test_ancestors(self):
        doc, body, div1, p1, *_ = build_tree()
        assert list(p1.ancestors()) == [div1, body, doc]

    def test_descendants_document_order(self):
        doc, body, div1, p1, t1, p2, t2, b, tb, div2 = build_tree()
        assert list(body.descendants()) == [div1, p1, t1, p2, t2, b, tb, div2]

    def test_self_and_descendants(self):
        _, _, _, p1, t1, *_ = build_tree()
        assert list(p1.self_and_descendants()) == [p1, t1]

    def test_preceding_excludes_ancestors(self):
        doc, body, div1, p1, t1, p2, t2, b, tb, div2 = build_tree()
        assert list(tb.preceding()) == [t2, t1, p1]

    def test_following_excludes_descendants(self):
        doc, body, div1, p1, t1, p2, t2, b, tb, div2 = build_tree()
        assert list(p1.following()) == [p2, t2, b, tb, div2]

    def test_contains(self):
        _, body, div1, p1, *_ = build_tree()
        assert body.contains(p1)
        assert body.contains(body)
        assert not p1.contains(body)

    def test_child_elements_filters_text(self):
        _, _, _, _, _, p2, t2, b, *_ = build_tree()
        assert p2.child_elements() == [b]


class TestDocumentOrder:
    def test_document_order(self):
        doc, body, div1, p1, t1, p2, t2, b, tb, div2 = build_tree()
        nodes = [doc, body, div1, p1, t1, p2, t2, b, tb, div2]
        assert [node.document_order() for node in nodes] == list(range(10))

    def test_compare_document_order(self):
        _, _, _, p1, t1, p2, *_ = build_tree()
        assert p1.compare_document_order(p2) == -1
        assert p2.compare_document_order(p1) == 1
        assert p1.compare_document_order(p1) == 0

    def test_ancestor_sorts_before_descendant(self):
        _, _, div1, p1, *_ = build_tree()
        assert div1.compare_document_order(p1) == -1

    def test_sort_document_order_dedupes(self):
        _, body, div1, p1, t1, p2, t2, b, tb, div2 = build_tree()
        result = sort_document_order([tb, p1, tb, div1, body])
        assert result == [body, div1, p1, tb]

    def test_stamps_follow_every_mutation(self):
        # Sorting stamps the tree once; each mutation method must make
        # the next sort retake the stamps, never trust the old ones.
        doc, body, div1, p1, t1, p2, t2, b, tb, div2 = build_tree()
        assert sort_document_order([div2, tb, p1]) == [p1, tb, div2]
        body.insert_before(div2, div1)          # div2 now first
        assert sort_document_order([tb, div2, p1]) == [div2, p1, tb]
        div2.append_child(b)                    # b (and "bold") moves
        assert sort_document_order([t1, tb, t2]) == [tb, t1, t2]
        div1.remove_child(p1)
        body.append_child(p1)                   # p1 now last
        assert sort_document_order([p1, t2, tb]) == [tb, t2, p1]

    def test_stamped_subtree_moved_into_another_tree(self):
        # A subtree sorted while detached carries its own stamps; once
        # attached they must not be mixed with the new tree's.
        doc, body, div1, p1, t1, p2, t2, b, tb, div2 = build_tree()
        loose = Element("span")
        first = loose.append_child(Text("x"))
        second = loose.append_child(Text("y"))
        assert sort_document_order([second, first]) == [first, second]
        assert sort_document_order([div2, t1]) == [t1, div2]
        div1.insert_before(loose, p1)
        # ``second`` keyed first: its detached stamp must not be reused.
        assert sort_document_order([second, div2, t1, first]) == [
            first, second, t1, div2,
        ]

    def test_preceding_walks_deep_trees_without_recursion(self):
        # The nearest label sits at the bottom of a 5,000-deep subtree
        # before the value: the axis must reach it without recursing.
        doc = Document()
        body = doc.append_child(Element("body"))
        node = body
        for _ in range(5000):
            node = node.append_child(Element("div"))
        node.append_child(Text("label"))
        leaf = body.append_child(Text("value"))
        nearest = next(n for n in leaf.preceding() if isinstance(n, Text))
        assert nearest.data == "label"


class TestContent:
    def test_text_content_concatenates(self):
        _, body, *_ = build_tree()
        assert body.text_content() == "onetwobold"

    def test_comment_invisible_to_text_content(self):
        parent = Element("p")
        parent.append_child(Comment("hidden"))
        parent.append_child(Text("shown"))
        assert parent.text_content() == "shown"

    def test_text_is_whitespace(self):
        assert Text("  \n\t ").is_whitespace()
        assert not Text(" x ").is_whitespace()


class TestElementPositions:
    def test_position_among_same_tag(self):
        parent = Element("tr")
        td1 = parent.append_child(Element("td"))
        parent.append_child(Element("th"))
        td2 = parent.append_child(Element("td"))
        assert td1.position_among_same_tag() == 1
        assert td2.position_among_same_tag() == 2

    def test_position_detached_is_one(self):
        assert Element("td").position_among_same_tag() == 1

    def test_same_tag_sibling_count(self):
        parent = Element("tr")
        td = parent.append_child(Element("td"))
        parent.append_child(Element("td"))
        assert td.same_tag_sibling_count() == 2

    def test_text_position_among_text_siblings(self):
        parent = Element("td")
        parent.append_child(Text("a"))
        parent.append_child(Element("br"))
        second = parent.append_child(Text("b"))
        assert second.position_among_text_siblings() == 2

    def test_find_all_and_first(self):
        _, body, div1, p1, _, p2, *_ = build_tree()
        assert body.find_all("P") == [p1, p2]
        assert body.find_first("p") is p1
        assert body.find_first("table") is None


class TestAttributes:
    def test_get_set_has(self):
        element = Element("a", {"href": "/x"})
        assert element.get_attribute("HREF") == "/x"
        assert element.has_attribute("href")
        element.set_attribute("Class", "nav")
        assert element.attributes["class"] == "nav"

    def test_missing_attribute_is_none(self):
        assert Element("a").get_attribute("href") is None
