import pytest

from agq.agqfile import ParseError, document_of, emit_agq, load_pair, parse_agq
from conftest import FIXTURES
from agq.generator import GeneratorParams, random_ag_pair


def test_parse_minimal():
    doc = parse_agq("arrow a : 1 -> 2\n")
    assert doc.vertices == ["1", "2"]
    assert len(doc.arrows) == 1
    pair = doc.pair()
    assert pair.validated


def test_parse_fig1_fixture():
    doc, pair = load_pair(str(FIXTURES / "fig1.agq"))
    assert doc.name == "fig1"
    assert pair.validated
    assert len(pair.quiver.arrows) == 17
    assert len(pair.relations) == 11


def test_parse_comments_and_blank_lines():
    doc = parse_agq("# header\n\nalgebra t  # trailing\nvertex 1 2\narrow a : 1 -> 2  # -\n")
    assert doc.name == "t"
    assert doc.vertices == ["1", "2"]


def test_apostrophe_names():
    doc = parse_agq("vertex 3' 4\narrow a_3'_4 : 3' -> 4\n")
    assert doc.pair().validated


def test_duplicate_arrow_rejected():
    with pytest.raises(ParseError) as err:
        parse_agq("arrow a : 1 -> 2\narrow a : 2 -> 1\n")
    assert "line 2" in str(err.value)


def test_duplicate_arrow_column_is_the_name():
    # the name also occurs inside the keyword "arrow"
    with pytest.raises(ParseError) as err:
        parse_agq("arrow r : 1 -> 2\narrow r : 2 -> 1\n")
    assert (err.value.line, err.value.column) == (2, 7)


def test_duplicate_vertex_column_is_the_name():
    with pytest.raises(ParseError) as err:
        parse_agq("vertex r\nvertex r\n")
    assert (err.value.line, err.value.column) == (2, 8)
    with pytest.raises(ParseError) as err:
        parse_agq("vertex e1 e\nvertex  e\n")
    assert (err.value.line, err.value.column) == (2, 9)


def test_bad_vertex_name_column():
    with pytest.raises(ParseError) as err:
        parse_agq("vertex v v-w\n")
    assert (err.value.line, err.value.column) == (1, 10)


def test_undeclared_vertex_column_is_on_the_arrow_line():
    with pytest.raises(ParseError) as err:
        parse_agq("vertex 1\narrow a : 1 -> 2\n")
    assert (err.value.line, err.value.column) == (2, 16)
    with pytest.raises(ParseError) as err:
        parse_agq("vertex 2\n  arrow a:1->2 # c\n")
    assert (err.value.line, err.value.column) == (2, 11)


def test_unknown_declaration_rejected():
    with pytest.raises(ParseError):
        parse_agq("edge a : 1 -> 2\n")


def test_bad_arrow_syntax():
    with pytest.raises(ParseError):
        parse_agq("arrow a 1 -> 2\n")


def test_rel_unknown_arrow():
    with pytest.raises(ParseError) as err:
        parse_agq("arrow a : 1 -> 2\nrel a z\n")
    assert (err.value.line, err.value.column) == (2, 7)


def test_explicit_vertices_make_arrows_strict():
    with pytest.raises(ParseError):
        parse_agq("vertex 1\narrow a : 1 -> 2\n")


def test_noncomposable_rel_deferred_to_validate():
    doc = parse_agq("arrow a : 1 -> 2\narrow b : 1 -> 3\nrel a b\n")
    pair = doc.pair()
    assert not pair.validated
    assert pair.report.violations[0].kind == "NonComposableRelation"


def test_roundtrip_fixture_files():
    for name in ("fig1", "a2", "cyc2", "cyc2e", "gate", "a3r", "loop_rel", "single"):
        doc, pair = load_pair(str(FIXTURES / f"{name}.agq"))
        text = emit_agq(doc)
        doc2 = parse_agq(text)
        assert doc2.vertices == doc.vertices
        assert doc2.arrows == doc.arrows
        assert doc2.relations == doc.relations
        assert emit_agq(doc2) == text


def test_roundtrip_generator_corpus():
    for seed in range(1, 26):
        pair, text = random_ag_pair(GeneratorParams(seed=seed))
        doc = parse_agq(text)
        pair2 = doc.pair()
        assert pair2.quiver == pair.quiver
        assert pair2.relations == pair.relations
        assert emit_agq(doc) == text


def test_document_of_roundtrip(fig1):
    doc = document_of(fig1, "fig1")
    pair2 = parse_agq(emit_agq(doc)).pair()
    assert pair2.quiver == fig1.quiver
    assert pair2.relations == fig1.relations


def test_parse_empty_text():
    doc = parse_agq("")
    assert doc.vertices == [] and doc.arrows == []
    assert doc.pair().validated
