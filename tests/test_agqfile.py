import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agq.agqfile import ParseError, document_of, emit_agq, load_pair, parse_agq
from agq.quiver import AgqError
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


# Every ParseError kind, with its line, column and message in five layouts
# of the same declarations.  "\udcff" stands for the byte 0xff.
_LAYOUTS = {
    "plain": lambda ls: "\n".join(ls) + "\n",
    "tab": lambda ls: "\n".join("\t" + ln.replace(" ", "\t") for ln in ls) + "\n",
    "spaces": lambda ls: "\n".join("  " + ln.replace(" ", "   ") for ln in ls) + "\n",
    "comment": lambda ls: "\n".join(ln + "  # e r l w v-w" for ln in ls) + "\n",
    "crlf": lambda ls: "\r\n".join(ls) + "\r\n",
}
_DIAGNOSTICS = [
    # declarations, error line, columns in the layouts above (in order), message
    (["algebra a-b"], 1, (9, 9, 9, 9, 9), "bad algebra name 'a-b'"),
    (["vertex 1", "vertex"], 2, (7, 7, 7, 7, 7), "vertex line needs at least one name"),
    (["vertex v v-w"], 1, (10, 11, 16, 10, 10), "bad vertex name 'v-w'"),
    (["vertex e1 e", "vertex e"], 2, (8, 9, 12, 8, 8), "vertex 'e' already declared on line 1"),
    (["vertex e e"], 1, (10, 11, 16, 10, 10), "vertex 'e' already declared on line 1"),
    (["arrow a 1 -> 2"], 1, (7, 7, 7, 7, 7), "expected 'arrow NAME : SRC -> TGT'"),
    (["arrow r : 1 -> 2", "arrow r : 2 -> 1"], 2, (7, 8, 11, 7, 7),
     "arrow 'r' already declared on line 1"),
    (["arrow a : 1 -> 1", "rel a"], 2, (5, 5, 5, 5, 5), "expected 'rel A B' (the path A then B)"),
    (["arrow a : 1 -> 2", "rel a l"], 2, (7, 8, 13, 7, 7), "relation mentions unknown arrow 'l'"),
    (["vertex w", "arrow a : r -> w"], 2, (11, 12, 19, 11, 11),
     "arrow 'a' uses undeclared vertex 'r'"),
    (["vertex r", "arrow a : r -> w"], 2, (16, 17, 28, 16, 16),
     "arrow 'a' uses undeclared vertex 'w'"),
    (["edge a : 1 -> 2"], 1, (1, 1, 1, 1, 1), "unknown declaration 'edge'"),
    (["vertex 1", "arrow a : 1 -> \udcff"], 2, (16, 17, 28, 16, 16), "file is not valid UTF-8"),
]
# A line ends only at \n, \r\n or \r.  Every other character at which
# str.splitlines() ends a line stays inside the comment that holds it.
_IN_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
for _ch in _IN_LINE_BREAKS:
    _DIAGNOSTICS.append(([f"vertex 1 2  # old{_ch}arrow b : 2 -> 1", "arrow a : 1 -> 2", "rel a l"],
                         3, (7, 8, 13, 7, 7), "relation mentions unknown arrow 'l'"))
    _DIAGNOSTICS.append(([f"vertex 1  # old{_ch}x", "arrow a : 1 -> \udcff"],
                         2, (16, 17, 28, 16, 16), "file is not valid UTF-8"))


@pytest.mark.parametrize("layout", list(_LAYOUTS))
@pytest.mark.parametrize("decls, line, columns, message", _DIAGNOSTICS)
def test_parse_error_positions_and_messages(tmp_path, decls, line, columns, message, layout):
    path = tmp_path / "bad.agq"
    path.write_bytes(_LAYOUTS[layout](decls).encode("utf-8", "surrogateescape"))
    with pytest.raises(ParseError) as err:
        load_pair(str(path))
    column = columns[list(_LAYOUTS).index(layout)]
    assert (err.value.line, err.value.column, err.value.message) == (line, column, message)
    assert str(err.value) == f"line {line}, column {column}: {message}"


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


_NAMES = st.sampled_from(["1", "2", "3", "a", "b", "x'", "v_1"])
_WORDS = st.one_of(_NAMES, st.sampled_from(
    ["algebra", "vertex", "arrow", "rel", ":", "->", "-", ">", "#", "\u00e9", "?"]))
_GAPS = st.sampled_from(["", " ", "  ", "\t", "\r", "\x0b", "\x0c", "\u00a0", "\u2028", "\u3000"])
_LINES = st.one_of(
    st.lists(st.tuples(_GAPS, _WORDS), max_size=7).map(lambda ws: "".join(g + w for g, w in ws)),
    st.builds("vertex {} {}".format, _NAMES, _NAMES),
    st.builds("arrow {} : {} -> {}".format, _NAMES, _NAMES, _NAMES),
    st.builds("rel {} {}".format, _NAMES, _NAMES),
)


def _parses_or_raises_agq_errors(text):
    """parse_agq gives a document or a ParseError; doc.pair() a pair or an AgqError."""
    try:
        doc = parse_agq(text)
    except ParseError:
        return
    try:
        doc.pair()
    except AgqError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_arbitrary_text_raises_only_agq_errors(text):
    _parses_or_raises_agq_errors(text)


@settings(max_examples=500, deadline=None)
@given(st.lists(_LINES, max_size=8).map("\n".join))
def test_grammar_token_text_raises_only_agq_errors(text):
    _parses_or_raises_agq_errors(text)


_PARAMS = st.builds(
    GeneratorParams,
    seed=st.integers(0, 10**6),
    max_vertices=st.sampled_from([1, 2, 5, 12]),
    max_arrows=st.sampled_from([0, 3, 14, 30]),
    loop_allowed=st.booleans(),
    relation_density=st.sampled_from([0.0, 0.5, 1.0]),
)


@settings(max_examples=200, deadline=None)
@given(_PARAMS)
@example(GeneratorParams(seed=3, max_vertices=1, max_arrows=40, relation_density=0.0))
@example(GeneratorParams(seed=3, max_vertices=1, max_arrows=40, relation_density=1.0))
def test_emit_parse_roundtrip_of_generated_pairs(params):
    pair, _ = random_ag_pair(params)
    doc = parse_agq(emit_agq(document_of(pair)))
    assert doc.vertices == list(pair.quiver.vertices)
    assert doc.pair() == pair


@settings(max_examples=200, deadline=None)
@given(_PARAMS, st.text().map(lambda t: t.replace("\n", "").replace("\r", "")))
@example(GeneratorParams(seed=1), "old\x0carrow b : 2 -> 1")
@example(GeneratorParams(seed=1), "\u2028rel a b\x85vertex zz")
def test_a_comment_never_changes_the_document(params, comment):
    pair, _ = random_ag_pair(params)
    text = emit_agq(document_of(pair))
    commented = "".join(f"{line}#{comment}\n" for line in text.split("\n")[:-1])
    assert parse_agq(commented) == parse_agq(text)


@settings(max_examples=100, deadline=None)
@given(_PARAMS)
def test_implicit_vertices_keep_first_appearance_order(params):
    pair, text = random_ag_pair(params)
    implicit = "".join(line for line in text.splitlines(keepends=True)
                       if not line.startswith("vertex "))
    order = []
    for a in pair.quiver.arrows:
        for v in (a.source, a.target):
            if v not in order:
                order.append(v)
    assert parse_agq(implicit).vertices == order


@settings(max_examples=100, deadline=None)
@given(_PARAMS)
def test_undeclared_vertex_reported_at_its_first_arrow(params):
    pair, _ = random_ag_pair(params)
    if not pair.quiver.arrows:
        return
    missing = pair.quiver.arrows[-1].target
    doc = document_of(pair)
    doc.vertices.remove(missing)
    text = emit_agq(doc) if doc.vertices else "vertex zz\n" + emit_agq(doc)
    with pytest.raises(ParseError) as err:
        parse_agq(text)
    first = next(a for a in pair.quiver.arrows if missing in (a.source, a.target))
    line = text.splitlines().index(f"arrow {first.name} : {first.source} -> {first.target}") + 1
    column = len(f"arrow {first.name} : ") + 1
    if first.source != missing:
        column += len(f"{first.source} -> ")
    assert (err.value.line, err.value.column) == (line, column)
    assert err.value.message.endswith(f"uses undeclared vertex {missing!r}")


@pytest.mark.parametrize("explicit", [True, False])
def test_large_document_parses_in_linear_time(explicit):
    n = 10_000
    lines = ["vertex " + " ".join(f"v{i}" for i in range(n))] if explicit else []
    lines += [f"arrow a{k} : v{k % n} -> v{(7 * k + 1) % n}" for k in range(2 * n)]
    text = "\n".join(lines) + "\n"
    start = time.perf_counter()
    doc = parse_agq(text)
    elapsed = time.perf_counter() - start
    assert len(doc.vertices) == n and len(doc.arrows) == 2 * n
    assert elapsed < 1.0, elapsed
