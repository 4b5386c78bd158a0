"""The .agq bound-quiver file format: line-oriented, with diagnostics.

Grammar (one declaration per line, ``#`` starts a comment):

    algebra NAME
    vertex NAME [NAME ...]
    arrow NAME : SRC -> TGT
    rel A B

``rel A B`` puts the path A-then-B (left-to-right composition) into the
ideal.  Names match ``[A-Za-z0-9_']+``; apostrophes are word characters.
Vertices may be left implicit (declared by arrows) only when no ``vertex``
line appears at all.
"""

from __future__ import annotations

import re
from operator import attrgetter

from .quiver import TOKEN, TOKEN_RE, AgqError, AlmostGentlePair, Arrow, Quiver, _NAMES_RE, _Record, _sorted_relations

# a whole arrow line without its comment, so group k starts at column start(k) + 1
_ARROW_RE = re.compile(rf"\s*arrow\s+({TOKEN})\s*:\s*({TOKEN})\s*->\s*({TOKEN})\s*\Z")


class ParseError(AgqError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class AgqDocument(_Record):
    """Parsed .agq source; builds the pair and remembers source lines."""

    name: str | None
    vertices: list[str]
    arrows: list[Arrow]
    relations: list[tuple[str, str]]
    line_of: dict[str, int]
    _fields = ("name", "vertices", "arrows", "relations", "line_of")
    _key = attrgetter(*_fields)

    def __init__(self, name: str | None = None, vertices: list[str] | None = None,
                 arrows: list[Arrow] | None = None, relations: list[tuple[str, str]] | None = None,
                 line_of: dict[str, int] | None = None) -> None:
        """Each list or map left out starts empty."""
        self.name = name
        self.vertices = [] if vertices is None else vertices
        self.arrows = [] if arrows is None else arrows
        self.relations = [] if relations is None else relations
        self.line_of = {} if line_of is None else line_of

    def pair(self) -> AlmostGentlePair:
        return AlmostGentlePair.build(Quiver(tuple(self.vertices), tuple(self.arrows)),
                                      frozenset(self.relations))


def _lines(text: str) -> list[str]:
    """The lines of text, each ended by \\n, \\r\\n or \\r only: every other
    character str.splitlines() ends a line at is in-line whitespace here."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the empty rest after a final line end
    return lines


def parse_agq(text: str) -> AgqDocument:
    """One pass over the lines; only line numbers are kept, and the column of
    a diagnostic is worked out from its line when it is raised."""
    doc = AgqDocument()
    lines = _lines(text)
    arrow_line: dict[str, int] = {}
    unresolved: list[tuple[int, str, str]] = []  # relations naming a not yet declared arrow
    for lineno, raw in enumerate(lines, start=1):
        line = raw[:raw.index("#")] if "#" in raw else raw
        words = line.split()
        if not words:
            continue
        head = words[0]
        if head == "rel":
            if len(words) != 3:
                raise ParseError(lineno, 5, "expected 'rel A B' (the path A then B)")
            a, b = words[1], words[2]
            if a not in arrow_line or b not in arrow_line:
                if not (TOKEN_RE.match(a) and TOKEN_RE.match(b)):
                    raise ParseError(lineno, 5, "expected 'rel A B' (the path A then B)")
                unresolved.append((lineno, a, b))
            doc.relations.append((a, b))
        elif head == "arrow":
            m = _ARROW_RE.match(line)
            if not m:
                raise ParseError(lineno, 7, "expected 'arrow NAME : SRC -> TGT'")
            name, src, tgt = m.groups()
            if name in arrow_line:
                raise ParseError(lineno, m.start(1) + 1,
                                 f"arrow {name!r} already declared on line {arrow_line[name]}")
            arrow_line[name] = lineno
            doc.arrows.append(Arrow(name, src, tgt))
        elif head == "vertex":
            if len(words) == 1:
                raise ParseError(lineno, 7, "vertex line needs at least one name")
            named = _NAMES_RE.match(" ".join(words[1:])) is not None  # else some word is not a name
            for k in range(1, len(words)):
                name = words[k]
                if not named and not TOKEN_RE.match(name):
                    raise ParseError(lineno, _word_column(raw, k), f"bad vertex name {name!r}")
                if name in doc.line_of:
                    raise ParseError(lineno, _word_column(raw, k),
                                     f"vertex {name!r} already declared on line {doc.line_of[name]}")
                doc.vertices.append(name)
                doc.line_of[name] = lineno
        elif head == "algebra":
            if len(words) != 2 or not TOKEN_RE.match(words[1]):
                rest = line.strip()[len(head):].strip()
                raise ParseError(lineno, 9, f"bad algebra name {rest!r}")
            doc.name = words[1]
        else:
            raise ParseError(lineno, 1, f"unknown declaration {head!r}")

    for lineno, a, b in unresolved:
        for k, n in ((1, a), (2, b)):
            if n not in arrow_line:
                raise ParseError(lineno, _word_column(lines[lineno - 1], k),
                                 f"relation mentions unknown arrow {n!r}")
    if not doc.line_of:  # no vertex line
        doc.vertices = list(dict.fromkeys(v for a in doc.arrows for v in (a.source, a.target)))
    else:
        for a in doc.arrows:
            for k, v in ((2, a.source), (3, a.target)):
                if v not in doc.line_of:
                    lineno = arrow_line[a.name]
                    m = _ARROW_RE.match(lines[lineno - 1].split("#", 1)[0])
                    raise ParseError(lineno, m.start(k) + 1,  # type: ignore[union-attr]
                                     f"arrow {a.name!r} uses undeclared vertex {v!r}")
    return doc


def _word_column(raw: str, k: int) -> int:
    """Column of the k-th word of a line (the keyword is word 0), each word
    found after the one before it."""
    words = raw.split("#", 1)[0].split()
    col = 0
    for word in words[:k]:
        col = raw.index(word, col) + len(word)
    return raw.index(words[k], col) + 1


def emit_agq(doc: AgqDocument) -> str:
    """Canonical text: fixed declaration order, one arrow per line.

    parse(emit(x)) reproduces the semantic model; emitting again is
    byte-identical.
    """
    out = []
    if doc.name:
        out.append(f"algebra {doc.name}")
    if doc.vertices:
        out.append("vertex " + " ".join(doc.vertices))
    for a in doc.arrows:
        out.append(f"arrow {a.name} : {a.source} -> {a.target}")
    for a, b in doc.relations:
        out.append(f"rel {a} {b}")
    return "\n".join(out) + "\n"


def document_of(pair: AlmostGentlePair, name: str | None = None) -> AgqDocument:
    return AgqDocument(name, list(pair.quiver.vertices), list(pair.quiver.arrows), _sorted_relations(pair))


def load_pair(path: str) -> tuple[AgqDocument, AlmostGentlePair]:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # "?" stands for the first undecodable byte, so it ends the last line
        lines = _lines(data[:exc.start].decode("utf-8") + "?")
        raise ParseError(len(lines), len(lines[-1]), "file is not valid UTF-8") from None
    doc = parse_agq(text)
    return doc, doc.pair()
