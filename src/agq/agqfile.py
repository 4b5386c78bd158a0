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
from dataclasses import dataclass, field

from .quiver import AgqError, AlmostGentlePair, Arrow, Quiver

_TOKEN = r"[A-Za-z0-9_']+"
_ARROW_RE = re.compile(rf"({_TOKEN})\s*:\s*({_TOKEN})\s*->\s*({_TOKEN})\s*\Z")
_TOKEN_RE = re.compile(_TOKEN + r"\Z")


class ParseError(AgqError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


@dataclass
class AgqDocument:
    """Parsed .agq source; builds the pair and remembers source lines."""

    name: str | None = None
    vertices: list[str] = field(default_factory=list)
    arrows: list[Arrow] = field(default_factory=list)
    relations: list[tuple[str, str]] = field(default_factory=list)
    line_of: dict[str, int] = field(default_factory=dict)

    def pair(self) -> AlmostGentlePair:
        return AlmostGentlePair.build(Quiver(tuple(self.vertices), tuple(self.arrows)),
                                      frozenset(self.relations))


def parse_agq(text: str) -> AgqDocument:
    doc = AgqDocument()
    explicit_vertices = False
    arrow_at: dict[str, tuple[int, int, int]] = {}  # line, columns of source and target
    rel_names_at: list[tuple[int, int, int]] = []  # line, columns of the two names
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        head, rest = parts[0], (parts[1] if len(parts) > 1 else "")
        if head == "algebra":
            if not _TOKEN_RE.match(rest.strip()):
                raise ParseError(lineno, len(head) + 2, f"bad algebra name {rest.strip()!r}")
            doc.name = rest.strip()
        elif head == "vertex":
            names = rest.split()
            if not names:
                raise ParseError(lineno, len(head) + 1, "vertex line needs at least one name")
            col = raw.index(head) + len(head)
            for name in names:
                col = raw.index(name, col)
                if not _TOKEN_RE.match(name):
                    raise ParseError(lineno, col + 1, f"bad vertex name {name!r}")
                if name in doc.line_of and explicit_vertices:
                    raise ParseError(lineno, col + 1,
                                     f"vertex {name!r} already declared on line {doc.line_of[name]}")
                if name not in doc.line_of:
                    doc.vertices.append(name)
                    doc.line_of[name] = lineno
                col += len(name)
            explicit_vertices = True
        elif head == "arrow":
            m = _ARROW_RE.match(rest)
            if not m:
                raise ParseError(lineno, len(head) + 2, "expected 'arrow NAME : SRC -> TGT'")
            name, src, tgt = m.groups()
            at = raw.index(rest, raw.index(head) + len(head)) + 1  # column where rest starts
            if name in arrow_at:
                raise ParseError(lineno, at + m.start(1),
                                 f"arrow {name!r} already declared on line {arrow_at[name][0]}")
            arrow_at[name] = (lineno, at + m.start(2), at + m.start(3))
            doc.arrows.append(Arrow(name, src, tgt))
        elif head == "rel":
            names = rest.split()
            if len(names) != 2 or not all(_TOKEN_RE.match(n) for n in names):
                raise ParseError(lineno, len(head) + 2, "expected 'rel A B' (the path A then B)")
            first = raw.index(names[0], raw.index(head) + len(head))
            second = raw.index(names[1], first + len(names[0]))
            doc.relations.append((names[0], names[1]))
            rel_names_at.append((lineno, first + 1, second + 1))
        else:
            raise ParseError(lineno, 1, f"unknown declaration {head!r}")

    arrow_names = {a.name for a in doc.arrows}
    for (a, b), (lineno, col_a, col_b) in zip(doc.relations, rel_names_at):
        for n, col in ((a, col_a), (b, col_b)):
            if n not in arrow_names:
                raise ParseError(lineno, col, f"relation mentions unknown arrow {n!r}")
    if not explicit_vertices:
        doc.vertices = list(dict.fromkeys(v for a in doc.arrows for v in (a.source, a.target)))
    else:
        for a in doc.arrows:
            lineno, col_src, col_tgt = arrow_at[a.name]
            for v, col in ((a.source, col_src), (a.target, col_tgt)):
                if v not in doc.line_of:
                    raise ParseError(lineno, col, f"arrow {a.name!r} uses undeclared vertex {v!r}")
    return doc


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
    idx = pair.quiver.arrow_index
    return AgqDocument(name, list(pair.quiver.vertices), list(pair.quiver.arrows),
                       sorted(pair.relations, key=lambda e: (idx[e[0]], idx[e[1]])))


def load_pair(path: str) -> tuple[AgqDocument, AlmostGentlePair]:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # "?" stands for the first undecodable byte, so it ends the last line
        lines = (data[:exc.start].decode("utf-8") + "?").splitlines()
        raise ParseError(len(lines), len(lines[-1]), "file is not valid UTF-8") from None
    doc = parse_agq(text)
    return doc, doc.pair()
