"""Symbolic first syzygies, the kernel block over an injective's socle vertex,
and symbolic minimal projective resolutions.

The kernel of the projective cover of a directed string module is again a
direct sum of directed string modules: drop the covered prefix plus one more
arrow from the module's own claw branch, and the first arrow from every
other branch.  For an injective E(v) the kernel splits into per-branch
leftovers (the M-list) and the socle block, the part glued together over v;
the block decomposes into directed strings except when every in-arrow of v
matches an out-arrow and there are at least two, in which case it is a
genuine tree module handled by its own exact kernel formula.

Every lemma runs once, on the validation's index tables, over nodes
``(rank, apex, first, length)``, and one core steps resolutions over them;
``resolve_symbolic`` checks its arguments and hands out ``Summand``s.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .quiver import AlmostGentlePair, ValidationReport, _Frozen, _setattr
from .strings import (
    DirectedString,
    _check_string,
    _invalid_at,
    _names,
    claw_of,
)


class Summand(_Frozen):
    """One indecomposable piece of a symbolic syzygy.

    kind is "simple", "string", "projective" (a summand recognized as
    P(vertex)), or "psi0" (the undecomposed socle block of an injective,
    tagged by its apex).  Length-zero strings are normalized to simples.
    """

    kind: str
    vertex: str | None
    arrows: tuple[str, ...]
    _fields = ("kind", "vertex", "arrows")

    def __init__(self, kind: str, vertex: str | None = None, arrows: tuple[str, ...] = ()) -> None:
        _setattr(self, "kind", kind)
        _setattr(self, "vertex", vertex)
        _setattr(self, "arrows", arrows)


# A node is (rank, apex, first, length), all ints: rank indexes _KINDS, apex
# is a vertex index (a string's source), and a string has its first arrow
# index and arrow count, every other kind -1, 0.  Every string met is a
# slice of one chain, so two with the same first arrow are prefixes of each
# other: nodes sort as their summands do, by rank, apex, then arrow indices.
# Rank 4 is the injective E(apex) at a vertex with in-arrows, a start node
# only, never a summand.
_KINDS = ("simple", "string", "projective", "psi0")
Node = tuple[int, int, int, int]


def _vertex(pair: AlmostGentlePair, v: str) -> int:
    """The index of the vertex v of a valid pair, checked."""
    pair.require_valid()
    return pair.quiver.vertex_index[pair.require_vertex(v)]


def _after(report: ValidationReport, x: int) -> Node:
    """What follows arrow x on its chain: the rest of the chain, or the
    simple at its target when x ends the chain."""
    p, end = report.at[x] + 1, report.end[x]
    if p == end:
        return 0, report.target[x], -1, 0
    return 1, report.target[x], report.chain[p], end - p


def _node_of(pair: AlmostGentlePair, s: DirectedString) -> Node:
    """The node of a checked directed string."""
    if s.arrows:
        first = pair.quiver.arrow_index[s.arrows[0]]
        return 1, pair.report.source[first], first, len(s.arrows)
    return 0, pair.quiver.vertex_index[s.vertex], -1, 0  # type: ignore[index]


def _summand(pair: AlmostGentlePair, node: Node) -> Summand:
    rank, apex, first, length = node
    if rank == 1:
        at = pair.report.at[first]
        return Summand("string", None, _names(pair.report, at, at + length))
    return Summand(_KINDS[rank], pair.quiver.vertices[apex])


def _counts(pieces: Iterable[tuple[Node, int]]) -> dict[Node, int]:
    """Multiplicity per node, without the nodes that come to zero copies."""
    counts: dict[Node, int] = {}
    for node, m in pieces:
        if m:
            counts[node] = counts.get(node, 0) + m
    return counts


def _decomposition(pair: AlmostGentlePair, pieces: Iterable[tuple[Node, int]]) -> SyzygyDecomposition:
    counts = _counts(pieces)
    return SyzygyDecomposition(tuple((_summand(pair, n), counts[n]) for n in sorted(counts)))


class SyzygyDecomposition(_Frozen):
    """Multiset of summands, stored with multiplicities (they grow fast)."""

    items: tuple[tuple[Summand, int], ...]
    _fields = ("items",)

    def __bool__(self) -> bool:
        return bool(self.items)


def _omega1(report: ValidationReport, node: Node) -> list[tuple[Node, int]]:
    """First syzygy of the directed string module of a simple or string node.

    Every claw branch at the source contributes what is left after its
    first arrow, except the branch that the string starts: a checked string
    is a slice of its chain, so that branch is the string followed by its
    continuation, which contributes what is left after one more arrow
    (nothing if the string is the whole branch).  A length-zero string is
    the simple at its anchor, and every branch there contributes.
    """
    _rank, apex, first, length = node
    pieces = []
    for a in report.outs[apex]:
        if a == first:  # the string's own branch goes on from the arrow after it
            p = report.at[a] + length
            if p == report.end[a]:
                continue
            a = report.chain[p]
        pieces.append((_after(report, a), 1))
    return pieces


class Psi0Descriptor(_Frozen):
    """Shape of the socle block of Omega_1(E(apex)).

    tails lists the right maximal strings out of the apex in declaration
    order (the claw's branches), flagged when their first arrow has a
    nonzero predecessor, i.e. some in-arrow composes with it nonzero; the
    flag count is the crossing count t.
    """

    apex: str
    c: int
    d: int
    t: int
    tails: tuple[tuple[DirectedString, bool], ...]
    __slots__ = _fields = ("apex", "c", "d", "t", "tails")

    def flagged(self) -> list[DirectedString]:
        return [s for s, f in self.tails if f]


def psi0_descriptor(pair: AlmostGentlePair, v: str) -> Psi0Descriptor:
    """The socle-block shape of E(v), built from the claw of v when asked."""
    claw, report = claw_of(pair, v), pair.report
    i = pair.quiver.vertex_index[v]
    tails = tuple((tail, report.nonzero_pred[a] >= 0) for tail, a in zip(claw, report.outs[i]))
    t = sum(1 for _, f in tails if f)
    return Psi0Descriptor(v, len(report.ins[i]), len(claw), t, tails)


def _leftovers(report: ValidationReport, v: int) -> list[Node]:
    """The per-branch leftovers of Omega_1(E(v)) at a vertex index v, which
    run over the anti-claw branches: every claw branch of the branch source
    other than the one through the branch itself, minus its first arrow.
    The branch of an in-arrow starts at the head of the in-arrow's chain."""
    return [_after(report, a) for b in report.ins[v]
            for a in report.outs[report.source[report.head[b]]] if a != report.head[b]]


def is_invalid_vertex(pair: AlmostGentlePair, v: str) -> tuple[bool, int | None]:
    """Five-way classification of when the socle block of E(v) is projective.

    Returns (verdict, first matching condition 1..5 or None):
    (1) gentle with two in-arrows, (2) sink, (3)/(4) one in-arrow whose
    nonzero continuation dies immediately (at a sink, or with no relation
    after its first arrow), (5) one in-arrow composing to zero with every
    out-arrow.
    """
    return _invalid_at(pair.report, _vertex(pair, v))


def _block(report: ValidationReport, v: int) -> list[tuple[Node, int]] | None:
    """Directed-string decomposition of the socle block of E(v), at a vertex
    index v with in-arrows, or None.

    A tail is flagged when its first arrow has a nonzero predecessor.  For
    t < c the block is the flagged full tails plus c-1-t simples at the
    apex; for a single matched in-arrow it is the tail minus its first
    arrow.  When every in-arrow is matched and there are at least two the
    block is a tree outside the directed-string vocabulary (projective
    exactly when the vertex is invalid) and None is returned.
    """
    c = len(report.ins[v])
    flagged = [a for a in report.outs[v] if report.nonzero_pred[a] >= 0]
    if len(flagged) < c:
        # a flagged tail is the chain from its arrow, what follows its predecessor
        pieces = [(_after(report, report.nonzero_pred[a]), 1) for a in flagged]
        return pieces + [((0, v, -1, 0), c - 1 - len(flagged))]
    if c == 1:
        return [(_after(report, flagged[0]), 1)]
    return None


def _tree_omega1(report: ValidationReport, v: int) -> list[tuple[Node, int]]:
    """Exact first syzygy of the undecomposed (t = c >= 2) socle block of E(v).

    The cover is P(v)^(c-1); per claw tail the kernel keeps c-2 copies of
    the tail minus its first arrow when the tail is flagged and c-1 copies
    when it is not.
    """
    c = len(report.ins[v])
    return [(_after(report, a), c - 2 if report.nonzero_pred[a] >= 0 else c - 1) for a in report.outs[v]]


class ResolutionLevel(_Frozen):
    cover: tuple[tuple[str, int], ...]  # (vertex, multiplicity), declaration order
    syzygy: SyzygyDecomposition
    _fields = ("cover", "syzygy")


class Resolution(_Frozen):
    levels: tuple[ResolutionLevel, ...]
    terminated: str  # "projective" | "cutoff"
    _fields = ("levels", "terminated")

    @property
    def length(self) -> int:
        """Number of the last level, i.e. the projective dimension when terminated."""
        return len(self.levels) - 1


def _normalize(report: ValidationReport, node: Node) -> Node:
    """Recognize projective nodes; symbolic termination needs no oracle."""
    rank, apex, first, length = node
    if (rank == 0 and not report.outs[apex]
            or rank == 1 and len(report.outs[apex]) == 1 and report.at[first] + length == report.end[first]
            # t = c = 2 and gentle: the block is the two-branch claw P(apex)
            or rank == 3 and _invalid_at(report, apex)[0]):
        return 2, apex, -1, 0
    return node


class _Successors(dict):
    """The summand graph of one pair: the modules met on it, as nodes that
    are their own keys, each with its edges, computed when first read: the
    top of its projective cover as [(vertex index, multiplicity)] and its
    normalized first syzygy as [(node, multiplicity)], empty for a
    projective.  A node covers its apex, c - 1 times for a socle block,
    else once; the injective E(v) covers the source of each in-arrow's
    chain head once.  The graph keeps the pair's validation report, never
    the pair."""

    def __init__(self, report: ValidationReport) -> None:
        super().__init__()
        self.report = report

    def __missing__(self, node: Node) -> tuple[list[tuple[int, int]], list[tuple[Node, int]]]:
        report, rank, apex = self.report, node[0], node[1]
        if rank == 4:  # the socle block is its pieces, or its own node when it is a tree module
            top = list(_counts([(report.source[report.head[b]], 1) for b in report.ins[apex]]).items())
            pieces = [(n, 1) for n in _leftovers(report, apex)] + (_block(report, apex) or [((3, apex, -1, 0), 1)])
        else:
            top = [(apex, len(report.ins[apex]) - 1 if rank == 3 else 1)]
            pieces = _tree_omega1(report, apex) if rank == 3 else _omega1(report, node) if rank < 2 else []
        entry = self[node] = top, list(_counts([(_normalize(report, n), m) for n, m in pieces]).items())
        return entry


def _summand_graph(pair: AlmostGentlePair) -> _Successors:
    return pair.memo("summand_graph", lambda: _Successors(pair.report))


def _start(report: ValidationReport, kind: str, v: int) -> Node:
    """The normalized node of S(v) (kind "simple") or E(v) (kind
    "injective") at the vertex index v; E(v) at a vertex without in-arrows
    is its simple."""
    return _normalize(report, (4 if kind == "injective" and report.ins[v] else 0, v, -1, 0))


def _step(graph: _Successors, current: dict[Node, int]) -> tuple[dict[int, int], dict[Node, int]]:
    """The cover per vertex index and the syzygy counts per node of a sum of nodes."""
    cover: dict[int, int] = {}
    nxt: dict[Node, int] = {}
    for n, count in current.items():
        top, succ = graph[n]
        for x, m in top:
            cover[x] = cover.get(x, 0) + count * m
        for k, m in succ:
            nxt[k] = nxt.get(k, 0) + count * m
    return cover, nxt


def _levels(pair: AlmostGentlePair, kind: str, start,
            max_steps: int) -> Iterator[tuple[dict[int, int], dict[Node, int]]]:
    """The levels of resolve_symbolic, each (cover per vertex index, syzygy
    counts per node), stepped over the pair's summand graph from one node:
    for kind "simple" or "injective" the module at the vertex index start,
    for kind "string" the node start.  Nothing is checked."""
    report, graph = pair.report, _summand_graph(pair)
    current = {_normalize(report, start) if kind == "string" else _start(report, kind, start): 1}
    while True:
        cover, current = _step(graph, current)
        yield cover, current
        max_steps -= 1
        if not current or max_steps < 0:
            return


def resolve_symbolic(pair: AlmostGentlePair, kind: str, arg, max_steps: int = 64) -> Resolution:
    """Minimal projective resolution by symbolic syzygy iteration.

    kind is "simple", "string", or "injective".  Levels carry the cover of
    the current module and its syzygy; iteration stops when every summand
    is recognized projective, else, with a cutoff marker, after max_steps.
    """
    pair.require_valid()
    if kind == "string":
        start = _node_of(pair, _check_string(pair, arg))
    elif kind in ("simple", "injective"):
        start = _vertex(pair, arg)
    else:
        raise ValueError(f"unknown module kind {kind!r}")
    vertices = pair.quiver.vertices
    levels = tuple(ResolutionLevel(tuple((vertices[i], cover[i]) for i in sorted(cover)),
                                   _decomposition(pair, syzygy.items()))
                   for cover, syzygy in _levels(pair, kind, start, max_steps))
    return Resolution(levels, "cutoff" if levels[-1].syzygy else "projective")
