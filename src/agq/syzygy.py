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
the public functions check their arguments and hand out ``Summand``s.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .quiver import AgqError, AlmostGentlePair, ValidationReport, _Frozen, _setattr
from .strings import (
    DirectedString,
    _chains,
    _check_string,
    _gentle_at,
    _invalid_at,
    _run,
    claw_of,
    module_dims,
    string_of,
)


class NotInjectiveCaseError(AgqError):
    """Raised for socle-block queries at a source vertex (E(v) = S(v))."""


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
_KINDS = ("simple", "string", "projective", "psi0")
Node = tuple[int, int, int, int]


def _vertex(pair: AlmostGentlePair, v: str) -> int:
    """The index of the vertex v of a valid pair, checked."""
    pair.require_valid()
    return pair.quiver.vertex_index[pair.require_vertex(v)]


def _walk(succ: list[int], i: int, n: int) -> int:
    """The arrow n steps after arrow i along its chain, -1 just past its end."""
    for _ in range(n):
        i = succ[i]
    return i


def _after(report: ValidationReport, x: int) -> Node:
    """What follows arrow x on its chain: the chain from its nonzero
    successor on, or the simple at its target when x ends the chain."""
    succ = report.nonzero_succ
    y = n = succ[x]
    if y < 0:
        return 0, report.target[x], -1, 0
    length = 0
    while n >= 0:
        length, n = length + 1, succ[n]
    return 1, report.target[x], y, length


def _node_of(pair: AlmostGentlePair, s: Summand | DirectedString) -> Node:
    """The node of a summand, its arrows checked, or of a checked directed string."""
    if s.arrows:
        if isinstance(s, Summand):
            string_of(pair, s.arrows)
        first = pair.quiver.arrow_index[s.arrows[0]]
        return 1, pair.report.source[first], first, len(s.arrows)
    rank = _KINDS.index(s.kind) if isinstance(s, Summand) else 0
    return rank, pair.quiver.vertex_index[s.vertex], -1, 0  # type: ignore[index]


def _summand(pair: AlmostGentlePair, node: Node) -> Summand:
    rank, apex, first, length = node
    if rank == 1:
        return Summand("string", None, _run(pair, first, _walk(pair.report.nonzero_succ, first, length)))
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


def _dims(pair: AlmostGentlePair, node: Node) -> dict[int, int]:
    """The dimension vector of a node, by vertex index.  A socle block has
    c-1 at its apex plus one per vertex strictly along each flagged tail."""
    rank, apex, first, length = node
    if rank == 2:
        vidx = pair.quiver.vertex_index
        return {vidx[w]: n for w, n in module_dims(pair, "projective", pair.quiver.vertices[apex]).items()}
    report = pair.report
    if rank == 3:
        basis = [apex] * (len(report.ins[apex]) - 1)
        runs = [(a, -1) for a in report.outs[apex] if report.nonzero_pred[a] >= 0]
    else:
        basis, runs = [apex], [(first, length)]
    for a, n in runs:  # n arrows from a on, or the whole chain when n is -1
        while a >= 0 and n:
            basis.append(report.target[a])
            a, n = report.nonzero_succ[a], n - 1
    dims: dict[int, int] = {}
    for w in basis:
        dims[w] = dims.get(w, 0) + 1
    return dims


class SyzygyDecomposition(_Frozen):
    """Multiset of summands, stored with multiplicities (they grow fast)."""

    items: tuple[tuple[Summand, int], ...]
    _fields = ("items",)

    @classmethod
    def of(cls, pair: AlmostGentlePair,
           summands: list[tuple[Summand, int]]) -> "SyzygyDecomposition":
        return _decomposition(pair, ((_node_of(pair, s), n) for s, n in summands))

    def dim_vector(self, pair: AlmostGentlePair) -> dict[str, int]:
        dims = _summand_graph(pair).dim_sum(pair, _counts((_node_of(pair, s), n) for s, n in self.items))
        return {pair.quiver.vertices[w]: n for w, n in dims.items()}

    def __bool__(self) -> bool:
        return bool(self.items)


def _omega1(report: ValidationReport, node: Node) -> list[tuple[Node, int]]:
    """omega1_directed_string on a simple or string node: each out-arrow of
    the apex gives what follows it, or, for the one the string starts, what
    follows the string's next arrow, if any."""
    _rank, apex, first, length = node
    pieces = []
    for a in report.outs[apex]:
        x = _walk(report.nonzero_succ, a, length) if a == first else a
        if x >= 0:
            pieces.append((_after(report, x), 1))
    return pieces


def omega1_directed_string(pair: AlmostGentlePair, delta: DirectedString) -> SyzygyDecomposition:
    """First syzygy of the directed string module M(delta).

    Every claw branch at the source contributes what is left after its
    first arrow, except the branch that delta starts: a checked string is a
    slice of its chain, so that branch is delta followed by its
    continuation, which contributes what is left after one more arrow
    (nothing if delta is the whole branch).  A length-zero string is the
    simple at its anchor, and every branch there contributes.
    """
    pair.require_valid()
    return _decomposition(pair, _omega1(pair.report, _node_of(pair, _check_string(pair, delta))))


def is_gentle_vertex(pair: AlmostGentlePair, v: str) -> bool:
    """Local gentle conditions at v.

    In- and out-degree at most two, and each arrow through v composes to
    zero with at most one partner (the nonzero side is already bounded by
    validation).
    """
    return _gentle_at(pair.report, _vertex(pair, v))


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
    claw = claw_of(pair, v)
    pred, idx = pair.report.nonzero_pred, pair.quiver.arrow_index
    tails = tuple((tail, pred[idx[tail.arrows[0]]] >= 0) for tail in claw)
    t = sum(1 for _, f in tails if f)
    return Psi0Descriptor(v, len(pair.report.ins[pair.quiver.vertex_index[v]]), len(claw), t, tails)


def psi0_dim_vector(pair: AlmostGentlePair, v: str) -> dict[str, int]:
    """(c-1) at the apex plus one per vertex strictly along each flagged tail."""
    dims = _dims(pair, (3, _vertex(pair, v), -1, 0))
    return {pair.quiver.vertices[w]: n for w, n in dims.items()}


def _leftovers(pair: AlmostGentlePair, v: int) -> list[Node]:
    """The per-branch leftovers of Omega_1(E(v)): for each in-arrow of v,
    what follows every other out-arrow at the source of its anti-claw
    branch, which starts at the head of the in-arrow's chain."""
    report, head = pair.report, _chains(pair)[0]
    return [_after(report, a) for b in report.ins[v]
            for a in report.outs[report.source[head[b]]] if a != head[b]]


def omega1_injective(pair: AlmostGentlePair, v: str) -> tuple[Psi0Descriptor, list[Summand]]:
    """First syzygy of E(v) as (socle-block descriptor, per-branch leftovers).

    The leftover list runs over the anti-claw branches: every claw branch of
    the branch source other than the one through the branch itself, minus
    its first arrow.  The socle block is returned symbolically.
    """
    i = _vertex(pair, v)
    if not pair.report.ins[i]:
        raise NotInjectiveCaseError(f"E({v}) is the simple at the source {v}")
    return psi0_descriptor(pair, v), [_summand(pair, n) for n in sorted(_leftovers(pair, i))]


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
    """psi0_decompose at a vertex index with in-arrows; a tail is flagged
    when its first arrow has a nonzero predecessor."""
    c = len(report.ins[v])
    flagged = [a for a in report.outs[v] if report.nonzero_pred[a] >= 0]
    if len(flagged) < c:
        # a flagged tail is the chain from its arrow, what follows its predecessor
        pieces = [(_after(report, report.nonzero_pred[a]), 1) for a in flagged]
        return pieces + [((0, v, -1, 0), c - 1 - len(flagged))]
    if c == 1:
        return [(_after(report, flagged[0]), 1)]
    return None


def psi0_decompose(pair: AlmostGentlePair, v: str) -> SyzygyDecomposition | None:
    """Directed-string decomposition of the socle block, or None.

    For t < c the block is the flagged full tails plus c-1-t simples at the
    apex; for a single matched in-arrow it is the tail minus its first
    arrow.  When every in-arrow is matched and there are at least two the
    block is a tree outside the directed-string vocabulary (projective
    exactly when the vertex is invalid) and None is returned.
    """
    i = _vertex(pair, v)
    if not pair.report.ins[i]:
        raise NotInjectiveCaseError(f"E({v}) is simple; no socle block")
    block = _block(pair.report, i)
    return None if block is None else _decomposition(pair, block)


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
            or rank == 1 and len(report.outs[apex]) == 1 and _walk(report.nonzero_succ, first, length) < 0
            # t = c = 2 and gentle: the block is the two-branch claw P(apex)
            or rank == 3 and _invalid_at(report, apex)[0]):
        return 2, apex, -1, 0
    return node


class _SummandGraph:
    """The summands met on one pair, as nodes that are their own keys.

    Each once asked for, it stores per node its dimension vector by vertex
    index with its total, and its successors: the normalized first syzygy
    as [(node, multiplicity)], empty for a projective.  An injective E(v)
    that is not simple enters through its cover per vertex index and its
    first syzygy as counts per node.  A node covers its apex, c - 1 times
    for a socle block, else once.  The pair is passed in, never stored.
    """

    def __init__(self) -> None:
        self.dims: dict[Node, tuple[dict[int, int], int]] = {}
        self.succ: dict[Node, list[tuple[Node, int]]] = {}
        self.injectives: dict[int, tuple[dict[int, int], dict[Node, int]]] = {}

    def dims_of(self, pair: AlmostGentlePair, node: Node) -> tuple[dict[int, int], int]:
        entry = self.dims.get(node)
        if entry is None:
            dims = _dims(pair, node)
            entry = self.dims[node] = dims, sum(dims.values())
        return entry

    def dim_sum(self, pair: AlmostGentlePair, counts: dict[Node, int]) -> dict[int, int]:
        """The dimension vector of a sum of nodes, by vertex index."""
        total: dict[int, int] = {}
        for node, m in counts.items():
            for w, d in self.dims_of(pair, node)[0].items():
                total[w] = total.get(w, 0) + d * m
        return total

    def count(self, pair: AlmostGentlePair, pieces: Iterable[tuple[Node, int]]) -> dict[Node, int]:
        return _counts((_normalize(pair.report, n), m) for n, m in pieces)  # normalized multiplicities

    def successors(self, pair: AlmostGentlePair, node: Node) -> list[tuple[Node, int]]:
        succ = self.succ.get(node)
        if succ is None:
            report = pair.report
            pieces = (_tree_omega1(report, node[1]) if node[0] == 3
                      else _omega1(report, node) if node[0] < 2 else [])
            succ = self.succ[node] = list(self.count(pair, pieces).items())
        return succ

    def injective(self, pair: AlmostGentlePair, v: int) -> tuple[dict[int, int], dict[Node, int]]:
        """E(v) at a vertex index with in-arrows: its cover per vertex index
        and its first syzygy as counts per node."""
        entry = self.injectives.get(v)
        if entry is None:
            report, head = pair.report, _chains(pair)[0]
            cover: dict[int, int] = {}
            for b in report.ins[v]:
                x = report.source[head[b]]
                cover[x] = cover.get(x, 0) + 1
            block = _block(report, v)
            if block is None:
                block = [((3, v, -1, 0), 1)]
            syzygy = self.count(pair, [(n, 1) for n in _leftovers(pair, v)] + block)
            entry = self.injectives[v] = (cover, syzygy)
        return entry


def _summand_graph(pair: AlmostGentlePair) -> _SummandGraph:
    return pair.memo("summand_graph", _SummandGraph)


def _levels(pair: AlmostGentlePair, kind: str, start, max_steps: int,
            max_dim: int | None = None) -> Iterator[tuple[dict[int, int], dict[Node, int]]]:
    """The levels of resolve_symbolic, each (cover per vertex index, syzygy
    counts per node), stepped over the pair's summand graph for kind "simple"
    or "injective" at the vertex index start, or "string" at the node start,
    and cut after the first syzygy of total dimension above max_dim, if
    given; nothing is checked."""
    graph, report = _summand_graph(pair), pair.report

    def too_big(counts: dict[Node, int]) -> bool:
        return max_dim is not None and sum(m * graph.dims_of(pair, n)[1] for n, m in counts.items()) > max_dim

    made = 0
    if kind == "injective" and report.ins[start]:
        made, (cover, current) = 1, graph.injective(pair, start)
        yield cover, current
        if not current or too_big(current):
            return
    else:
        current = graph.count(pair, [(start if kind == "string" else (0, start, -1, 0), 1)])
    while True:
        cover, nxt = {}, {}
        for n, count in current.items():
            x = n[1]
            cover[x] = cover.get(x, 0) + count * (len(report.ins[x]) - 1 if n[0] == 3 else 1)
            for k, m in graph.successors(pair, n):
                nxt[k] = nxt.get(k, 0) + count * m
        yield cover, nxt
        made += 1
        if not nxt or made > max_steps or too_big(nxt):
            return
        current = nxt


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
