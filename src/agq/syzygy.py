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
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .quiver import AgqError, AlmostGentlePair
from .strings import (
    DirectedString,
    _branches,
    _check_string,
    anticlaw_of,
    claw_of,
    module_dims,
    string_source,
)
from .quiver import vertex_type


class NotInjectiveCaseError(AgqError):
    """Raised for socle-block queries at a source vertex (E(v) = S(v))."""


@dataclass(frozen=True)
class Summand:
    """One indecomposable piece of a symbolic syzygy.

    kind is "simple", "string", "projective" (a summand recognized as
    P(vertex)), or "psi0" (the undecomposed socle block of an injective,
    tagged by its apex).  Length-zero strings are normalized to simples.
    """

    kind: str
    vertex: str | None = None
    arrows: tuple[str, ...] = ()

    @classmethod
    def simple(cls, v: str) -> "Summand":
        return cls("simple", v)

    @classmethod
    def string(cls, arrows: tuple[str, ...], anchor: str | None = None) -> "Summand":
        if not arrows:
            return cls.simple(anchor)  # type: ignore[arg-type]
        return cls("string", None, tuple(arrows))

    @classmethod
    def projective(cls, v: str) -> "Summand":
        return cls("projective", v)

    @classmethod
    def psi0(cls, v: str) -> "Summand":
        return cls("psi0", v)


_KIND_RANK = {"simple": 0, "string": 1, "projective": 2, "psi0": 3}


def summand_sort_key(pair: AlmostGentlePair, s: Summand):
    vidx = pair.quiver.vertex_index
    aidx = pair.quiver.arrow_index
    apex = s.vertex if s.vertex is not None else pair.arrow(s.arrows[0]).source
    return (_KIND_RANK[s.kind], vidx[apex], tuple(aidx[a] for a in s.arrows))


def summand_dims(pair: AlmostGentlePair, s: Summand) -> dict[str, int]:
    if s.kind == "simple":
        return {s.vertex: 1}  # type: ignore[dict-item]
    if s.kind == "string":
        return module_dims(pair, "string", DirectedString(s.arrows))
    if s.kind == "projective":
        return module_dims(pair, "projective", s.vertex)
    if s.kind == "psi0":
        return psi0_dim_vector(pair, s.vertex)  # type: ignore[arg-type]
    raise ValueError(s.kind)


@dataclass(frozen=True)
class SyzygyDecomposition:
    """Multiset of summands, stored with multiplicities (they grow fast)."""

    items: tuple[tuple[Summand, int], ...]

    @classmethod
    def of(cls, pair: AlmostGentlePair,
           summands: list[tuple[Summand, int]]) -> "SyzygyDecomposition":
        counts: dict[Summand, int] = {}
        for s, n in summands:
            if n:
                counts[s] = counts.get(s, 0) + n
        ordered = sorted(counts, key=lambda s: summand_sort_key(pair, s))
        return cls(tuple((s, counts[s]) for s in ordered))

    def dim_vector(self, pair: AlmostGentlePair) -> dict[str, int]:
        graph = _summand_graph(pair)
        dims: dict[str, int] = {}
        for s, n in self.items:
            for v, m in graph.dims[graph.node(pair, s)].items():
                dims[v] = dims.get(v, 0) + n * m
        return {v: n for v, n in dims.items() if n}

    def __bool__(self) -> bool:
        return bool(self.items)


def _after(pair: AlmostGentlePair, arrows: tuple[str, ...], k: int) -> Summand:
    """The string arrows[k+1:]; the simple at the target of arrows[k] if empty."""
    return Summand.string(arrows[k + 1:], pair.arrow(arrows[k]).target)


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
    n = len(_check_string(pair, delta))
    pieces: list[tuple[Summand, int]] = []
    for br in _branches(pair, string_source(pair, delta), True):
        k = n if br.arrows[:1] == delta.arrows[:1] else 0
        if k < len(br):
            pieces.append((_after(pair, br.arrows, k), 1))
    return SyzygyDecomposition.of(pair, pieces)


def is_gentle_vertex(pair: AlmostGentlePair, v: str) -> bool:
    """Local gentle conditions at v.

    In- and out-degree at most two, and each arrow through v composes to
    zero with at most one partner (the nonzero side is already bounded by
    validation).
    """
    pair.require_valid()
    pair.require_vertex(v)
    return _is_gentle_vertex(pair, v)


def _is_gentle_vertex(pair: AlmostGentlePair, v: str) -> bool:
    ins, outs = pair.quiver._in[v], pair.quiver._out[v]  # type: ignore[attr-defined]
    if len(ins) > 2 or len(outs) > 2:
        return False
    if not ins:
        return True
    rel_succ = pair.report.rel_succ  # an in-arrow's relation partners, among outs
    x = rel_succ[ins[0].name]
    if len(ins) == 1:
        return len(x) <= 1
    y = rel_succ[ins[1].name]
    # at most one partner each, and no out-arrow partnered with both
    return len(x) <= 1 and len(y) <= 1 and not (x and x == y)


@dataclass(frozen=True, slots=True)
class Psi0Descriptor:
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

    def flagged(self) -> list[DirectedString]:
        return [s for s, f in self.tails if f]


def psi0_descriptor(pair: AlmostGentlePair, v: str) -> Psi0Descriptor:
    """The socle-block shape of E(v), built from the claw of v when asked."""
    pair.require_valid()
    pair.require_vertex(v)
    return _psi0_descriptor(pair, v)


def _psi0_descriptor(pair: AlmostGentlePair, v: str) -> Psi0Descriptor:
    pred = pair._pred  # type: ignore[attr-defined]
    claw = _branches(pair, v, True)
    tails = tuple((tail, pred[tail.arrows[0]] is not None) for tail in claw)
    t = sum(1 for _, f in tails if f)
    return Psi0Descriptor(v, len(pair.quiver._in[v]), len(claw), t, tails)  # type: ignore[attr-defined]


def psi0_dim_vector(pair: AlmostGentlePair, v: str) -> dict[str, int]:
    """(c-1) at the apex plus one per vertex strictly along each flagged tail."""
    return _psi0_dim_vector(pair, psi0_descriptor(pair, v))


def _psi0_dim_vector(pair: AlmostGentlePair, desc: Psi0Descriptor) -> dict[str, int]:
    dims: dict[str, int] = {}
    if desc.c >= 2:
        dims[desc.apex] = desc.c - 1
    for tail in desc.flagged():
        for a in tail.arrows:
            t = pair.arrow(a).target
            dims[t] = dims.get(t, 0) + 1
    return {w: n for w, n in dims.items() if n}


def omega1_injective(pair: AlmostGentlePair, v: str) -> tuple[Psi0Descriptor, list[Summand]]:
    """First syzygy of E(v) as (socle-block descriptor, per-branch leftovers).

    The leftover list runs over the anti-claw branches: every claw branch of
    the branch source other than the one through the branch itself, minus
    its first arrow.  The socle block is returned symbolically.
    """
    pair.require_valid()
    c, _ = vertex_type(pair, v)
    if c == 0:
        raise NotInjectiveCaseError(f"E({v}) is the simple at the source {v}")
    desc = psi0_descriptor(pair, v)
    mlist: list[Summand] = []
    for branch in anticlaw_of(pair, v):
        x = string_source(pair, branch)
        first = branch.arrows[0]
        for br in claw_of(pair, x):
            if br.arrows[0] != first:
                mlist.append(_after(pair, br.arrows, 0))
    return desc, sorted(mlist, key=lambda s: summand_sort_key(pair, s))


def is_invalid_vertex(pair: AlmostGentlePair, v: str) -> tuple[bool, int | None]:
    """Five-way classification of when the socle block of E(v) is projective.

    Returns (verdict, first matching condition 1..5 or None):
    (1) gentle with two in-arrows, (2) sink, (3)/(4) one in-arrow whose
    nonzero continuation dies immediately (at a sink, or with no relation
    after its first arrow), (5) one in-arrow composing to zero with every
    out-arrow.
    """
    pair.require_valid()
    pair.require_vertex(v)
    return _is_invalid_vertex(pair, v)


def _is_invalid_vertex(pair: AlmostGentlePair, v: str) -> tuple[bool, int | None]:
    quiver = pair.quiver
    ins, outs = quiver._in[v], quiver._out[v]  # type: ignore[attr-defined]
    c, d = len(ins), len(outs)
    if c == 2 and _is_gentle_vertex(pair, v):
        return True, 1
    if d == 0:
        return True, 2
    if c == 1:
        # the flagged tail, if any, is the chain from the in-arrow's nonzero successor b
        succ = pair._succ  # type: ignore[attr-defined]
        b = succ[ins[0].name]
        if b is None:
            return True, 5
        if succ[b] is None:
            if not quiver._out[quiver._by_name[b].target]:  # type: ignore[attr-defined]
                return True, 3
        elif not pair.report.rel_succ[b]:
            return True, 4
    return False, None


def psi0_decompose(pair: AlmostGentlePair, v: str) -> SyzygyDecomposition | None:
    """Directed-string decomposition of the socle block, or None.

    For t < c the block is the flagged full tails plus c-1-t simples at the
    apex; for a single matched in-arrow it is the tail minus its first
    arrow.  When every in-arrow is matched and there are at least two the
    block is a tree outside the directed-string vocabulary (projective
    exactly when the vertex is invalid) and None is returned.
    """
    pair.require_valid()
    desc = psi0_descriptor(pair, v)
    if desc.c == 0:
        raise NotInjectiveCaseError(f"E({v}) is simple; no socle block")
    return _psi0_decompose(pair, desc)


def _psi0_decompose(pair: AlmostGentlePair, desc: Psi0Descriptor) -> SyzygyDecomposition | None:
    """psi0_decompose from the socle-block descriptor of E(v), v not a source."""
    if desc.t < desc.c:
        pieces = [(Summand.string(tail.arrows), 1) for tail in desc.flagged()]
        pieces.append((Summand.simple(desc.apex), desc.c - 1 - desc.t))
        return SyzygyDecomposition.of(pair, pieces)
    if desc.c == 1:
        tail = desc.flagged()[0]
        return SyzygyDecomposition.of(pair, [(_after(pair, tail.arrows, 0), 1)])
    return None


def psi0_omega1(pair: AlmostGentlePair, desc: Psi0Descriptor) -> list[tuple[Summand, int]]:
    """Exact first syzygy of the undecomposed (t = c >= 2) socle block.

    The cover is P(apex)^(c-1); per claw tail the kernel keeps c-2 copies of
    the tail minus its first arrow when the tail is flagged and c-1 copies
    when it is not.
    """
    c = desc.c
    pieces: list[tuple[Summand, int]] = []
    for tail, flag in desc.tails:
        mult = c - 2 if flag else c - 1
        if mult <= 0:
            continue
        pieces.append((_after(pair, tail.arrows, 0), mult))
    return pieces


@dataclass(frozen=True)
class ResolutionLevel:
    cover: tuple[tuple[str, int], ...]  # (vertex, multiplicity), declaration order
    syzygy: SyzygyDecomposition


@dataclass(frozen=True)
class Resolution:
    levels: tuple[ResolutionLevel, ...]
    terminated: str  # "projective" | "cutoff"

    @property
    def length(self) -> int:
        """Number of the last level, i.e. the projective dimension when terminated."""
        return len(self.levels) - 1


def _normalize(pair: AlmostGentlePair, s: Summand) -> Summand:
    """Recognize projective summands; symbolic termination needs no oracle."""
    outs = pair.quiver._out  # type: ignore[attr-defined]
    if s.kind == "simple":
        if not outs[s.vertex]:
            return Summand.projective(s.vertex)  # type: ignore[arg-type]
        return s
    if s.kind == "string":
        src = pair.quiver._by_name[s.arrows[0]].source  # type: ignore[attr-defined]
        if len(outs[src]) == 1 and pair._succ[s.arrows[-1]] is None:  # type: ignore[attr-defined]
            return Summand.projective(src)
        return s
    if s.kind == "psi0":
        if _is_invalid_vertex(pair, s.vertex)[0]:  # type: ignore[arg-type]
            # t = c = 2 and gentle: the block is the two-branch claw P(apex)
            return Summand.projective(s.vertex)  # type: ignore[arg-type]
        return s
    return s


def _omega1_of_summand(pair: AlmostGentlePair, s: Summand) -> Sequence[tuple[Summand, int]]:
    if s.kind == "projective":
        return ()
    if s.kind in ("simple", "string"):
        return omega1_directed_string(pair, DirectedString(s.arrows, s.vertex)).items
    raise ValueError(s.kind)


class _SummandGraph:
    """The summands met on one pair, numbered in the order they are met.

    Node n stores its summand, its sort key, its cover contribution (apex
    index, copies: c - 1 for a socle block, else 1), its dimension vector
    and, once asked for, its successors: the normalized first syzygy as
    [(node, multiplicity)].  An injective E(v) that is not simple enters
    the graph through its first syzygy, stored per vertex once asked for;
    an undecomposed socle block keeps the descriptor that E(v) built.
    The pair is passed in, never stored, so the pair's memo holds no cycle
    back to the pair.
    """

    def __init__(self) -> None:
        self.nodes: dict[Summand, int] = {}
        self.summands: list[Summand] = []
        self.keys: list[tuple] = []
        self.covers: list[tuple[int, int]] = []
        self.dims: list[dict[str, int]] = []
        self.succ: list[list[tuple[int, int]] | None] = []
        self.injectives: dict[str, tuple[dict[int, int], tuple[Summand, ...], dict[int, int]]] = {}
        self.blocks: dict[str, Psi0Descriptor] = {}  # apex -> descriptor of a "psi0" summand

    def node(self, pair: AlmostGentlePair, s: Summand) -> int:
        n = self.nodes.get(s)
        if n is None:
            n = self.nodes[s] = len(self.summands)
            key = summand_sort_key(pair, s)
            if s.kind == "psi0":
                desc = self.blocks[s.vertex]  # type: ignore[index]
                copies, dims = desc.c - 1, _psi0_dim_vector(pair, desc)
            else:
                copies, dims = 1, summand_dims(pair, s)
            self.summands.append(s)
            self.keys.append(key)
            self.covers.append((key[1], copies))
            self.dims.append(dims)
            self.succ.append(None)
        return n

    def count(self, pair: AlmostGentlePair, pieces: Iterable[tuple[Summand, int]]) -> dict[int, int]:
        """Multiplicity per node of the normalized pieces."""
        counts: dict[int, int] = {}
        for s, m in pieces:
            k = self.node(pair, _normalize(pair, s))
            counts[k] = counts.get(k, 0) + m
        return counts

    def successors(self, pair: AlmostGentlePair, n: int) -> list[tuple[int, int]]:
        succ = self.succ[n]
        if succ is None:
            s = self.summands[n]
            if s.kind == "psi0":
                pieces = psi0_omega1(pair, self.blocks[s.vertex])  # type: ignore[index]
            else:
                pieces = _omega1_of_summand(pair, s)
            succ = self.succ[n] = list(self.count(pair, pieces).items())
        return succ

    def injective(self, pair: AlmostGentlePair, v: str
                  ) -> tuple[dict[int, int], tuple[Summand, ...], dict[int, int]]:
        """E(v) at a vertex with in-arrows: its cover per vertex index, its
        per-branch leftovers, and its first syzygy as counts per node."""
        entry = self.injectives.get(v)
        if entry is None:
            desc, mlist = omega1_injective(pair, v)
            vidx = pair.quiver.vertex_index
            cover: dict[int, int] = {}
            for br in anticlaw_of(pair, v):
                x = vidx[string_source(pair, br)]
                cover[x] = cover.get(x, 0) + 1
            decomposed = _psi0_decompose(pair, desc)
            if decomposed is None:
                self.blocks[v] = desc
                block: Iterable[tuple[Summand, int]] = ((Summand.psi0(v), 1),)
            else:
                block = decomposed.items
            syzygy = self.count(pair, [(s, 1) for s in mlist] + list(block))
            entry = self.injectives[v] = (cover, tuple(mlist), syzygy)
        return entry


def _summand_graph(pair: AlmostGentlePair) -> _SummandGraph:
    return pair.memo("summand_graph", _SummandGraph)


def _level(pair: AlmostGentlePair, graph: _SummandGraph,
           cover: dict[int, int], syzygy: dict[int, int]) -> ResolutionLevel:
    """A level from cover counts per vertex index and syzygy counts per node."""
    vertices = pair.quiver.vertices
    return ResolutionLevel(
        tuple((vertices[i], cover[i]) for i in sorted(cover)),
        SyzygyDecomposition(tuple((graph.summands[n], syzygy[n])
                                  for n in sorted(syzygy, key=graph.keys.__getitem__))))


def resolve_symbolic(pair: AlmostGentlePair, kind: str, arg, max_steps: int = 64) -> Resolution:
    """Minimal projective resolution by symbolic syzygy iteration.

    kind is "simple", "string", or "injective".  Levels carry the cover of
    the current module and its syzygy; iteration stops when every summand
    is recognized projective, else after max_steps with a cutoff marker.
    Each level is a sum over the pair's summand graph.
    """
    pair.require_valid()
    graph = _summand_graph(pair)
    levels: list[ResolutionLevel] = []

    if kind == "injective":
        v = pair.require_vertex(arg)
        c, _ = vertex_type(pair, v)
        if c == 0:
            kind, arg = "simple", v
    if kind == "simple":
        current = graph.count(pair, [(Summand.simple(pair.require_vertex(arg)), 1)])
    elif kind == "string":
        ds: DirectedString = _check_string(pair, arg)
        current = graph.count(pair, [(Summand.string(ds.arrows, ds.vertex), 1)])
    elif kind == "injective":
        cover, _leftovers, current = graph.injective(pair, arg)
        levels.append(_level(pair, graph, cover, current))
        if not current:
            return Resolution(tuple(levels), "projective")
    else:
        raise ValueError(f"unknown module kind {kind!r}")

    while True:
        cover, nxt = {}, {}
        for n, count in current.items():
            x, copies = graph.covers[n]
            cover[x] = cover.get(x, 0) + count * copies
            for k, m in graph.successors(pair, n):
                nxt[k] = nxt.get(k, 0) + count * m
        levels.append(_level(pair, graph, cover, nxt))
        if not nxt:
            return Resolution(tuple(levels), "projective")
        if len(levels) > max_steps:
            return Resolution(tuple(levels), "cutoff")
        current = nxt
