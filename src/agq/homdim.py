"""Closed-form homological dimensions and the Gorenstein report.

Projective dimensions of simples and directed strings reduce to longest
forbidden paths; the projective dimension of an injective E(v) additionally
tracks the socle block of its first syzygy.  Values live in integer
tables, and witnesses are built from pointers on demand: a finite value's
witness is a forbidden path of exactly that length, an infinite one's a
lasso whose loop is a forbidden cycle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .forbidden import (
    _INFINITE,
    _NO_WALK,
    ZERO,
    ForbiddenWalk,
    LengthOrInf,
    _DigraphData,
    _length_value,
    delta_forbidden_sup,
    digraph_data,
)
from .quiver import AlmostGentlePair
from .strings import DirectedString, _chains, socle_supports
from .syzygy import _is_gentle_vertex, _is_invalid_vertex, is_invalid_vertex


_UNBUILT = object()


class DimReport:
    """A dimension, the method that found it and, for a maximum over the
    vertices, the first vertex attaining it.  Read-only.

    The witness is a forbidden path of exactly that length, a lasso whose
    loop is a forbidden cycle, or None for 0.  A report read off the pair's
    length table keeps a pointer into it and builds the witness the first
    time it is read.
    """

    __slots__ = ("_length", "_method", "_at", "_pointer", "_data", "_witness")

    def __init__(self, value: LengthOrInf, witness: ForbiddenWalk | None, method: str,
                 attained_at: str | None = None):
        self._length = _INFINITE if value.value is None else value.value
        self._method, self._at = method, attained_at
        self._pointer, self._data, self._witness = _NO_WALK, None, witness

    @property
    def value(self) -> LengthOrInf:
        return _length_value(self._length)

    @property
    def witness(self) -> ForbiddenWalk | None:
        if self._witness is _UNBUILT:
            self._witness = self._data.walk(*self._pointer)  # type: ignore[union-attr]
        return self._witness  # type: ignore[return-value]

    @property
    def method(self) -> str:
        return self._method

    @property
    def attained_at(self) -> str | None:
        return self._at

    def _fields(self) -> tuple:
        return self.value, self.witness, self._method, self._at

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DimReport):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return "DimReport(value={!r}, witness={!r}, method={!r}, attained_at={!r})".format(*self._fields())


def _pointed(data: _DigraphData, n, pointer: tuple[int, int], method: str,
             attained_at: str | None = None) -> DimReport:
    """A report of length-table value n whose witness is spelled by pointer."""
    rep = DimReport.__new__(DimReport)
    rep._length, rep._method, rep._at = n, method, attained_at
    rep._pointer, rep._data, rep._witness = pointer, data, _UNBUILT
    return rep


@dataclass(frozen=True)
class GorensteinReport:
    gldim: DimReport
    injdim: DimReport
    gorenstein: bool
    cycle_criterion: bool
    envelope_pdim: LengthOrInf
    auslander_note: str


class _VertexTable:
    """Every vertex's dimensions on one pair, read off the length table in
    one pass.  Lists indexed by vertex_index:

    - ``top_len``/``top``: the best out-arrow sup, as length and arrow index
      (0 and -1 at a sink), which is pd S(v); ``second_len``/``second``:
      the best sup over the other out-arrows.  Ties go to the
      earlier-declared arrow, so the best sup skipping one out-arrow b is
      the second if b is the top, else the top.
    - ``inj_len``, ``inj_ptr``, ``inj_method``: pd E(v) as length, witness
      pointer and method.
    - ``invalid``, ``gentle``: the vertex flags of the JSON report.

    The public reports are built when first asked for and kept here, so a
    repeated query returns the same object.
    """

    def __init__(self, pair: AlmostGentlePair):
        quiver = pair.quiver
        self.vidx = vidx = quiver.vertex_index
        self.data = data = digraph_data(pair)
        length, idx, names = data.length, data.idx, data.names
        n_v = len(vidx)
        top_len, top = [0] * n_v, [-1] * n_v
        second_len, second = [0] * n_v, [-1] * n_v
        source: list[int] = []
        outs: list[list[int]] = [[] for _ in range(n_v)]
        ins: list[list[int]] = [[] for _ in range(n_v)]
        for i, a in enumerate(quiver.arrows):
            s = vidx[a.source]
            source.append(s)
            outs[s].append(i)
            ins[vidx[a.target]].append(i)
            n = length[i]
            if n > top_len[s]:
                second_len[s], second[s] = top_len[s], top[s]
                top_len[s], top[s] = n, i
            elif n > second_len[s]:
                second_len[s], second[s] = n, i
        # the nonzero successor and predecessor of each arrow, -1 for None
        succ = [idx.get(b, -1) for b in map(pair._succ.__getitem__, names)]  # type: ignore[attr-defined]
        pred = [idx.get(b, -1) for b in map(pair._pred.__getitem__, names)]  # type: ignore[attr-defined]
        chains = _chains(pair)
        head = [idx[chains[a][0][0]] for a in names]  # the first arrow of each arrow's chain

        self.top_len, self.top, self.second_len, self.second = top_len, top, second_len, second
        self.gentle = [_is_gentle_vertex(pair, v) for v in quiver.vertices]
        self.invalid = [_is_invalid_vertex(pair, v)[0] for v in quiver.vertices]
        self.inj_len: list = [0] * n_v
        self.inj_ptr: list[tuple[int, int]] = [_NO_WALK] * n_v
        self.inj_method = ["injective-syzygy"] * n_v
        for v in range(n_v):
            if not ins[v]:
                self.inj_len[v], self.inj_ptr[v] = top_len[v], (-1, top[v])
                self.inj_method[v] = "injective-as-simple"
                continue
            self.inj_len[v], self.inj_ptr[v] = self._injective(v, ins[v], outs[v], source, succ, pred, head)
        self.simple_reports: list[DimReport | None] = [None] * n_v
        self.injective_reports: list[DimReport | None] = [None] * n_v

    def _injective(self, v: int, ins: list[int], outs: list[int], source: list[int],
                   succ: list[int], pred: list[int], head: list[int]) -> tuple:
        """pd E(v) for v not a source, as (length, pointer).  A candidate's
        pointer is a head arrow (an in-arrow of v, or -1) followed by an
        arrow's witness (or -1)."""
        length = self.data.length
        top_len, top, second_len, second = self.top_len, self.top, self.second_len, self.second
        c = len(ins)
        matched: list[tuple[int, int]] = []  # (in-arrow, its nonzero successor)
        unmatched = -1  # the first in-arrow without one
        # The per-branch leftovers' best: the sup at the source of each
        # in-arrow's chain head, skipping the head.  Their witnesses begin
        # with different arrows, so ties go to the earlier-declared arrow.
        left_len, left = 0, -1
        for a in ins:
            h = head[a]
            s = source[h]
            n, i = (second_len[s], second[s]) if top[s] == h else (top_len[s], top[s])
            if n > left_len or (n == left_len and i < left):
                left_len, left = n, i
            b = succ[a]
            if b >= 0:
                matched.append((a, b))
            elif unmatched < 0:
                unmatched = a

        candidates: list[tuple] = [(left_len, (-1, left))]
        t = len(matched)  # the socle block's crossing count
        if t < c:
            if c - 1 - t >= 1:
                candidates.append((top_len[v] + 1, (unmatched, top[v])))
            for a, b in matched:
                n, i = (second_len[v], second[v]) if top[v] == b else (top_len[v], top[v])
                candidates.append((n + 1, (a, i)))
        elif c == 1:
            b = matched[0][1]
            candidates.append((length[b], (-1, b)))
        elif self.invalid[v]:
            candidates.append((1, (outs[0], -1)))
        else:
            for b in outs:
                if pred[b] >= 0:  # some in-arrow composes with b nonzero
                    if c == 2:
                        continue  # multiplicity c-2 = 0 in the block's syzygy
                    alpha = next(a for a in ins if succ[a] != b)
                else:
                    alpha = ins[0]
                candidates.append((length[b] + 1, (alpha, b)))
        return self.data.best(candidates)

    def simple(self, v: str) -> DimReport:
        """The report of pd S(v), for a vertex name already checked."""
        i = self.vidx[v]
        rep = self.simple_reports[i]
        if rep is None:
            rep = self.simple_reports[i] = _pointed(self.data, self.top_len[i], (-1, self.top[i]),
                                                    "forbidden-from-vertex")
        return rep

    def injective(self, v: str) -> DimReport:
        """The report of pd E(v), for a vertex name already checked."""
        i = self.vidx[v]
        rep = self.injective_reports[i]
        if rep is None:
            rep = self.injective_reports[i] = _pointed(self.data, self.inj_len[i], self.inj_ptr[i],
                                                       self.inj_method[i])
        return rep


def _vertex_table(pair: AlmostGentlePair) -> _VertexTable:
    return pair.memo("vertices", lambda: _VertexTable(pair))


def pdim_simple(pair: AlmostGentlePair, v: str) -> DimReport:
    """proj.dim S(v) = sup of forbidden-path lengths out of v."""
    pair.require_valid()
    pair.require_vertex(v)
    return _vertex_table(pair).simple(v)


def global_dimension(pair: AlmostGentlePair) -> DimReport:
    """Sup of the simple dimensions; infinite iff a forbidden cycle exists."""
    pair.require_valid()
    table = _vertex_table(pair)
    data = table.data
    best_len, best = 0, _NO_WALK
    for n, i in zip(table.top_len, table.top):
        if n > best_len or (n == best_len and data.precedes((-1, i), best)):
            best_len, best = n, (-1, i)
    vertices = pair.quiver.vertices
    at = vertices[table.top_len.index(best_len)] if vertices else None  # the first vertex attaining it
    return _pointed(data, best_len, best, "forbidden-global", at)


def pdim_directed_string(pair: AlmostGentlePair, delta: DirectedString) -> DimReport:
    """proj.dim M(delta) for any directed string.

    Counts forbidden paths continuing past the sink of delta plus those from
    its source with a different first arrow; this is exactly one syzygy step
    unrolled, so no right-maximality is needed.
    """
    return DimReport(*delta_forbidden_sup(pair, delta), "delta-forbidden")


def pdim_injective(pair: AlmostGentlePair, v: str) -> DimReport:
    """proj.dim E(v), exactly, with a forbidden-path witness.

    Sources reduce to the simple case.  Otherwise the per-branch leftovers
    of the first syzygy contribute the sup over arrows at each branch source
    other than the branch itself, and the socle block contributes case-wise
    by its own exact syzygy: matched tails restart from the other arrows at
    v one step later, unmatched in-arrows restart from all of them, a lone
    matched in-arrow continues past v, and an everything-matched block with
    at least two in-arrows restarts from its surviving tails.
    """
    pair.require_valid()
    pair.require_vertex(v)
    return _vertex_table(pair).injective(v)


def self_injective_dimension(pair: AlmostGentlePair) -> DimReport:
    """max over vertices of proj.dim E(v), recording the attaining vertex."""
    pair.require_valid()
    best: DimReport | None = None
    at = None
    # Each public call is a check and a read of the vertex table; the
    # benchmark's tracer test pins these calls (perfbench/tests).
    for v in pair.quiver.vertices:
        rep = pdim_injective(pair, v)
        if best is None or rep._length > best._length:
            best, at = rep, v
    if best is None:
        return DimReport(ZERO, None, "self-injective", None)
    return _pointed(digraph_data(pair), best._length, best._pointer, "self-injective", at)


def self_injective_infinite_by_cycle(pair: AlmostGentlePair) \
        -> tuple[bool, tuple[tuple[str, ...], str, str, str] | None]:
    """The forbidden-cycle escape criterion for infinite self-injective dimension.

    True iff some vertex v carrying a cycle edge (x, y) of the relation
    digraph admits (A) an extra in-arrow alpha with alpha*y a relation or
    (B) an extra out-arrow beta with x*beta a relation.  The witness is
    (cycle, vertex, "A" or "B", the extra arrow).
    """
    pair.require_valid()
    data = digraph_data(pair)
    cyclic, scc, idx = data.cyclic_node, data.scc, data.idx
    cycle_edges = [(x, y) for x, y in pair.relations
                   if x in cyclic and y in cyclic and scc[idx[x]] == scc[idx[y]]]
    for x, y in sorted(cycle_edges, key=lambda e: (data.idx[e[0]], data.idx[e[1]])):
        v = pair.quiver._by_name[y].source  # type: ignore[attr-defined]
        for alpha in pair.quiver._in[v]:  # type: ignore[attr-defined]
            if alpha.name != x and (alpha.name, y) in pair.relations:
                cycle = _cycle_through_edge(pair, x, y)
                return True, (cycle, v, "A", alpha.name)
        for beta in pair.quiver._out[v]:  # type: ignore[attr-defined]
            if beta.name != y and (x, beta.name) in pair.relations:
                cycle = _cycle_through_edge(pair, x, y)
                return True, (cycle, v, "B", beta.name)
    return False, None


def _cycle_through_edge(pair: AlmostGentlePair, x: str, y: str) -> tuple[str, ...]:
    """An elementary forbidden cycle through the digraph edge x -> y."""
    data = digraph_data(pair)
    scc, idx = data.scc, data.idx
    comp = scc[idx[x]]
    if x == y:
        return (x,)
    # walk y -> ... -> x inside the component, shortest first for determinism
    prev: dict[str, str] = {}
    dq = deque([y])
    while dq:
        node = dq.popleft()
        if node == x:
            break
        for ch in data.succ[node]:
            if scc[idx[ch]] == comp and ch not in prev and ch != y:
                prev[ch] = node
                dq.append(ch)
    path = [x]
    while path[-1] != y:
        path.append(prev[path[-1]])
    path.reverse()  # y ... x
    idx = pair.quiver.arrow_index
    k = min(range(len(path)), key=lambda i: idx[path[i]])
    return tuple(path[k:] + path[:k])


def noninvalid_cycle_vertex(pair: AlmostGentlePair) -> tuple[bool, str | None]:
    """Whether some vertex on a forbidden cycle fails the invalid-vertex test.

    Kept as a separate predicate: it does not characterize infinite
    self-injective dimension (counterexamples in both directions exist), and
    the acceptance suite records where it disagrees.
    """
    pair.require_valid()
    data = digraph_data(pair)
    for a in pair.quiver.arrows:
        if a.name in data.cyclic_node:
            if not is_invalid_vertex(pair, a.source)[0]:
                return True, a.source
    return False, None


def pdim_injective_envelope(pair: AlmostGentlePair) -> LengthOrInf:
    """proj.dim of the injective envelope of the regular module."""
    pair.require_valid()
    inj_len, vidx = _vertex_table(pair).inj_len, pair.quiver.vertex_index
    return _length_value(max((inj_len[vidx[u]] for u in socle_supports(pair)), default=0))


def gorenstein_report(pair: AlmostGentlePair) -> GorensteinReport:
    """Global and self-injective dimension, Gorensteinness, and the cycle test."""
    pair.require_valid()
    gldim = global_dimension(pair)
    injdim = self_injective_dimension(pair)
    cycle_criterion, _ = self_injective_infinite_by_cycle(pair)
    envelope = pdim_injective_envelope(pair)
    gorenstein = injdim.value.is_finite
    if gorenstein:
        note = "self-injective dimension is finite; the algebra is Gorenstein"
    elif not envelope.is_finite:
        note = ("Auslander condition fails: the injective envelope of the regular "
                "module has infinite projective dimension")
    else:
        note = (f"self-injective dimension is infinite but the injective envelope "
                f"has projective dimension {envelope}; the envelope route does not "
                f"certify an Auslander-condition failure here")
    return GorensteinReport(gldim, injdim, gorenstein, cycle_criterion, envelope, note)
