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
from .quiver import AlmostGentlePair, _Frozen, _setattr
from .strings import DirectedString, _chains, _gentle_at, _invalid_at


_UNBUILT = object()


class DimReport(_Frozen):
    """A dimension, the method that found it and, for a maximum over the
    vertices, the first vertex attaining it.

    The witness is a forbidden path of exactly that length, a lasso whose
    loop is a forbidden cycle, or None for 0.  A report read off the pair's
    length table keeps a pointer into it and builds the witness the first
    time it is read.
    """

    method: str
    attained_at: str | None
    __slots__ = ("_length", "method", "attained_at", "_pointer", "_data", "_witness")
    _fields = ("value", "witness", "method", "attained_at")

    def __init__(self, value: LengthOrInf, witness: ForbiddenWalk | None, method: str,
                 attained_at: str | None = None):
        _setattr(self, "_length", _INFINITE if value.value is None else value.value)
        _setattr(self, "method", method)
        _setattr(self, "attained_at", attained_at)
        _setattr(self, "_pointer", _NO_WALK)
        _setattr(self, "_data", None)
        _setattr(self, "_witness", witness)

    @property
    def value(self) -> LengthOrInf:
        return _length_value(self._length)

    @property
    def witness(self) -> ForbiddenWalk | None:
        if self._witness is _UNBUILT:
            _setattr(self, "_witness", self._data.walk(*self._pointer))  # type: ignore[union-attr]
        return self._witness  # type: ignore[return-value]


def _pointed(data: _DigraphData, n, pointer: tuple[int, int], method: str,
             attained_at: str | None = None) -> DimReport:
    """A report of length-table value n whose witness is spelled by pointer."""
    rep = DimReport.__new__(DimReport)
    _setattr(rep, "_length", n)
    _setattr(rep, "method", method)
    _setattr(rep, "attained_at", attained_at)
    _setattr(rep, "_pointer", pointer)
    _setattr(rep, "_data", data)
    _setattr(rep, "_witness", _UNBUILT)
    return rep


class GorensteinReport(_Frozen):
    gldim: DimReport
    injdim: DimReport
    gorenstein: bool
    cycle_criterion: bool
    envelope_pdim: LengthOrInf
    auslander_note: str
    _fields = ("gldim", "injdim", "gorenstein", "cycle_criterion", "envelope_pdim", "auslander_note")


class _VertexTable:
    """Every vertex's pd E(v) and row flags on one pair, read off the
    validation's, the chain table's and the digraph's tables in one pass.
    Lists indexed by vertex_index:

    - ``inj_len``, ``inj_ptr``, ``inj_method``: pd E(v) as length, witness
      pointer and method.
    - ``invalid``, ``gentle``: the vertex flags of the JSON report.

    pd S(v) is the digraph's best out-arrow sup at v.  The public reports
    are built when first asked for and kept here, so a repeated query
    returns the same object.
    """

    def __init__(self, pair: AlmostGentlePair):
        self.vidx = pair.quiver.vertex_index
        self.data = data = digraph_data(pair)
        report = pair.report
        succ, pred, outs, ins = report.nonzero_succ, report.nonzero_pred, report.outs, report.ins
        n_v, head = len(outs), _chains(pair)[0]  # the first arrow of each arrow's chain
        self.gentle = [_gentle_at(report, v) for v in range(n_v)]
        self.invalid = [_invalid_at(report, v)[0] for v in range(n_v)]
        self.inj_len: list = [0] * n_v
        self.inj_ptr: list[tuple[int, int]] = [_NO_WALK] * n_v
        self.inj_method = ["injective-syzygy"] * n_v
        for v in range(n_v):
            if not ins[v]:
                self.inj_len[v], self.inj_ptr[v] = data.top_len[v], (-1, data.top[v])
                self.inj_method[v] = "injective-as-simple"
                continue
            self.inj_len[v], self.inj_ptr[v] = self._injective(v, ins[v], outs[v], succ, pred, head)
        self.simple_reports: list[DimReport | None] = [None] * n_v
        self.injective_reports: list[DimReport | None] = [None] * n_v

    def _injective(self, v: int, ins: tuple[int, ...], outs: tuple[int, ...],
                   succ: list[int], pred: list[int], head: list[int]) -> tuple:
        """pd E(v) for v not a source, as (length, pointer).  A candidate's
        pointer is a head arrow (an in-arrow of v, or -1) followed by an
        arrow's witness (or -1)."""
        data = self.data
        length, source = data.length, data.source
        c = len(ins)
        matched: list[tuple[int, int]] = []  # (in-arrow, its nonzero successor)
        unmatched = -1  # the first in-arrow without one
        candidates: list[tuple] = []
        for a in ins:
            # the per-branch leftover: the sup at the source of the
            # in-arrow's chain head, skipping the head
            h = head[a]
            n, i = data.skip(source[h], h)
            candidates.append((n, (-1, i)))
            b = succ[a]
            if b >= 0:
                matched.append((a, b))
            elif unmatched < 0:
                unmatched = a

        t = len(matched)  # the socle block's crossing count
        if t < c:
            if c - 1 - t >= 1:
                n, i = data.skip(v, -1)
                candidates.append((n + 1, (unmatched, i)))
            for a, b in matched:
                n, i = data.skip(v, b)
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
        return data.best(candidates)

    def simple(self, v: str) -> DimReport:
        """The report of pd S(v), for a vertex name already checked."""
        i = self.vidx[v]
        rep = self.simple_reports[i]
        if rep is None:
            data = self.data
            rep = self.simple_reports[i] = _pointed(data, data.top_len[i], (-1, data.top[i]),
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
    data = digraph_data(pair)
    best_len, best = data.best((n, (-1, i)) for n, i in zip(data.top_len, data.top))
    vertices = pair.quiver.vertices
    at = vertices[data.top_len.index(best_len)] if vertices else None  # the first vertex attaining it
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
    out, scc, names = data.out, data.scc, data.names
    report = pair.report
    # an edge x -> y lies on a cycle iff both ends share a component, so
    # an arrow on no cycle has no successor in its own
    for x, children in enumerate(out):
        if not data.cyclic[x]:
            continue
        for y in children:
            if scc[x] != scc[y]:
                continue
            v = report.source[y]
            for alpha in report.ins[v]:
                if alpha != x and y in out[alpha]:
                    return True, (_cycle_through_edge(data, x, y), pair.quiver.vertices[v], "A", names[alpha])
            for beta in report.outs[v]:
                if beta != y and beta in children:
                    return True, (_cycle_through_edge(data, x, y), pair.quiver.vertices[v], "B", names[beta])
    return False, None


def _cycle_through_edge(data: _DigraphData, x: int, y: int) -> tuple[str, ...]:
    """An elementary forbidden cycle through the digraph edge x -> y."""
    if x == y:
        return (data.names[x],)
    scc = data.scc
    comp = scc[x]
    # walk y -> ... -> x inside the component, shortest first for determinism
    prev: dict[int, int] = {}
    dq = deque([y])
    while dq:
        node = dq.popleft()
        if node == x:
            break
        for ch in data.out[node]:
            if scc[ch] == comp and ch not in prev and ch != y:
                prev[ch] = node
                dq.append(ch)
    path = [x]
    while path[-1] != y:
        path.append(prev[path[-1]])
    path.reverse()  # y ... x
    k = path.index(min(path))
    return tuple(data.names[i] for i in path[k:] + path[:k])


def noninvalid_cycle_vertex(pair: AlmostGentlePair) -> tuple[bool, str | None]:
    """Whether some vertex on a forbidden cycle fails the invalid-vertex test.

    Kept as a separate predicate: it does not characterize infinite
    self-injective dimension (counterexamples in both directions exist), and
    the acceptance suite records where it disagrees.
    """
    pair.require_valid()
    table = _vertex_table(pair)
    for v, on_cycle in zip(pair.report.source, table.data.cyclic):
        if on_cycle and not table.invalid[v]:
            return True, pair.quiver.vertices[v]
    return False, None


def pdim_injective_envelope(pair: AlmostGentlePair) -> LengthOrInf:
    """proj.dim of the injective envelope of the regular module."""
    pair.require_valid()
    # the socle of the regular module: the targets of arrows ending a chain, and the sinks
    inj_len, report = _vertex_table(pair).inj_len, pair.report
    ends = {v for v, b in zip(report.target, report.nonzero_succ) if b < 0}
    ends.update(v for v, outs in enumerate(report.outs) if not outs)
    return _length_value(max((inj_len[v] for v in ends), default=0))


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
