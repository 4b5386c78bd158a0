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
    _vertex_sup,
    delta_forbidden_sup,
    digraph_data,
)
from .quiver import AlmostGentlePair
from .strings import DirectedString, _chains, socle_supports
from .syzygy import _is_invalid_vertex, is_invalid_vertex


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


def pdim_simple(pair: AlmostGentlePair, v: str) -> DimReport:
    """proj.dim S(v) = sup of forbidden-path lengths out of v."""
    pair.require_valid()
    pair.require_vertex(v)
    return _pdim_simple(pair, v)


def _pdim_simple(pair: AlmostGentlePair, v: str) -> DimReport:
    def compute() -> DimReport:
        data = digraph_data(pair)
        n, start = _vertex_sup(data, pair.quiver._out[v])  # type: ignore[attr-defined]
        return _pointed(data, n, (-1, start), "forbidden-from-vertex")
    return pair.memo(("simple", v), compute)


def global_dimension(pair: AlmostGentlePair) -> DimReport:
    """Sup of the simple dimensions; infinite iff a forbidden cycle exists."""
    pair.require_valid()
    data = digraph_data(pair)
    best_len, best = 0, _NO_WALK
    at = None  # the first vertex attaining the sup
    for v in pair.quiver.vertices:
        rep = _pdim_simple(pair, v)
        n = rep._length
        if at is None or n > best_len:
            at = v
        if n > best_len or (n == best_len and data.precedes(rep._pointer, best)):
            best_len, best = n, rep._pointer
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
    return _injective(pair, v)


def _injective(pair: AlmostGentlePair, v: str) -> DimReport:
    return pair.memo(("injective", v), lambda: _pdim_injective(pair, v))


def _pdim_injective(pair: AlmostGentlePair, v: str) -> DimReport:
    """pdim_injective read off chain ends, the successor maps and the length
    table.  A candidate is (length, pointer), the pointer a head arrow (an
    in-arrow of v, or -1) followed by an arrow's witness (or -1)."""
    outs = pair.quiver._out  # type: ignore[attr-defined]
    ins = pair.quiver._in[v]  # type: ignore[attr-defined]
    c = len(ins)
    data = digraph_data(pair)
    if c == 0:
        rep = _pdim_simple(pair, v)
        return _pointed(data, rep._length, rep._pointer, "injective-as-simple")

    length, idx = data.length, data.idx
    by_name = pair.quiver._by_name  # type: ignore[attr-defined]
    chains = _chains(pair)

    succ, pred = pair._succ, pair._pred  # type: ignore[attr-defined]
    matched_partner: dict[str, str] = {}
    unmatched_ins: list[str] = []
    # The per-branch leftovers' best: witnesses that begin with different
    # arrows, so ties go to the earlier-declared arrow.
    left_len, left = 0, -1
    for a in ins:
        first = chains[a.name][0][0]  # the head of a's anti-claw branch
        n, i = _vertex_sup(data, outs[by_name[first].source], first)
        if n > left_len or (n == left_len and i < left):
            left_len, left = n, i
        partner = succ[a.name]
        if partner is not None:
            matched_partner[a.name] = partner
        else:
            unmatched_ins.append(a.name)

    candidates: list[tuple] = [(left_len, (-1, left))]
    t = len(matched_partner)  # the socle block's crossing count
    if t < c:
        if c - 1 - t >= 1:
            rep = _pdim_simple(pair, v)
            candidates.append((rep._length + 1, (idx[unmatched_ins[0]], rep._pointer[1])))
        for a_name, b_name in matched_partner.items():
            n, start = _vertex_sup(data, outs[v], b_name)
            candidates.append((n + 1, (idx[a_name], start)))
    elif c == 1:
        i = idx[matched_partner[ins[0].name]]
        candidates.append((length[i], (-1, i)))
    else:
        invalid, _cond = _is_invalid_vertex(pair, v)
        if invalid:
            candidates.append((1, (idx[outs[v][0].name], -1)))
        else:
            for b in outs[v]:
                b0 = b.name
                flag = pred[b0] is not None  # some in-arrow composes with b nonzero
                if flag and c == 2:
                    continue  # multiplicity c-2 = 0 in the block's syzygy
                if flag:
                    alpha = next(a.name for a in ins if matched_partner.get(a.name) != b0)
                else:
                    alpha = ins[0].name
                i = idx[b0]
                candidates.append((length[i] + 1, (idx[alpha], i)))

    n, pointer = data.best(candidates)
    return _pointed(data, n, pointer, "injective-syzygy")


def self_injective_dimension(pair: AlmostGentlePair) -> DimReport:
    """max over vertices of proj.dim E(v), recording the attaining vertex."""
    pair.require_valid()
    best: DimReport | None = None
    at = None
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
    best = 0
    for u in sorted(set(socle_supports(pair)), key=pair.quiver.vertex_index.get):
        best = max(best, _injective(pair, u)._length)
    return _length_value(best)


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
