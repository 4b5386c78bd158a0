"""Closed-form homological dimensions and the Gorenstein report.

Projective dimensions of simples and directed strings reduce to longest
forbidden paths; the projective dimension of an injective E(v) additionally
tracks the socle block of its first syzygy.  Every finite value carries a
forbidden-path witness of exactly that length, every infinite one a lasso
whose loop is a forbidden cycle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .forbidden import (
    ZERO,
    ForbiddenWalk,
    LengthOrInf,
    _sup_from_vertex,
    best_witnessed,
    better_witnessed,
    delta_forbidden_sup,
    digraph_data,
)
from .quiver import AlmostGentlePair
from .strings import DirectedString, _chains, socle_supports
from .syzygy import _is_invalid_vertex, is_invalid_vertex


@dataclass(frozen=True)
class DimReport:
    value: LengthOrInf
    witness: ForbiddenWalk | None
    method: str
    attained_at: str | None = None


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
    return pair.memo(("simple", v), lambda: DimReport(
        *_sup_from_vertex(pair, v), "forbidden-from-vertex"))


def global_dimension(pair: AlmostGentlePair) -> DimReport:
    """Sup of the simple dimensions; infinite iff a forbidden cycle exists."""
    pair.require_valid()
    best: tuple[LengthOrInf, ForbiddenWalk | None] = (ZERO, None)
    at = None  # the first vertex attaining the sup
    for v in pair.quiver.vertices:
        rep = pdim_simple(pair, v)
        if at is None or rep.value > best[0]:
            at = v
        best = better_witnessed(pair, best, (rep.value, rep.witness))
    return DimReport(best[0], best[1], "forbidden-global", at)


def pdim_directed_string(pair: AlmostGentlePair, delta: DirectedString) -> DimReport:
    """proj.dim M(delta) for any directed string.

    Counts forbidden paths continuing past the sink of delta plus those from
    its source with a different first arrow; this is exactly one syzygy step
    unrolled, so no right-maximality is needed.
    """
    return DimReport(*delta_forbidden_sup(pair, delta), "delta-forbidden")


def _prefixed(walk: ForbiddenWalk | None, alpha: str) -> ForbiddenWalk:
    """Extend a witness one arrow to the left (the composition is a relation)."""
    if walk is None:
        return ForbiddenWalk((alpha,))
    return ForbiddenWalk((alpha,) + walk.stem, walk.cycle)


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
    return pair.memo(("injective", v), lambda: _pdim_injective(pair, v))


def _pdim_injective(pair: AlmostGentlePair, v: str) -> DimReport:
    """pdim_injective read off chain ends, the successor maps and the sup table."""
    outs = pair.quiver._out  # type: ignore[attr-defined]
    ins = pair.quiver._in[v]  # type: ignore[attr-defined]
    c = len(ins)
    if c == 0:
        rep = _pdim_simple(pair, v)
        return DimReport(rep.value, rep.witness, "injective-as-simple")

    sup = digraph_data(pair).sup
    by_name = pair.quiver._by_name  # type: ignore[attr-defined]
    chains = _chains(pair)
    candidates: list[tuple[LengthOrInf, ForbiddenWalk | None]] = []

    succ, pred = pair._succ, pair._pred  # type: ignore[attr-defined]
    matched_partner: dict[str, str] = {}
    unmatched_ins: list[str] = []
    for a in ins:
        first = chains[a.name][0][0]  # the head of a's anti-claw branch
        for b in outs[by_name[first].source]:
            if b.name != first:
                candidates.append(sup[b.name])
        partner = succ[a.name]
        if partner is not None:
            matched_partner[a.name] = partner
        else:
            unmatched_ins.append(a.name)

    def sup_excluding(skip: str) -> tuple[LengthOrInf, ForbiddenWalk | None]:
        return best_witnessed(pair, (sup[b.name] for b in outs[v] if b.name != skip))

    t = len(matched_partner)  # the socle block's crossing count
    if t < c:
        if c - 1 - t >= 1:
            rep = _pdim_simple(pair, v)
            candidates.append((rep.value.plus(1), _prefixed(rep.witness, unmatched_ins[0])))
        for a_name, b_name in matched_partner.items():
            inner = sup_excluding(b_name)
            candidates.append((inner[0].plus(1), _prefixed(inner[1], a_name)))
    elif c == 1:
        candidates.append(sup[matched_partner[ins[0].name]])
    else:
        invalid, _cond = _is_invalid_vertex(pair, v)
        if invalid:
            candidates.append((LengthOrInf.finite(1), ForbiddenWalk((outs[v][0].name,))))
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
                inner = sup[b0]
                candidates.append((inner[0].plus(1), _prefixed(inner[1], alpha)))

    value, witness = best_witnessed(pair, candidates)
    return DimReport(value, witness, "injective-syzygy")


def self_injective_dimension(pair: AlmostGentlePair) -> DimReport:
    """max over vertices of proj.dim E(v), recording the attaining vertex."""
    pair.require_valid()
    best: DimReport | None = None
    for v in pair.quiver.vertices:
        rep = pdim_injective(pair, v)
        if best is None or rep.value > best.value:
            best = DimReport(rep.value, rep.witness, "self-injective", v)
    if best is None:
        return DimReport(ZERO, None, "self-injective", None)
    return best


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
    cyclic, scc = data.cyclic_node, data.scc
    cycle_edges = [(x, y) for x, y in pair.relations
                   if x in cyclic and y in cyclic and scc[x] == scc[y]]
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
    comp = data.scc[x]
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
            if data.scc.get(ch) == comp and ch not in prev and ch != y:
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
    best = ZERO
    for u in sorted(set(socle_supports(pair)), key=pair.quiver.vertex_index.get):
        best = max(best, pdim_injective(pair, u).value)
    return best


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
