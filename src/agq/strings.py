"""Directed strings and the claw/anti-claw shapes of projectives and injectives.

Only directed strings (all arrows pointing the same way) enter any
computation here; the claw of a vertex bundles the right maximal strings out
of it and describes P(v), the anti-claw dually describes E(v).  Every
nonzero directed path is a slice of one chain.  The pair's only string
cache is its chain table, two lists on arrow indices; claws, anti-claws and
maximal extensions follow the nonzero successor table over just the arrows
they return.  The gentle and invalid vertex tests, read off the validation
report's index tables, live here too, so the closed form needs no syzygy.
"""

from __future__ import annotations

from .quiver import AlmostGentlePair, InvalidStringError, ValidationReport, _Frozen, _setattr


class DirectedString(_Frozen):
    """A nonzero directed path; vertex anchors a length-zero string."""

    arrows: tuple[str, ...]
    vertex: str | None
    __slots__ = _fields = ("arrows", "vertex")

    def __init__(self, arrows: tuple[str, ...], vertex: str | None = None) -> None:
        if not arrows and vertex is None:
            raise InvalidStringError("length-zero path needs an anchor vertex")
        _setattr(self, "arrows", arrows)
        _setattr(self, "vertex", vertex)

    def __len__(self) -> int:
        return len(self.arrows)


def string_of(pair: AlmostGentlePair, arrows: tuple[str, ...]) -> DirectedString:
    """Build a directed string, checking it is a nonzero path of the pair.

    Every arrow is looked up, so an unknown one raises UnknownArrowError.
    An empty arrows tuple raises InvalidStringError: a length-zero string
    needs its anchor vertex, and callers build those with DirectedString.
    """
    prev = None
    for name in arrows:
        arrow = pair.arrow(name)
        if prev is not None:
            if prev.target != arrow.source:
                raise InvalidStringError(f"{prev.name} and {name} are not composable")
            if (prev.name, name) in pair.relations:
                raise InvalidStringError(f"{prev.name}{name} lies in the ideal")
        prev = arrow
    return DirectedString(tuple(arrows))


def _check_string(pair: AlmostGentlePair, ds: DirectedString) -> DirectedString:
    """ds, once its arrows are a nonzero path of the pair or, with none, its
    anchor a vertex; a string with both arrows and an anchor is refused.

    Every public function that takes a directed string calls this first.
    On a valid pair a checked string with arrows is a slice of its chain.
    """
    if ds.arrows:
        if ds.vertex is not None:
            raise InvalidStringError(f"a string with arrows takes no anchor vertex, got {ds.vertex!r}")
        string_of(pair, ds.arrows)
    else:
        pair.require_vertex(ds.vertex)  # type: ignore[arg-type]
    return ds


def string_source(pair: AlmostGentlePair, ds: DirectedString) -> str:
    return ds.vertex if not ds.arrows else pair.arrow(ds.arrows[0]).source  # type: ignore[return-value]


def _chains(pair: AlmostGentlePair) -> tuple[list[int], list[int]]:
    """The chain table, by arrow index; stored once per pair.

    A chain is a maximal run of arrows linked by the nonzero successor map.
    On a valid pair the chains partition the arrows: one pass starts at
    every arrow without a nonzero predecessor and follows the successors,
    which admissibility keeps finite.  ``head[i]`` is the first arrow of
    arrow i's chain, and ``last[h]`` the last arrow of the chain that starts
    at h (-1 where h starts none).
    """
    def compute() -> tuple[list[int], list[int]]:
        succ = pair.report.nonzero_succ
        head, last = [-1] * len(succ), [-1] * len(succ)
        for i, p in enumerate(pair.report.nonzero_pred):
            if p < 0:
                j = i
                while j >= 0:
                    head[j] = i
                    k, j = j, succ[j]
                last[i] = k
        return head, last

    return pair.memo("chains", compute)


def _run(pair: AlmostGentlePair, i: int, stop: int) -> tuple[str, ...]:
    """The names of arrows i, succ[i], ... along a chain, up to stop (an
    arrow further on, or -1 for the chain's end), excluded."""
    names, succ = pair.report.names, pair.report.nonzero_succ
    run: list[str] = []
    while i != stop:
        run.append(names[i])
        i = succ[i]
    return tuple(run)


def right_maximal_extension(pair: AlmostGentlePair, ds: DirectedString) -> DirectedString:
    """Extend by the unique nonzero successor of the last arrow until stuck.

    Idempotent; raises InvalidStringError on zero input strings.  A
    length-zero string is returned unchanged (every arrow out of its anchor
    starts a different string).
    """
    pair.require_valid()
    if not _check_string(pair, ds).arrows:
        return ds
    aidx, succ = pair.quiver.arrow_index, pair.report.nonzero_succ
    return DirectedString(ds.arrows + _run(pair, succ[aidx[ds.arrows[-1]]], -1))


def left_maximal_extension(pair: AlmostGentlePair, ds: DirectedString) -> DirectedString:
    pair.require_valid()
    if not _check_string(pair, ds).arrows:
        return ds
    first = pair.quiver.arrow_index[ds.arrows[0]]
    return DirectedString(_run(pair, _chains(pair)[0][first], first) + ds.arrows)


def claw_of(pair: AlmostGentlePair, v: str) -> tuple[DirectedString, ...]:
    """The claw of v: one right maximal branch per outgoing arrow, its chain
    from it on; P(v)."""
    pair.require_valid()
    outs = pair.report.outs[pair.quiver.vertex_index[pair.require_vertex(v)]]
    return tuple(DirectedString(_run(pair, a, -1)) for a in outs)


def anticlaw_of(pair: AlmostGentlePair, v: str) -> tuple[DirectedString, ...]:
    """The anti-claw of v: one left maximal branch per incoming arrow, its
    chain up to it; E(v)."""
    pair.require_valid()
    ins = pair.report.ins[pair.quiver.vertex_index[pair.require_vertex(v)]]
    head, succ = _chains(pair)[0], pair.report.nonzero_succ
    return tuple(DirectedString(_run(pair, head[a], succ[a])) for a in ins)


def module_dims(pair: AlmostGentlePair, kind: str, arg) -> dict[str, int]:
    """Dimension vector of Simple(v) | DirString(ds) | Projective(v) | Injective(v).

    Counts a basis vertex by vertex: a string visits its source and the
    target of each arrow, and a vertex may repeat when the quiver has a cycle
    whose wraparound composition is a relation (the arrows never repeat).
    """
    pair.require_valid()
    arrows, aidx = pair.quiver.arrows, pair.quiver.arrow_index
    if kind == "simple":
        basis = [pair.require_vertex(arg)]
    elif kind == "string":
        basis = [string_source(pair, _check_string(pair, arg))]
        basis += [arrows[aidx[a]].target for a in arg.arrows]
    elif kind == "projective":
        basis = [arg] + [arrows[aidx[a]].target for br in claw_of(pair, arg) for a in br.arrows]
    elif kind == "injective":
        basis = [arg] + [arrows[aidx[a]].source for br in anticlaw_of(pair, arg) for a in br.arrows]
    else:
        raise ValueError(f"unknown module kind {kind!r}")
    dims: dict[str, int] = {}
    for w in basis:
        dims[w] = dims.get(w, 0) + 1
    return dims


def socle_supports(pair: AlmostGentlePair) -> list[str]:
    """Multiset of socle vertices of the regular module, one entry per factor.

    Branch endpoints of every claw; a sink contributes itself (P(v) = S(v)).
    This indexes the injective envelope of the algebra.
    """
    pair.require_valid()
    vertices, target, (head, last) = pair.quiver.vertices, pair.report.target, _chains(pair)
    supports: list[str] = []
    for v, outs in zip(vertices, pair.report.outs):
        if not outs:
            supports.append(v)
        else:
            supports.extend(vertices[target[last[head[b]]]] for b in outs)
    return supports


def _gentle_at(report: ValidationReport, v: int) -> bool:
    """is_gentle_vertex on the validation's tables, at vertex index v."""
    ins = report.ins[v]
    if len(ins) > 2 or len(report.outs[v]) > 2:
        return False
    if not ins:
        return True
    rel_succ = report.relation_succ  # an in-arrow's relation partners, among outs
    x = rel_succ[ins[0]]
    if len(ins) == 1:
        return len(x) <= 1
    y = rel_succ[ins[1]]
    # at most one partner each, and no out-arrow partnered with both
    return len(x) <= 1 and len(y) <= 1 and not (x and x == y)


def _invalid_at(report: ValidationReport, v: int) -> tuple[bool, int | None]:
    """is_invalid_vertex on the validation's tables, at vertex index v."""
    ins = report.ins[v]
    c, d = len(ins), len(report.outs[v])
    if c == 2 and _gentle_at(report, v):
        return True, 1
    if d == 0:
        return True, 2
    if c == 1:
        # the flagged tail, if any, is the chain from the in-arrow's nonzero successor b
        succ = report.nonzero_succ
        b = succ[ins[0]]
        if b < 0:
            return True, 5
        if not report.relation_succ[b]:
            # every out-arrow of t(b) follows b nonzero, so t(b) is a sink
            # (3) when b has no nonzero successor, else b continues (4)
            return True, 3 if succ[b] < 0 else 4
    return False, None
