"""Directed strings and the claw/anti-claw shapes of projectives and injectives.

Only directed strings (all arrows pointing the same way) enter any
computation here; the claw of a vertex bundles the right maximal strings out
of it and describes P(v), the anti-claw dually describes E(v).
"""

from __future__ import annotations

from dataclasses import dataclass

from .quiver import AlmostGentlePair, InvalidStringError, NonzeroPath, path_source


@dataclass(frozen=True, slots=True)
class DirectedString:
    """A nonzero directed path; length zero carries its anchor vertex."""

    path: NonzeroPath

    @classmethod
    def of(cls, arrows: tuple[str, ...], vertex: str | None = None) -> "DirectedString":
        return cls(NonzeroPath(tuple(arrows), vertex))

    @property
    def arrows(self) -> tuple[str, ...]:
        return self.path.arrows

    def __len__(self) -> int:
        return len(self.path)


def string_of(pair: AlmostGentlePair, arrows: tuple[str, ...]) -> DirectedString:
    """Build a directed string, checking it is a nonzero path of the pair.

    Every arrow is looked up, so an unknown one raises UnknownArrowError.
    An empty arrows tuple raises InvalidStringError: a length-zero string
    needs its anchor vertex, and callers build those with DirectedString.of.
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
    return DirectedString(NonzeroPath(tuple(arrows)))


def string_source(pair: AlmostGentlePair, ds: DirectedString) -> str:
    return path_source(pair, ds.path)


def _chains(pair: AlmostGentlePair) -> dict[str, tuple[tuple[str, ...], int]]:
    """Each arrow's chain and its position in it; stored once per pair.

    A chain is a maximal run of arrows linked by the nonzero successor map.
    On a valid pair the chains partition the arrows: one pass starts at
    every arrow without a nonzero predecessor and follows the successors,
    which admissibility keeps finite.
    """
    def compute() -> dict[str, tuple[tuple[str, ...], int]]:
        succ, pred = pair._succ, pair._pred  # type: ignore[attr-defined]
        table: dict[str, tuple[tuple[str, ...], int]] = {}
        for a in pair.quiver.arrows:
            if pred[a.name] is None:
                run: list[str] = []
                x: str | None = a.name
                while x is not None:
                    run.append(x)
                    x = succ[x]
                chain = tuple(run)
                for i, y in enumerate(chain):
                    table[y] = (chain, i)
        return table

    return pair.memo("chains", compute)


def _maximal_strings(pair: AlmostGentlePair, right: bool) -> dict[str, DirectedString]:
    """The right maximal string starting with each arrow, or the left maximal
    string ending with it; stored once per pair and direction, each entry
    sliced out of the arrow's chain.
    """
    def compute() -> dict[str, DirectedString]:
        return {a: DirectedString(NonzeroPath(chain[i:] if right else chain[:i + 1]))
                for a, (chain, i) in _chains(pair).items()}

    return pair.memo(("maximal", right), compute)


def right_maximal_extension(pair: AlmostGentlePair, ds: DirectedString) -> DirectedString:
    """Extend by the unique nonzero successor of the last arrow until stuck.

    Idempotent; raises InvalidStringError on zero input strings.  A
    length-zero string is returned unchanged (every arrow out of its anchor
    starts a different string).
    """
    pair.require_valid()
    if not ds.arrows:
        return ds
    arrows = string_of(pair, ds.arrows).arrows
    tail = _maximal_strings(pair, True)[arrows[-1]].arrows
    return DirectedString(NonzeroPath(arrows[:-1] + tail))


def left_maximal_extension(pair: AlmostGentlePair, ds: DirectedString) -> DirectedString:
    pair.require_valid()
    if not ds.arrows:
        return ds
    arrows = string_of(pair, ds.arrows).arrows
    head = _maximal_strings(pair, False)[arrows[0]].arrows
    return DirectedString(NonzeroPath(head + arrows[1:]))


def claw_of(pair: AlmostGentlePair, v: str) -> tuple[DirectedString, ...]:
    """The claw of v: one right maximal branch per outgoing arrow; P(v)."""
    pair.require_valid()
    pair.require_vertex(v)
    return _branches(pair, v, True)


def anticlaw_of(pair: AlmostGentlePair, v: str) -> tuple[DirectedString, ...]:
    """The anti-claw of v: one left maximal branch per incoming arrow; E(v)."""
    pair.require_valid()
    pair.require_vertex(v)
    return _branches(pair, v, False)


def _branches(pair: AlmostGentlePair, v: str, right: bool) -> tuple[DirectedString, ...]:
    """The claw (right) or anti-claw of a vertex of a valid pair, unchecked."""
    table = _maximal_strings(pair, right)
    arrows = pair.quiver._out[v] if right else pair.quiver._in[v]  # type: ignore[attr-defined]
    return tuple(table[a.name] for a in arrows)


def string_dim_vector(pair: AlmostGentlePair, ds: DirectedString) -> dict[str, int]:
    """Dimension vector of the string module M(ds): visit multiplicities.

    A vertex may repeat when the quiver has a cycle whose wraparound
    composition is a relation; the arrow sequence itself never repeats.
    """
    if not ds.arrows:
        return {ds.path.vertex: 1}  # type: ignore[dict-item]
    dims: dict[str, int] = {pair.arrow(ds.arrows[0]).source: 1}
    for a in ds.arrows:
        t = pair.arrow(a).target
        dims[t] = dims.get(t, 0) + 1
    return dims


def module_dims(pair: AlmostGentlePair, kind: str, arg) -> dict[str, int]:
    """Dimension vector of Simple(v) | DirString(ds) | Projective(v) | Injective(v)."""
    pair.require_valid()
    if kind == "simple":
        pair.require_vertex(arg)
        return {arg: 1}
    if kind == "string":
        return string_dim_vector(pair, arg)
    if kind == "projective":
        dims = {pair.require_vertex(arg): 1}
        for br in claw_of(pair, arg):
            for a in br.arrows:
                t = pair.arrow(a).target
                dims[t] = dims.get(t, 0) + 1
        return dims
    if kind == "injective":
        dims = {pair.require_vertex(arg): 1}
        for br in anticlaw_of(pair, arg):
            dims[string_source(pair, br)] = dims.get(string_source(pair, br), 0) + 1
            for a in br.arrows[1:]:
                s = pair.arrow(a).source
                dims[s] = dims.get(s, 0) + 1
        return dims
    raise ValueError(f"unknown module kind {kind!r}")


def socle_supports(pair: AlmostGentlePair) -> list[str]:
    """Multiset of socle vertices of the regular module, one entry per factor.

    Branch endpoints of every claw; a sink contributes itself (P(v) = S(v)).
    This indexes the injective envelope of the algebra.
    """
    pair.require_valid()
    by_name = pair.quiver._by_name  # type: ignore[attr-defined]
    outs = pair.quiver._out  # type: ignore[attr-defined]
    chains = _chains(pair)
    supports: list[str] = []
    for v in pair.quiver.vertices:
        if not outs[v]:
            supports.append(v)
        else:
            supports.extend(by_name[chains[b.name][0][-1]].target for b in outs[v])
    return supports

