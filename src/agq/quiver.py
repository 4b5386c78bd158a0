"""Finite quivers, quadratic monomial relations, and almost gentle validation.

A bound quiver is *almost gentle* when the ideal is generated by length-two
paths and every arrow has at most one composition-nonzero successor and at
most one composition-nonzero predecessor.  Validation additionally rejects
non-admissible input (a cyclic arrow sequence with all consecutive
compositions nonzero), so every validated pair presents a finite-dimensional
algebra.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Mapping
from operator import attrgetter

TOKEN = r"[A-Za-z0-9_']+"  # a vertex, arrow or algebra name
TOKEN_RE = re.compile(TOKEN + r"\Z")

_setattr = object.__setattr__  # how a read-only record's __init__ sets its fields


class _Record:
    """A plain record: equality and repr read off its fields.

    ``_fields`` names the fields shown by the repr, ``Name(field=value,
    ...)``, in constructor order; ``_key`` reads the compared ones.  Two
    records are equal when they are of the same class and their keys are
    equal.  With an ``__eq__`` and no ``__hash__`` a record is unhashable,
    as a mutable one should be.  The records compared and hashed most
    (``Arrow``, ``DirectedString``, ``LengthOrInf``, ``ForbiddenWalk``,
    ``Summand``) write out their own ``__eq__`` and ``__hash__``, which run
    faster than a read through ``_key``.
    """

    __slots__ = ()
    _fields: tuple[str, ...]
    _key: Callable[[object], object]

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class _Frozen(_Record):
    """A read-only record, hashed by its key.  Its ``__init__`` sets the
    fields with ``_setattr``; assigning or deleting one raises
    AttributeError."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class AgqError(Exception):
    """Base class for all library errors."""


class UnknownVertexError(AgqError):
    pass


class UnknownArrowError(AgqError):
    pass


class NotValidatedError(AgqError):
    """Raised when an operation requires a validated almost gentle pair."""


class InvalidStringError(AgqError):
    """Raised for arrow sequences that are not nonzero directed paths."""


class Arrow(_Frozen):
    name: str
    source: str
    target: str
    _fields = ("name", "source", "target")

    def __init__(self, name: str, source: str, target: str) -> None:
        _setattr(self, "name", name)
        _setattr(self, "source", source)
        _setattr(self, "target", target)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.name == other.name and self.source == other.source  # type: ignore
                    and self.target == other.target)  # type: ignore
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.name, self.source, self.target))


class Quiver(_Frozen):
    """Finite quiver with declaration order preserved for deterministic output."""

    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    _fields = ("vertices", "arrows")
    _key = attrgetter(*_fields)

    def __init__(self, vertices: tuple[str, ...], arrows: tuple[Arrow, ...]) -> None:
        _setattr(self, "vertices", vertices)
        _setattr(self, "arrows", arrows)
        seen_v: set[str] = set()
        for v in self.vertices:
            if not TOKEN_RE.match(v):
                raise AgqError(f"bad vertex name {v!r}")
            if v in seen_v:
                raise AgqError(f"duplicate vertex {v!r}")
            seen_v.add(v)
        seen_a: set[str] = set()
        for a in self.arrows:
            if not TOKEN_RE.match(a.name):
                raise AgqError(f"bad arrow name {a.name!r}")
            if a.name in seen_a:
                raise AgqError(f"duplicate arrow {a.name!r}")
            seen_a.add(a.name)

        _setattr(self, "_vidx", {v: i for i, v in enumerate(self.vertices)})
        _setattr(self, "_aidx", {a.name: i for i, a in enumerate(self.arrows)})
        out: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        inc: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            if a.source in out:
                out[a.source].append(a)
            if a.target in inc:
                inc[a.target].append(a)
        _setattr(self, "_out", {v: tuple(arrows) for v, arrows in out.items()})
        _setattr(self, "_in", {v: tuple(arrows) for v, arrows in inc.items()})
        _setattr(self, "_by_name", {a.name: a for a in self.arrows})

    @property
    def vertex_index(self) -> dict[str, int]:
        return self._vidx  # type: ignore[attr-defined]

    @property
    def arrow_index(self) -> dict[str, int]:
        return self._aidx  # type: ignore[attr-defined]


class Violation(_Frozen):
    kind: str
    location: tuple[str, ...]
    message: str
    _fields = ("kind", "location", "message")
    _key = attrgetter(*_fields)

    def __init__(self, kind: str, location: tuple[str, ...], message: str) -> None:
        _setattr(self, "kind", kind)
        _setattr(self, "location", location)
        _setattr(self, "message", message)


class ValidationReport(_Frozen):
    """Violations and warnings, plus what the validation computes anyway: the
    nonzero successor and predecessor of every arrow (None where there is
    none) and its relation successors, the arrows b with ab in the ideal in
    declaration order.  The three maps are complete only when the report is
    valid."""

    valid: bool
    violations: tuple[Violation, ...]
    warnings: tuple[str, ...]
    succ: Mapping[str, str | None]
    pred: Mapping[str, str | None]
    rel_succ: Mapping[str, list[str]]
    _fields = ("valid", "violations", "warnings")  # the maps are neither shown nor compared
    _key = attrgetter(*_fields)

    def __init__(self, valid: bool, violations: tuple[Violation, ...], warnings: tuple[str, ...],
                 succ: Mapping[str, str | None], pred: Mapping[str, str | None],
                 rel_succ: Mapping[str, list[str]]) -> None:
        _setattr(self, "valid", valid)
        _setattr(self, "violations", violations)
        _setattr(self, "warnings", warnings)
        _setattr(self, "succ", succ)
        _setattr(self, "pred", pred)
        _setattr(self, "rel_succ", rel_succ)


def validate_bound_quiver(quiver: Quiver, relations: frozenset[tuple[str, str]]) -> ValidationReport:
    """Check composability, the almost gentle conditions, and admissibility.

    Reports, never raises, on well-formed input.  Violation kinds:
    DanglingEndpoint, NonComposableRelation, TooManyNonzeroSuccessors,
    TooManyNonzeroPredecessors, NonzeroCycle.
    """
    violations: list[Violation] = []
    warnings: list[str] = []
    vset = quiver.vertex_index
    out = quiver._out  # type: ignore[attr-defined]

    # One scan of t(a)'s out-arrows per arrow a sorts each b into a nonzero
    # successor of a or a relation successor of a; the nonzero pairs give the
    # predecessors too.  Counting the relations met checks that every
    # relation is composable.
    succ: dict[str, str | None] = {}
    pred: dict[str, str | None] = dict.fromkeys(quiver.arrow_index)
    more_pred: dict[str, list[str]] = {}  # the nonzero predecessors after the first
    rel_succ: dict[str, list[str]] = {}
    met = 0
    malformed: list[Violation] = []  # found here, they end the validation early
    for a in quiver.arrows:
        name = a.name
        if a.source not in vset or a.target not in vset:
            malformed.append(Violation("DanglingEndpoint", (name,),
                                       f"arrow {name} has an endpoint outside the vertex set"))
            continue
        nonzero: list[str] = []
        zero: list[str] = []
        for b in out[a.target]:
            if (name, b.name) in relations:
                zero.append(b.name)
            else:
                nonzero.append(b.name)
                if pred[b.name] is None:
                    pred[b.name] = name
                else:
                    more_pred.setdefault(b.name, []).append(name)
        met += len(zero)
        rel_succ[name] = zero
        if len(nonzero) == 1:
            succ[name] = nonzero[0]
        else:
            succ[name] = None
            if nonzero:
                violations.append(Violation("TooManyNonzeroSuccessors", (name,),
                                            f"arrow {name} has nonzero successors {', '.join(nonzero)}"))

    if malformed or met != len(relations):
        arrow_by_name = quiver._by_name  # type: ignore[attr-defined]
        for a, b in sorted(relations):
            if a not in arrow_by_name or b not in arrow_by_name:
                malformed.append(Violation("DanglingEndpoint", (a, b),
                                           f"relation ({a},{b}) names an unknown arrow"))
            elif arrow_by_name[a].target != arrow_by_name[b].source:
                malformed.append(Violation("NonComposableRelation", (a, b),
                                           f"relation ({a},{b}) is not composable: "
                                           f"t({a})={arrow_by_name[a].target} != s({b})={arrow_by_name[b].source}"))
        return ValidationReport(False, tuple(malformed), tuple(warnings), {}, {}, {})
    for b, rest in more_pred.items():
        violations.append(Violation("TooManyNonzeroPredecessors", (b,),
                                    f"arrow {b} has nonzero predecessors {', '.join([pred[b], *rest])}"))
        pred[b] = None

    # Admissibility: the nonzero-successor functional graph must be acyclic
    # (nonzero extensions are unique, so any arbitrarily long nonzero path
    # closes up into a cycle of this graph).
    for cycle in successor_cycles(succ):
        violations.append(Violation("NonzeroCycle", tuple(cycle),
                                    "nonzero cycle " + " ".join(cycle)))

    if quiver.vertices and not _connected(quiver):
        warnings.append("quiver is disconnected; all computations are componentwise")

    violations.sort(key=lambda v: (v.kind, v.location))
    return ValidationReport(not violations, tuple(violations), tuple(warnings), succ, pred, rel_succ)


def successor_cycles(succ: Mapping[str, str | None]) -> list[list[str]]:
    """The cycles of the partial map a -> succ[a], each listed once.

    Walks start from the keys in order, and each cycle starts at the first
    of its nodes that a walk enters.  The cycles of a map are disjoint.
    """
    cycles: list[list[str]] = []
    state: dict[str, int] = {}
    for start in succ:
        if state.get(start):
            continue
        chain = []
        cur: str | None = start
        while cur is not None and state.get(cur, 0) == 0:
            state[cur] = 1
            chain.append(cur)
            cur = succ.get(cur)
        if cur is not None and state[cur] == 1:
            cycles.append(chain[chain.index(cur):])
        for name in chain:
            state[name] = 2
    return cycles


def _connected(quiver: Quiver) -> bool:
    """Whether one walk along arrows, either way, reaches every vertex."""
    first = quiver.vertices[0]
    seen, todo = {first}, [first]
    while todo:
        v = todo.pop()
        for a in quiver._out[v]:  # type: ignore[attr-defined]
            if a.target not in seen:
                seen.add(a.target)
                todo.append(a.target)
        for a in quiver._in[v]:  # type: ignore[attr-defined]
            if a.source not in seen:
                seen.add(a.source)
                todo.append(a.source)
    return len(seen) == len(quiver.vertices)


class AlmostGentlePair(_Frozen):
    """A validated bound quiver.  Immutable; all operations are pure."""

    quiver: Quiver
    relations: frozenset[tuple[str, str]]
    report: ValidationReport
    _fields = ("quiver", "relations", "report")
    _key = attrgetter("quiver", "relations")  # the report follows from them

    def __init__(self, quiver: Quiver, relations: frozenset[tuple[str, str]],
                 report: ValidationReport) -> None:
        _setattr(self, "quiver", quiver)
        _setattr(self, "relations", relations)
        _setattr(self, "report", report)
        _setattr(self, "_memo", {})

    @classmethod
    def build(cls, quiver: Quiver, relations: frozenset[tuple[str, str]]) -> "AlmostGentlePair":
        return cls(quiver, frozenset(relations), validate_bound_quiver(quiver, frozenset(relations)))

    @property
    def validated(self) -> bool:
        return self.report.valid

    def require_valid(self) -> None:
        if not self.report.valid:
            kinds = ", ".join(sorted({v.kind for v in self.report.violations}))
            raise NotValidatedError(f"pair is not a valid almost gentle pair ({kinds})")

    def memo(self, key, compute):
        """Per-pair cache for derived combinatorial structure."""
        cache = self._memo  # type: ignore[attr-defined]
        if key not in cache:
            cache[key] = compute()
        return cache[key]

    # -- lookups -----------------------------------------------------------

    def arrow(self, name: str) -> Arrow:
        try:
            return self.quiver._by_name[name]  # type: ignore[attr-defined]
        except KeyError:
            raise UnknownArrowError(f"unknown arrow {name!r}") from None

    def require_vertex(self, v: str) -> str:
        if v not in self.quiver.vertex_index:
            raise UnknownVertexError(f"unknown vertex {v!r}")
        return v

    def out_arrows(self, v: str) -> tuple[Arrow, ...]:
        self.require_vertex(v)
        return self.quiver._out[v]  # type: ignore[attr-defined]

    def in_arrows(self, v: str) -> tuple[Arrow, ...]:
        self.require_vertex(v)
        return self.quiver._in[v]  # type: ignore[attr-defined]


def nonzero_successor(pair: AlmostGentlePair, a: str) -> str | None:
    """The unique arrow b with t(a)=s(b) and ab not in the ideal, if any."""
    pair.require_valid()
    pair.arrow(a)
    return pair.report.succ[a]


def vertex_type(pair: AlmostGentlePair, v: str) -> tuple[int, int]:
    """(in-degree, out-degree) of v."""
    return len(pair.in_arrows(v)), len(pair.out_arrows(v))


def opposite(pair: AlmostGentlePair) -> AlmostGentlePair:
    """Reverse every arrow and every relation; the result validates."""
    pair.require_valid()
    q = Quiver(pair.quiver.vertices,
               tuple(Arrow(a.name, a.target, a.source) for a in pair.quiver.arrows))
    rels = frozenset((b, a) for a, b in pair.relations)
    return AlmostGentlePair.build(q, rels)
