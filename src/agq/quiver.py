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
from collections.abc import Callable, Mapping, Sequence
from operator import attrgetter

TOKEN = r"[A-Za-z0-9_']+"  # a vertex, arrow or algebra name
TOKEN_RE = re.compile(TOKEN + r"\Z")
_NAMES_RE = re.compile(rf"{TOKEN}(?: {TOKEN})*\Z")  # names joined by single spaces

_setattr = object.__setattr__  # how a read-only record's __init__ sets its fields


def _by_constructor(record: _Record) -> tuple:
    """A slotted record's ``__reduce__``: copies and pickles rebuild it."""
    return type(record), tuple(getattr(record, name) for name in record._fields)


class _Record:
    """A plain record: its ``_fields`` are all it declares.

    ``_fields`` names the fields in constructor order.  The rest follows
    from it: the repr, ``Name(field=value, ...)``; the key ``_key``, the
    tuple of the field values (a 1-tuple for one field), which equality and
    a read-only record's hash read; and a constructor taking one value per
    field, by position in that order or by name (TypeError otherwise).
    Two records are equal when they are of the same class and their keys
    are equal.  With an ``__eq__`` and no ``__hash__`` a record is
    unhashable, as a mutable one should be.  A record with ``__slots__``
    has no ``__dict__`` for copy and pickle to fill, so it copies and
    pickles through its constructor.

    A record writes out its own ``__init__`` only to check its input, set
    defaults or hidden fields, or because a benchmarked operation builds
    thousands of it, where the generic loop costs 2-3 times as much (about
    1 us a record): ``Arrow`` and the oracle's ``Representation``.  Only
    ``AlmostGentlePair`` sets its own ``_key``: it compares a subset of its
    fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...]
    _key: Callable[[object], tuple]

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("_fields")
        if fields is None:  # a base, or a subclass keeping its parent's fields
            return
        if "_key" not in cls.__dict__:
            read = attrgetter(*fields)
            cls._key = read if len(fields) > 1 else staticmethod(lambda record: (read(record),))
        if "__slots__" in cls.__dict__:
            cls.__reduce__ = _by_constructor

    def __init__(self, *values: object, **named: object) -> None:
        fields = self._fields
        if named:  # the fields after the positional ones, by name
            values += tuple(named.pop(name) for name in fields[len(values):] if name in named)
            if named:
                raise TypeError(f"{type(self).__qualname__} got unexpected or repeated fields {sorted(named)}")
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__qualname__} takes {len(fields)} field values, got {len(values)}")
        for name, value in zip(fields, values):
            _setattr(self, name, value)

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


class Quiver(_Frozen):
    """Finite quiver with declaration order preserved for deterministic output."""

    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    _vidx: dict[str, int]  # name -> declaration index
    _aidx: dict[str, int]
    _fields = ("vertices", "arrows")

    def __init__(self, vertices: tuple[str, ...], arrows: tuple[Arrow, ...]) -> None:
        _setattr(self, "vertices", vertices)
        _setattr(self, "arrows", arrows)
        vidx = {v: i for i, v in enumerate(vertices)}
        if not _distinct_names(vidx, len(vertices)):
            _name_error("vertex", vertices)
        aidx = {a.name: i for i, a in enumerate(arrows)}
        if not _distinct_names(aidx, len(arrows)):
            _name_error("arrow", [a.name for a in arrows])
        _setattr(self, "_vidx", vidx)
        _setattr(self, "_aidx", aidx)

    @property
    def vertex_index(self) -> dict[str, int]:
        return self._vidx

    @property
    def arrow_index(self) -> dict[str, int]:
        return self._aidx


def _distinct_names(index: dict[str, int], count: int) -> bool:
    """Whether the count names that built index are distinct tokens: one
    match over them joined by spaces, where a name holding a space would
    add a separator."""
    if len(index) != count:
        return False
    joined = " ".join(index)
    return not count or (joined.count(" ") == count - 1 and _NAMES_RE.match(joined) is not None)


def _name_error(kind: str, names) -> None:
    """Raise for the first bad or repeated name, in order."""
    seen: set[str] = set()
    for name in names:
        if not TOKEN_RE.match(name):
            raise AgqError(f"bad {kind} name {name!r}")
        if name in seen:
            raise AgqError(f"duplicate {kind} {name!r}")
        seen.add(name)


class Violation(_Frozen):
    kind: str
    location: tuple[str, ...]
    message: str
    _fields = ("kind", "location", "message")


class ValidationReport(_Frozen):
    """Violations and warnings, plus what the validation computes anyway.

    Every report from ``validate_bound_quiver`` keeps the adjacency tables,
    by arrow and vertex declaration index: ``names`` (the arrow names), each
    arrow's ``source`` and ``target`` vertex (-1 outside the vertex set) and
    each vertex's out- and in-arrows ``outs``/``ins``, in declaration order.
    On composable input it also keeps each arrow's nonzero successor and
    predecessor ``nonzero_succ``/``nonzero_pred`` (-1 where there is none)
    and its relation successors ``relation_succ``, the arrows b with ab in
    the ideal, in declaration order; these are complete only when the
    report is valid.  A valid report also keeps the chain table
    (``_chain_table``): ``chain``, ``at``, ``end`` and ``head``.  The
    tables are the report's only successor and path data.  In a report
    built without one, reading it raises NotValidatedError."""

    valid: bool
    violations: tuple[Violation, ...]
    warnings: tuple[str, ...]
    names: tuple[str, ...]
    source: list[int]
    target: list[int]
    nonzero_succ: list[int]
    nonzero_pred: list[int]
    relation_succ: list[list[int]]
    chain: list[int]
    at: list[int]
    end: list[int]
    head: list[int]
    outs: tuple[tuple[int, ...], ...]
    ins: tuple[tuple[int, ...], ...]
    _fields = ("valid", "violations", "warnings")  # the tables are neither shown nor compared

    def __init__(self, valid: bool, violations: tuple[Violation, ...], warnings: tuple[str, ...],
                 **tables: object) -> None:
        _setattr(self, "valid", valid)
        _setattr(self, "violations", violations)
        _setattr(self, "warnings", warnings)
        for field in ("names", "source", "target", "outs", "ins", "nonzero_succ", "nonzero_pred", "relation_succ",
                      "chain", "at", "end", "head"):
            _setattr(self, field, tables[field] if field in tables else _NoTable(field))


class _NoTable:
    """Stands in for a table that a report was built without (by hand, or
    from input that is not composable): any read raises NotValidatedError.
    A stand-in, not a ``__getattr__`` on the report, keeps every read of a
    table on the interpreter's fast attribute path."""

    def __init__(self, name: str) -> None:
        self.name = name

    def _missing(self, *_args: object) -> None:
        raise NotValidatedError(f"this validation report has no {self.name!r} table; "
                                "AlmostGentlePair.build on composable input makes one")

    __getitem__ = __iter__ = __len__ = _missing


def validate_bound_quiver(quiver: Quiver, relations: frozenset[tuple[str, str]]) -> ValidationReport:
    """Check composability, the almost gentle conditions, and admissibility.

    Reports, never raises, on well-formed input.  Violation kinds:
    DanglingEndpoint, NonComposableRelation, TooManyNonzeroSuccessors,
    TooManyNonzeroPredecessors, NonzeroCycle.
    """
    vidx, aidx = quiver.vertex_index, quiver.arrow_index
    names = tuple(aidx)
    source = [vidx.get(a.source, -1) for a in quiver.arrows]
    target = [vidx.get(a.target, -1) for a in quiver.arrows]
    outs, ins = _arrows_at(len(vidx), source), _arrows_at(len(vidx), target)
    tables: dict[str, object] = {"names": names, "source": source, "target": target, "outs": outs, "ins": ins}
    rel: list[list[int]] = [[] for _ in names]  # each arrow's relation successors
    composable = -1 not in source and -1 not in target
    if composable:
        for a, b in relations:
            i, j = aidx.get(a, -1), aidx.get(b, -1)
            if i < 0 or j < 0 or target[i] != source[j]:
                composable = False
                break
            rel[i].append(j)
    if not composable:
        return ValidationReport(False, tuple(_malformed(quiver, relations)), (), **tables)

    # Every out-arrow of t(a) is a relation successor of a or a nonzero
    # successor; the nonzero pairs give the predecessors too.
    violations: list[Violation] = []
    succ, pred = [-1] * len(names), [-1] * len(names)
    more_pred: dict[int, list[int]] = {}  # the nonzero predecessors after the first
    for i, zero in enumerate(rel):
        if len(zero) > 1:
            zero.sort()
        after = outs[target[i]]
        if len(after) == len(zero):
            nonzero: Sequence[int] = ()
        elif zero:
            nonzero = [j for j in after if j not in zero]
        else:
            nonzero = after
        if len(nonzero) == 1:
            succ[i] = nonzero[0]
        elif nonzero:
            violations.append(Violation("TooManyNonzeroSuccessors", (names[i],), f"arrow {names[i]} has "
                                        f"nonzero successors {', '.join(names[j] for j in nonzero)}"))
        for j in nonzero:
            if pred[j] < 0:
                pred[j] = i
            else:
                more_pred.setdefault(j, []).append(i)
    for j, rest in more_pred.items():
        violations.append(Violation("TooManyNonzeroPredecessors", (names[j],), f"arrow {names[j]} has "
                                    f"nonzero predecessors {', '.join(names[i] for i in [pred[j], *rest])}"))
        pred[j] = -1

    # Admissibility: the nonzero-successor functional graph must be acyclic
    # (nonzero extensions are unique, so any arbitrarily long nonzero path
    # closes up into a cycle of this graph).
    for cycle in successor_cycles({i: j for i, j in enumerate(succ) if j >= 0}):
        location = tuple(names[i] for i in cycle)
        violations.append(Violation("NonzeroCycle", location, "nonzero cycle " + " ".join(location)))

    warnings: list[str] = []
    if outs and not _connected(outs, ins, source, target):
        warnings.append("quiver is disconnected; all computations are componentwise")

    violations.sort(key=lambda v: (v.kind, v.location))
    if not violations:
        tables.update(_chain_table(succ, pred))
    return ValidationReport(not violations, tuple(violations), tuple(warnings), **tables,
                            nonzero_succ=succ, nonzero_pred=pred, relation_succ=rel)


def _chain_table(succ: list[int], pred: list[int]) -> dict[str, list[int]]:
    """The chains of a valid pair, maximal runs of nonzero successors, in
    one pass: ``chain`` lists the arrows chain by chain, each from its head
    (an arrow without a nonzero predecessor); by arrow index, ``at[i]`` is
    arrow i's position there, ``end[i]`` the position past its chain's last
    arrow and ``head[i]`` its chain's first arrow.  Every nonzero directed
    path is a slice of ``chain``."""
    chain: list[int] = []
    at, head, stop = [0] * len(succ), [0] * len(succ), [0] * len(succ)  # stop: by head arrow
    for h, p in enumerate(pred):
        if p < 0:
            i = h
            while i >= 0:  # admissibility keeps the chain finite
                at[i], head[i] = len(chain), h
                chain.append(i)
                i = succ[i]
            stop[h] = len(chain)
    return {"chain": chain, "at": at, "end": [stop[h] for h in head], "head": head}


def _arrows_at(count: int, ends: list[int]) -> tuple[tuple[int, ...], ...]:
    """Per vertex index below count, the arrows i with ends[i] that vertex,
    in declaration order; an end of -1 (outside the vertex set) is skipped."""
    found: list[list[int]] = [[] for _ in range(count)]
    for i, v in enumerate(ends):
        if v >= 0:
            found[v].append(i)
    return tuple(map(tuple, found))


def _malformed(quiver: Quiver, relations: frozenset[tuple[str, str]]) -> list[Violation]:
    """The violations that end a validation early: arrows with an endpoint
    outside the vertex set, then relations naming an unknown arrow or not
    composable."""
    vset, aidx, arrows = quiver.vertex_index, quiver.arrow_index, quiver.arrows
    found = [Violation("DanglingEndpoint", (a.name,), f"arrow {a.name} has an endpoint outside the vertex set")
             for a in arrows if a.source not in vset or a.target not in vset]
    for a, b in sorted(relations):
        if a not in aidx or b not in aidx:
            found.append(Violation("DanglingEndpoint", (a, b), f"relation ({a},{b}) names an unknown arrow"))
        elif arrows[aidx[a]].target != arrows[aidx[b]].source:
            found.append(Violation("NonComposableRelation", (a, b),
                                   f"relation ({a},{b}) is not composable: "
                                   f"t({a})={arrows[aidx[a]].target} != s({b})={arrows[aidx[b]].source}"))
    return found


def successor_cycles(succ: Mapping) -> list[list]:
    """The cycles of the partial map a -> succ[a], each listed once.

    Walks start from the keys in order, and each cycle starts at the first
    of its nodes that a walk enters.  The cycles of a map are disjoint.
    """
    cycles: list[list] = []
    state: dict = {}
    for start in succ:
        if state.get(start):
            continue
        chain = []
        cur = start
        while cur is not None and state.get(cur, 0) == 0:
            state[cur] = 1
            chain.append(cur)
            cur = succ.get(cur)
        if cur is not None and state[cur] == 1:
            cycles.append(chain[chain.index(cur):])
        for node in chain:
            state[node] = 2
    return cycles


def _connected(outs: Sequence, ins: Sequence, source: list[int], target: list[int]) -> bool:
    """Whether one walk along arrows, either way, reaches every vertex."""
    seen = bytearray(len(outs))
    seen[0] = 1
    todo = [0]
    while todo:
        v = todo.pop()
        for i in outs[v]:
            if not seen[target[i]]:
                seen[target[i]] = 1
                todo.append(target[i])
        for i in ins[v]:
            if not seen[source[i]]:
                seen[source[i]] = 1
                todo.append(source[i])
    return all(seen)


class AlmostGentlePair(_Frozen):
    """A validated bound quiver.  Immutable; all operations are pure."""

    quiver: Quiver
    relations: frozenset[tuple[str, str]]
    report: ValidationReport
    _memo: dict
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
        cache = self._memo
        try:
            return cache[key]
        except KeyError:
            pass  # computed outside the handler, so its errors carry no KeyError context
        value = cache[key] = compute()
        return value

    # -- lookups -----------------------------------------------------------

    def arrow(self, name: str) -> Arrow:
        try:
            return self.quiver.arrows[self.quiver.arrow_index[name]]
        except KeyError:
            raise UnknownArrowError(f"unknown arrow {name!r}") from None

    def require_vertex(self, v: str) -> str:
        if v not in self.quiver.vertex_index:
            raise UnknownVertexError(f"unknown vertex {v!r}")
        return v

    def out_arrows(self, v: str) -> tuple[Arrow, ...]:
        self.require_vertex(v)
        return tuple(map(self.quiver.arrows.__getitem__, self.report.outs[self.quiver.vertex_index[v]]))

    def in_arrows(self, v: str) -> tuple[Arrow, ...]:
        self.require_vertex(v)
        return tuple(map(self.quiver.arrows.__getitem__, self.report.ins[self.quiver.vertex_index[v]]))


def _sorted_relations(pair: AlmostGentlePair) -> list[tuple[str, str]]:
    """The relations by their arrows' declaration indices; one naming an
    unknown arrow sorts after those arrows, by name."""
    idx, n = pair.quiver.arrow_index, len(pair.quiver.arrows)
    return sorted(pair.relations, key=lambda e: (idx.get(e[0], n), e[0], idx.get(e[1], n), e[1]))


def nonzero_successor(pair: AlmostGentlePair, a: str) -> str | None:
    """The unique arrow b with t(a)=s(b) and ab not in the ideal, if any."""
    pair.require_valid()
    pair.arrow(a)
    b = pair.report.nonzero_succ[pair.quiver.arrow_index[a]]
    return pair.report.names[b] if b >= 0 else None


def vertex_type(pair: AlmostGentlePair, v: str) -> tuple[int, int]:
    """(in-degree, out-degree) of v."""
    i = pair.quiver.vertex_index[pair.require_vertex(v)]
    return len(pair.report.ins[i]), len(pair.report.outs[i])


def opposite(pair: AlmostGentlePair) -> AlmostGentlePair:
    """Reverse every arrow and every relation; the result validates."""
    pair.require_valid()
    q = Quiver(pair.quiver.vertices,
               tuple(Arrow(a.name, a.target, a.source) for a in pair.quiver.arrows))
    rels = frozenset((b, a) for a, b in pair.relations)
    return AlmostGentlePair.build(q, rels)
