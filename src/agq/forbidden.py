"""Forbidden paths: the relation digraph on arrows and sup-length queries.

A forbidden path is an arrow sequence whose every consecutive composition
lies in the ideal, i.e. exactly a walk in the digraph with an edge a -> b for
every relation pair ab.  All dimension queries reduce to longest paths in
that digraph after condensing strongly connected components; witnesses are
either finite paths or stem+cycle lassos.

Lengths count arrows, the digraph counts edges, so a sup over paths from an
arrow is 1 + the longest edge-path from its node.  sup over the empty set is
Finite(0) throughout.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .quiver import AlmostGentlePair, nonzero_successor
from .strings import DirectedString, _check_string, string_source


@dataclass(frozen=True)
class LengthOrInf:
    """A value in N united with infinity, ordered with Infinite on top."""

    value: int | None  # None encodes infinity

    @classmethod
    def finite(cls, n: int) -> "LengthOrInf":
        if n < 0:
            raise ValueError("lengths are nonnegative")
        return cls(n)

    @classmethod
    def infinite(cls) -> "LengthOrInf":
        return cls(None)

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    def plus(self, n: int) -> "LengthOrInf":
        return self if self.value is None else LengthOrInf(self.value + n)

    def __lt__(self, other: "LengthOrInf") -> bool:
        return self.value is not None and (other.value is None or self.value < other.value)

    def __le__(self, other: "LengthOrInf") -> bool:
        return other.value is None or (self.value is not None and self.value <= other.value)

    def __gt__(self, other: "LengthOrInf") -> bool:
        return other.value is not None and (self.value is None or self.value > other.value)

    def __ge__(self, other: "LengthOrInf") -> bool:
        return self.value is None or (other.value is not None and self.value >= other.value)

    def __str__(self) -> str:
        return "infinite" if self.value is None else str(self.value)


ZERO = LengthOrInf.finite(0)
INF = LengthOrInf.infinite()


@dataclass(frozen=True)
class ForbiddenWalk:
    """A finite forbidden path, or a lasso encoding stem . cycle^omega."""

    stem: tuple[str, ...]
    cycle: tuple[str, ...] = ()

    @property
    def is_lasso(self) -> bool:
        return bool(self.cycle)

    def length(self) -> LengthOrInf:
        return INF if self.cycle else LengthOrInf.finite(len(self.stem))

    def verify(self, pair: AlmostGentlePair) -> bool:
        """Every consecutive pair (stem, junction, and cycle wrap) is a relation."""
        seq = self.stem + self.cycle
        for x, y in zip(seq, seq[1:]):
            if (x, y) not in pair.relations:
                return False
        if self.cycle and (self.cycle[-1], self.cycle[0]) not in pair.relations:
            return False
        if self.cycle and self.stem and (self.stem[-1], self.cycle[0]) not in pair.relations:
            return False
        return True


class _DigraphData:
    """The relation digraph of one pair, condensed, with every arrow's sup.

    ``sup[a]`` is the sup of forbidden-path lengths from arrow a with its
    witness: a lasso when a reaches a cycle, else the longest walk, ties
    broken to the least witness by arrow declaration order.
    """

    def __init__(self, pair: AlmostGentlePair):
        self.idx = pair.quiver.arrow_index
        # every arrow's relation successors, in declaration order
        self.succ: Mapping[str, list[str]] = pair.report.rel_succ
        self.scc, order = self._tarjan()
        sizes: dict[int, int] = {}
        for node, comp in self.scc.items():
            sizes[comp] = sizes.get(comp, 0) + 1
        self.cyclic_node = {
            node for node, comp in self.scc.items()
            if sizes[comp] > 1 or node in self.succ[node]
        }
        self.sup = self._sups(order)

    def _tarjan(self) -> tuple[dict[str, int], list[str]]:
        """Component of every node, and the nodes in emission order (sinks first)."""
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        comp: dict[str, int] = {}
        order: list[str] = []
        stack: list[str] = []
        on_stack: set[str] = set()
        counter = [0]
        ncomp = [0]

        def strongconnect(root: str) -> None:
            work = [(root, 0)]
            while work:
                node, pi = work[-1]
                if pi == 0:
                    index[node] = low[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                recurse = False
                children = self.succ[node]
                for i in range(pi, len(children)):
                    ch = children[i]
                    if ch not in index:
                        work[-1] = (node, i + 1)
                        work.append((ch, 0))
                        recurse = True
                        break
                    if ch in on_stack:
                        low[node] = min(low[node], index[ch])
                if recurse:
                    continue
                if low[node] == index[node]:
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp[w] = ncomp[0]
                        order.append(w)
                        if w == node:
                            break
                    ncomp[0] += 1
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])

        for node in self.succ:
            if node not in index:
                strongconnect(node)
        return comp, order

    def _sups(self, order: list[str]) -> dict[str, tuple[LengthOrInf, ForbiddenWalk]]:
        """One sweep in emission order, so every successor outside a node's
        own component is settled before the node.  Seeding ``reaches`` with
        the cyclic nodes settles the successors inside a cyclic component.
        """
        reaches = set(self.cyclic_node)
        sup: dict[str, tuple[LengthOrInf, ForbiddenWalk]] = {}

        def step(node: str) -> str | None:
            return next((c for c in self.succ[node] if c in reaches), None)

        for node in order:
            if node in sup:
                continue
            nxt = step(node)
            if nxt is None:
                # ties go to the first child in declaration order
                tail = max((sup[c][1].stem for c in self.succ[node]), key=len, default=())
                sup[node] = (LengthOrInf.finite(len(tail) + 1), ForbiddenWalk((node,) + tail))
                continue
            # Follow first cycle-reaching successors until a node with a
            # known lasso, or until the walk closes a ring of its own.
            reaches.add(node)
            path, pos, cur = [node], {node: 0}, nxt
            while cur not in sup and cur not in pos:
                pos[cur] = len(path)
                path.append(cur)
                cur = step(cur)  # type: ignore[assignment]
            if cur in pos:
                ring = path[pos[cur]:]
                del path[pos[cur]:]
                for i, r in enumerate(ring):
                    sup[r] = (INF, ForbiddenWalk((), tuple(ring[i:] + ring[:i])))
            for a in reversed(path):
                after = sup[cur][1]
                sup[a] = (INF, ForbiddenWalk((a,) + after.stem, after.cycle))
                cur = a
        return sup


def digraph_data(pair: AlmostGentlePair) -> _DigraphData:
    return pair.memo("digraph", lambda: _DigraphData(pair))


def sup_forbidden_from_arrow(pair: AlmostGentlePair, a: str) -> tuple[LengthOrInf, ForbiddenWalk]:
    """Sup of lengths of forbidden paths starting with arrow a, with witness.

    Always at least Finite(1): a single arrow is vacuously forbidden.
    """
    pair.require_valid()
    pair.arrow(a)
    return digraph_data(pair).sup[a]


def sup_forbidden_from_vertex(pair: AlmostGentlePair, v: str) -> tuple[LengthOrInf, ForbiddenWalk | None]:
    """Sup over all forbidden paths starting at v; Finite(0) for sinks."""
    pair.require_valid()
    pair.require_vertex(v)
    return _sup_from_vertex(pair, v)


def _sup_from_vertex(pair: AlmostGentlePair, v: str) -> tuple[LengthOrInf, ForbiddenWalk | None]:
    sup = digraph_data(pair).sup
    return best_witnessed(pair, (sup[b.name] for b in pair.quiver._out[v]))  # type: ignore[attr-defined]


def better_witnessed(pair: AlmostGentlePair,
            cur: tuple[LengthOrInf, ForbiddenWalk | None],
            cand: tuple[LengthOrInf, ForbiddenWalk | None]) -> tuple[LengthOrInf, ForbiddenWalk | None]:
    """The larger sup; on a tie the least witness, cur if they are equal.

    Witnesses compare at the first arrow where they differ, by declaration
    index; a prefix comes before its extensions and any walk before None.
    """
    new_len, old_len = cand[0].value, cur[0].value  # None is infinite
    if new_len != old_len:
        return cand if old_len is not None and (new_len is None or new_len > old_len) else cur
    new, old = cand[1], cur[1]
    if new is None or old is None or new is old:
        return cand if old is None and new is not None else cur
    idx = pair.quiver.arrow_index
    seq, ref = new.stem + new.cycle, old.stem + old.cycle
    for x, y in zip(seq, ref):
        if x != y:
            return cand if idx[x] < idx[y] else cur
    return cand if len(seq) < len(ref) else cur


def best_witnessed(pair: AlmostGentlePair, candidates) -> tuple[LengthOrInf, ForbiddenWalk | None]:
    """The best candidate by ``better_witnessed``; (Finite(0), None) if none."""
    best: tuple[LengthOrInf, ForbiddenWalk | None] = (ZERO, None)
    for cand in candidates:
        new_len, old_len = cand[0].value, best[0].value
        if new_len is not None and (old_len is None or new_len < old_len):
            continue  # a shorter sup never wins; skip the call
        best = better_witnessed(pair, best, cand)
    return best


def zero_length_forbidden(pair: AlmostGentlePair, v: str) -> bool:
    """Whether the stationary path at v counts as a forbidden path.

    True for a relation through the unique in/out arrow pair, for a source
    with a single out-arrow, and for a sink with a single in-arrow.  These
    never affect any dimension (their length is zero).
    """
    pair.require_valid()
    ins, outs = pair.in_arrows(v), pair.out_arrows(v)
    if len(ins) == 1 and len(outs) == 1:
        if (ins[0].name, outs[0].name) in pair.relations:
            return True
    if not ins and len(outs) == 1:
        return True
    if not outs and len(ins) == 1:
        return True
    return False


def delta_forbidden_sup(pair: AlmostGentlePair, delta: DirectedString) -> tuple[LengthOrInf, ForbiddenWalk | None]:
    """Sup over the forbidden paths counted against delta; Finite(0) if none.

    They start with the continuation past the sink (the nonzero successor of
    the last arrow) or with an arrow at the source other than the first
    arrow of delta.  For a length-zero string this is the plain from-vertex
    sup at the anchor.
    """
    pair.require_valid()
    arrows = _check_string(pair, delta).arrows
    starts = [nonzero_successor(pair, arrows[-1])] if arrows else []
    starts += [b.name for b in pair.quiver._out[string_source(pair, delta)]  # type: ignore[attr-defined]
               if b.name not in arrows[:1]]
    return best_witnessed(pair, (sup_forbidden_from_arrow(pair, a) for a in starts if a is not None))


def forbidden_cycles(pair: AlmostGentlePair, cap: int = 10_000) -> tuple[list[tuple[str, ...]], bool]:
    """Elementary cycles of the relation digraph in canonical rotation.

    Returns (cycles, truncated).  Above the cap, enumeration stops, the
    truncated flag is set, and one representative cycle per nontrivial
    strongly connected component is kept.  Empty iff the digraph is acyclic.
    """
    pair.require_valid()
    data = digraph_data(pair)
    idx = pair.quiver.arrow_index
    cycles: list[tuple[str, ...]] = []
    truncated = False

    # Johnson's algorithm (Johnson 1975), one root at a time in declaration
    # order: the elementary cycles whose least node (by declaration) is the
    # root.  A node stays blocked while every path from it back to the root
    # meets the current path, so only subtrees without a cycle are skipped
    # and the cycles come out in plain depth-first order.
    for root in data.succ:  # succ and its lists are in arrow declaration order
        if root not in data.cyclic_node:
            continue
        if truncated:
            break
        low = idx[root]
        blocked = {root}
        blocked_by: dict[str, set[str]] = {}  # node -> blocked nodes it unblocks
        path = [root]
        stack = [iter(data.succ[root])]
        found = [False]  # whether each node on the path has closed a cycle
        while stack:
            for ch in stack[-1]:
                if idx[ch] < low:
                    continue
                if ch == root:
                    cycles.append(tuple(path))
                    found[-1] = True
                    if len(cycles) >= cap:
                        truncated = True
                        break
                elif ch not in blocked:
                    blocked.add(ch)
                    path.append(ch)
                    stack.append(iter(data.succ[ch]))
                    found.append(False)
                    break
            else:
                stack.pop()
                node = path.pop()
                if found.pop():
                    if found:
                        found[-1] = True
                    todo = [node]
                    while todo:
                        u = todo.pop()
                        if u in blocked:
                            blocked.discard(u)
                            todo.extend(blocked_by.pop(u, ()))
                else:
                    for ch in data.succ[node]:
                        if idx[ch] >= low:
                            blocked_by.setdefault(ch, set()).add(node)
                continue
            if truncated:
                break
    if truncated:
        covered = {frozenset(data.scc[x] for x in cyc) for cyc in cycles}
        for node in data.succ:
            if node in data.cyclic_node and frozenset({data.scc[node]}) not in covered:
                cycles.append(data.sup[node][1].cycle)
                covered.add(frozenset({data.scc[node]}))
    canon = []
    for cyc in cycles:
        k = min(range(len(cyc)), key=lambda i: idx[cyc[i]])
        canon.append(cyc[k:] + cyc[:k])
    canon = sorted(set(canon), key=lambda c: (len(c), tuple(idx[x] for x in c)))
    return canon, truncated
