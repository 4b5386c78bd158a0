"""Forbidden paths: the relation digraph on arrows and sup-length queries.

A forbidden path is an arrow sequence whose every consecutive composition
lies in the ideal, i.e. exactly a walk in the digraph with an edge a -> b for
every relation pair ab.  All dimension queries reduce to longest paths in
that digraph after condensing strongly connected components.  Values live
in integer tables indexed by arrow, and witnesses are built from pointers
on demand: either finite paths or stem+cycle lassos.

Lengths count arrows, the digraph counts edges, so a sup over paths from an
arrow is 1 + the longest edge-path from its node.  sup over the empty set is
Finite(0) throughout.
"""

from __future__ import annotations

from .quiver import AlmostGentlePair, _Frozen, _setattr, nonzero_successor
from .strings import DirectedString, _check_string, string_source


class LengthOrInf(_Frozen):
    """A value in N united with infinity, ordered with Infinite on top."""

    value: int | None  # None encodes infinity
    _fields = ("value",)

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


class ForbiddenWalk(_Frozen):
    """A finite forbidden path, or a lasso encoding stem . cycle^omega."""

    stem: tuple[str, ...]
    cycle: tuple[str, ...]
    _fields = ("stem", "cycle")

    def __init__(self, stem: tuple[str, ...], cycle: tuple[str, ...] = ()) -> None:
        _setattr(self, "stem", stem)
        _setattr(self, "cycle", cycle)

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
        return True


_INFINITE = float("inf")  # the length-table marker of an arrow that reaches a forbidden cycle
_NO_WALK = (-1, -1)  # the pointer of no witness


class _DigraphData:
    """The relation digraph of one pair on arrow indices, condensed, with
    every arrow's sup in two integer tables and every vertex's best two.
    Every tie between sups is broken here.

    ``out[i]`` lists arrow i's relation successors in declaration order
    and ``source[i]`` is its source vertex: the validation's own lists
    ``relation_succ`` and ``source``.  ``scc[i]`` is arrow i's component,
    ``cyclic[i]`` whether it is on a cycle.
    ``length[i]`` is the sup of forbidden-path lengths from arrow i, or
    ``_INFINITE`` when i reaches a cycle.  ``nxt[i]`` points along i's
    witness: for a finite sup the first successor in declaration order
    with the longest sup (-1 at a dead end), for an infinite one the next
    arrow of its walk into and around a ring.  Following ``nxt`` from i
    until an arrow repeats spells the witness: the longest walk, or a
    lasso whose loop is the repeated part.  ``top_len[v]``/``top[v]`` is
    vertex v's best out-arrow sup and arrow (0 and -1 at a sink), pd S(v);
    ``skip`` reads the best two.
    """

    def __init__(self, pair: AlmostGentlePair):
        report = pair.report  # the validation's tables, shared
        self.names, self.out, self.source = report.names, report.relation_succ, report.source
        self.scc, order = self._tarjan()
        sizes = [0] * len(order)
        for comp in self.scc:
            sizes[comp] += 1
        self.cyclic = [sizes[self.scc[i]] > 1 or i in children for i, children in enumerate(self.out)]
        self.length, self.nxt = self._sups(order)
        n_v = len(report.outs)
        # every vertex's best and second-best out-arrow sup, ties to the earlier-declared arrow
        self.top_len, self.top = top_len, top = [0] * n_v, [-1] * n_v
        self.second_len, self.second = second_len, second = [0] * n_v, [-1] * n_v
        for i, s in enumerate(self.source):
            n = self.length[i]
            if n > top_len[s]:
                second_len[s], second[s] = top_len[s], top[s]
                top_len[s], top[s] = n, i
            elif n > second_len[s]:
                second_len[s], second[s] = n, i

    def _tarjan(self) -> tuple[list[int], list[int]]:
        """Component of every node, and the nodes in emission order (sinks first)."""
        out = self.out
        n = len(out)
        index = [-1] * n
        low = [0] * n
        comp = [-1] * n
        order: list[int] = []
        stack: list[int] = []
        on_stack = [False] * n
        counter = ncomp = 0
        for root in range(n):
            if index[root] >= 0:
                continue
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack[root] = True
            work = [(root, iter(out[root]))]
            while work:
                node, children = work[-1]
                for ch in children:
                    if index[ch] < 0:
                        index[ch] = low[ch] = counter
                        counter += 1
                        stack.append(ch)
                        on_stack[ch] = True
                        work.append((ch, iter(out[ch])))
                        break
                    if on_stack[ch] and index[ch] < low[node]:
                        low[node] = index[ch]
                else:
                    work.pop()
                    if low[node] == index[node]:
                        while True:
                            w = stack.pop()
                            on_stack[w] = False
                            comp[w] = ncomp
                            order.append(w)
                            if w == node:
                                break
                        ncomp += 1
                    if work:
                        parent = work[-1][0]
                        if low[node] < low[parent]:
                            low[parent] = low[node]
        return comp, order

    def _sups(self, order: list[int]) -> tuple[list, list[int]]:
        """One sweep in emission order, so every successor outside a node's
        own component is settled before the node.  Seeding ``reaches`` with
        the cyclic nodes settles the successors inside a cyclic component.
        """
        out = self.out
        reaches = list(self.cyclic)
        length: list = [0] * len(out)  # 0 until settled; every sup is at least 1
        nxt = [-1] * len(out)
        for node in order:
            if length[node]:
                continue
            step = next((c for c in out[node] if reaches[c]), -1)
            if step < 0:
                # ties go to the first child in declaration order
                best = 0
                for c in out[node]:
                    if length[c] > best:
                        best, nxt[node] = length[c], c
                length[node] = best + 1
                continue
            # Follow first cycle-reaching successors until a node with a
            # known lasso, or until the walk closes a ring of its own.
            reaches[node] = True
            cur = node
            while True:
                length[cur], nxt[cur] = _INFINITE, step
                if length[step]:
                    break
                cur = step
                step = next(c for c in out[cur] if reaches[c])
        return length, nxt

    def skip(self, v: int, b: int) -> tuple:
        """The best sup over the out-arrows of vertex v other than arrow b
        (-1 for none), as (length, arrow index); (0, -1) if there is none."""
        if self.top[v] == b:
            return self.second_len[v], self.second[v]
        return self.top_len[v], self.top[v]

    def walk(self, head: int, start: int) -> ForbiddenWalk | None:
        """The witness spelled by arrow ``head`` (if not -1) and then the
        pointer walk from ``start`` (if not -1); None if both are -1."""
        seq = list(self.spelled(head, start))
        if not seq:
            return None
        first = 1 if head >= 0 else 0  # where the pointer walk begins
        loop = self.nxt[seq[-1]] if len(seq) > first else -1  # the arrow it repeats
        cut = len(seq) if loop < 0 else seq.index(loop, first)
        names = self.names
        return ForbiddenWalk(tuple(names[i] for i in seq[:cut]), tuple(names[i] for i in seq[cut:]))

    def spelled(self, head: int, start: int):
        """The arrows ``walk(head, start)`` spells, without building it."""
        if head >= 0:
            yield head
        seen = set()
        node, nxt = start, self.nxt
        while node >= 0 and node not in seen:
            seen.add(node)
            yield node
            node = nxt[node]

    def precedes(self, x: tuple[int, int], y: tuple[int, int]) -> bool:
        """Whether pointer x spells a witness strictly before y's.

        Witnesses compare at the first arrow where they differ, by
        declaration index; a prefix comes before its extensions and any
        walk before none.  Both walks step in lockstep and stop at the first
        difference, or once both stand on the same arrow of a finite walk,
        since from there they spell the same arrows.  Two lassos on the same
        arrow may still close their loops at different arrows, so they run
        on until one of them ends.
        """
        if x == y or x == _NO_WALK:
            return False
        if y == _NO_WALK:
            return True
        first_x = x[0] if x[0] >= 0 else x[1]
        first_y = y[0] if y[0] >= 0 else y[1]
        if first_x != first_y:  # the common case, settled without stepping
            return first_x < first_y
        on_walks = 1 if x[0] >= 0 or y[0] >= 0 else 0  # from here both spell their walks
        ys = self.spelled(*y)
        for pos, a in enumerate(self.spelled(*x)):
            b = next(ys, -1)
            if b < 0:
                return False  # y is a proper prefix of x
            if a != b:
                return a < b
            if pos >= on_walks and self.length[a] != _INFINITE:
                return False
        return next(ys, -1) >= 0

    def best(self, candidates) -> tuple:
        """The largest of (length, pointer) candidates, ties to the least
        witness; (0, _NO_WALK) if there are none."""
        best_len, best = 0, _NO_WALK
        for n, ptr in candidates:
            if n > best_len or (n == best_len and self.precedes(ptr, best)):
                best_len, best = n, ptr
        return best_len, best


def digraph_data(pair: AlmostGentlePair) -> _DigraphData:
    return pair.memo("digraph", lambda: _DigraphData(pair))


def _length_value(n) -> LengthOrInf:
    """A length-table entry as a LengthOrInf."""
    return INF if n == _INFINITE else LengthOrInf(n)


def sup_forbidden_from_arrow(pair: AlmostGentlePair, a: str) -> tuple[LengthOrInf, ForbiddenWalk]:
    """Sup of lengths of forbidden paths starting with arrow a, with witness.

    Always at least Finite(1): a single arrow is vacuously forbidden.  The
    witness is spelled from the pair's pointer table on each call.
    """
    pair.require_valid()
    pair.arrow(a)
    data = digraph_data(pair)
    i = pair.quiver.arrow_index[a]
    return _length_value(data.length[i]), data.walk(-1, i)  # type: ignore[return-value]


def sup_forbidden_from_vertex(pair: AlmostGentlePair, v: str) -> tuple[LengthOrInf, ForbiddenWalk | None]:
    """Sup over all forbidden paths starting at v; Finite(0) for sinks."""
    pair.require_valid()
    pair.require_vertex(v)
    data = digraph_data(pair)
    i = pair.quiver.vertex_index[v]
    return _length_value(data.top_len[i]), data.walk(-1, data.top[i])


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
    data = digraph_data(pair)
    idx = pair.quiver.arrow_index
    source = pair.quiver.vertex_index[string_source(pair, delta)]
    n, i = data.skip(source, idx[arrows[0]] if arrows else -1)
    candidates = [(n, (-1, i))]
    after = nonzero_successor(pair, arrows[-1]) if arrows else None  # the continuation past the sink
    if after is not None:
        candidates.append((data.length[idx[after]], (-1, idx[after])))
    n, (_head, start) = data.best(candidates)
    return _length_value(n), data.walk(-1, start)


def forbidden_cycles(pair: AlmostGentlePair, cap: int = 10_000) -> tuple[list[tuple[str, ...]], bool]:
    """Elementary cycles of the relation digraph in canonical rotation.

    Returns (cycles, truncated).  Above the cap, enumeration stops, the
    truncated flag is set, and one representative cycle per nontrivial
    strongly connected component is kept.  Empty iff the digraph is acyclic.
    """
    pair.require_valid()
    data = digraph_data(pair)
    out, scc = data.out, data.scc
    cycles: list[tuple[int, ...]] = []
    truncated = False

    # Johnson's algorithm (Johnson 1975), one root at a time in declaration
    # order: the elementary cycles whose least node (by declaration) is the
    # root.  A node stays blocked while every path from it back to the root
    # meets the current path, so only subtrees without a cycle are skipped
    # and the cycles come out in plain depth-first order.
    for root, on_cycle in enumerate(data.cyclic):
        if truncated:
            break
        if not on_cycle:
            continue
        blocked = {root}
        blocked_by: dict[int, set[int]] = {}  # node -> blocked nodes it unblocks
        path = [root]
        stack = [iter(out[root])]
        found = [False]  # whether each node on the path has closed a cycle
        while stack:
            for ch in stack[-1]:
                if ch < root:
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
                    stack.append(iter(out[ch]))
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
                    for ch in out[node]:
                        if ch >= root:
                            blocked_by.setdefault(ch, set()).add(node)
                continue
            if truncated:
                break
    if truncated:
        covered = {scc[cyc[0]] for cyc in cycles}  # an elementary cycle stays in one component
        for node, on_cycle in enumerate(data.cyclic):
            if on_cycle and scc[node] not in covered:
                cycles.append(tuple(map(pair.quiver.arrow_index.__getitem__,
                                        data.walk(-1, node).cycle)))  # type: ignore[union-attr]
                covered.add(scc[node])
    canon = set()
    for cyc in cycles:
        k = cyc.index(min(cyc))
        canon.add(cyc[k:] + cyc[:k])
    names = data.names
    return [tuple(names[i] for i in cyc) for cyc in sorted(canon, key=lambda c: (len(c), c))], truncated
