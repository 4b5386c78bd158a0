import gc
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agq.agqfile import load_pair
from agq.forbidden import (
    INF,
    ForbiddenWalk,
    LengthOrInf,
    _DigraphData,
    _INFINITE,
    _NO_WALK,
    delta_forbidden_sup,
    digraph_data,
    forbidden_cycles,
    sup_forbidden_from_arrow,
    sup_forbidden_from_vertex,
    zero_length_forbidden,
)
from agq.strings import DirectedString
from agq.generator import GeneratorParams, random_ag_pair
from agq.homdim import global_dimension
from agq.quiver import NotValidatedError
from conftest import FIXTURES, make_pair


def test_sup_from_arrow_fig1(fig1):
    value, walk = sup_forbidden_from_arrow(fig1, "a_1_2")
    assert value == LengthOrInf.finite(4)
    assert walk.stem == ("a_1_2", "a_2_3", "a_3_4", "a_4_5")
    assert walk.verify(fig1)


def test_sup_from_arrow_cycle(cyc2):
    value, walk = sup_forbidden_from_arrow(cyc2, "a")
    assert value == INF
    assert walk.is_lasso
    assert walk.stem == ()
    assert tuple(sorted(walk.cycle)) == ("a", "b")
    assert walk.verify(cyc2)


def test_verify_rejects_a_forged_walk(fig1, cyc2, matched_entry, finite_envelope):
    # each forgery breaks one link that verify reads, next to a genuine walk
    assert ForbiddenWalk(("b_1_2R", "a_2R_3R")).verify(fig1)
    assert not ForbiddenWalk(("a_1_2R", "a_2R_3R")).verify(fig1)  # a stem step that is no relation
    one_way = make_pair(["1", "2"], [("a", "1", "2"), ("b", "2", "1")], [("a", "b")])
    assert ForbiddenWalk((), ("a", "b")).verify(cyc2)
    assert not ForbiddenWalk((), ("a", "b")).verify(one_way)  # the wrap (b, a) is no relation
    assert ForbiddenWalk(("al",), ("a0", "a1")).verify(finite_envelope)
    assert not ForbiddenWalk(("ap",), ("a0", "a1")).verify(matched_entry)  # (ap, a0) is no relation


def test_sup_from_arrow_vacuous(a2):
    value, walk = sup_forbidden_from_arrow(a2, "a")
    assert value == LengthOrInf.finite(1)
    assert walk.stem == ("a",)


def test_sup_from_arrow_at_least_one_on_corpus():
    for seed in range(1, 16):
        pair, _ = random_ag_pair(GeneratorParams(seed=seed))
        for a in pair.quiver.arrows:
            value, walk = sup_forbidden_from_arrow(pair, a.name)
            assert value >= LengthOrInf.finite(1)
            assert walk.verify(pair)
            if value.is_finite:
                assert len(walk.stem) == value.value


def test_sup_from_vertex(fig1, cyc2):
    assert sup_forbidden_from_vertex(fig1, "1")[0] == LengthOrInf.finite(4)
    assert sup_forbidden_from_vertex(fig1, "5")[0] == LengthOrInf.finite(0)
    assert sup_forbidden_from_vertex(cyc2, "1")[0] == INF


def test_sup_table_is_stored_on_the_pair_only():
    pair, _ = random_ag_pair(GeneratorParams(seed=1))
    assert not global_dimension(pair).value.is_finite
    a = pair.quiver.arrows[0].name
    assert sup_forbidden_from_arrow(pair, a) == sup_forbidden_from_arrow(pair, a)
    assert sorted(pair._memo) == ["digraph"]  # the length and pointer tables, and no per-arrow entry
    ref = weakref.ref(pair)
    del pair
    gc.collect()
    assert ref() is None  # no module-level cache keeps the pair alive


def test_sup_matches_bfs_brute_force():
    # level-set BFS on last arrows of forbidden paths; a path longer than
    # the arrow count repeats an arrow, i.e. reaches a digraph cycle
    for seed in range(1, 21):
        pair, _ = random_ag_pair(GeneratorParams(seed=seed, max_vertices=5, max_arrows=8))
        bound = len(pair.quiver.arrows) + 1
        for v in pair.quiver.vertices:
            frontier = {a.name for a in pair.quiver.arrows
                        if pair.arrow(a.name).source == v}
            best, length, overflow = (1 if frontier else 0), 1, False
            while frontier:
                if length > bound:
                    overflow = True
                    break
                best = length
                frontier = {b.name for a in frontier for b in pair.quiver.arrows
                            if (a, b.name) in pair.relations}
                length += 1
            value = sup_forbidden_from_vertex(pair, v)[0]
            if overflow:
                assert value == INF
            else:
                assert value == LengthOrInf.finite(best)


def test_zero_length_forbidden(a3r, a2, fig1):
    assert zero_length_forbidden(a3r, "2")
    assert zero_length_forbidden(a2, "1")
    assert not zero_length_forbidden(fig1, "1")


def test_relational_predicates(fig1, a2):
    # down-relational: some arrow out of the target composes to zero with it
    names, rel = fig1.report.names, fig1.report.relation_succ
    assert rel[names.index("a_1_2")]
    assert not rel[names.index("a_1_2R")]
    # up-relational: some arrow into the source composes to zero with it
    assert any((c.name, "a_2R_3R") in fig1.relations for c in fig1.in_arrows("2R"))
    # relational vertex: some in-arrow composes to zero with some out-arrow
    assert any((a.name, b.name) in fig1.relations
               for a in fig1.in_arrows("2") for b in fig1.out_arrows("2"))
    assert not a2.report.relation_succ[a2.report.names.index("a")]


def test_delta_forbidden_fig1(fig1):
    value, walk = delta_forbidden_sup(fig1, DirectedString(("a_1_2",)))
    assert value == LengthOrInf.finite(2)
    assert walk.stem in {("a_1_2L", "a_2L_3L"), ("b_1_2R", "a_2R_3R")}


def test_delta_forbidden_gate(gate):
    value, walk = delta_forbidden_sup(gate, DirectedString(("a", "b")))
    assert value == LengthOrInf.finite(0)
    assert walk is None


def test_delta_forbidden_trivial(a2):
    assert delta_forbidden_sup(a2, DirectedString(("a",)))[0] == LengthOrInf.finite(0)


def test_forbidden_cycles(cyc2, fig1, loop_rel):
    assert forbidden_cycles(cyc2)[0] == [("a", "b")]
    assert forbidden_cycles(fig1) == ([], False)
    assert forbidden_cycles(loop_rel)[0] == [("x",)]


def test_forbidden_cycles_match_infinity_on_corpus():
    for seed in range(1, 21):
        pair, _ = random_ag_pair(GeneratorParams(seed=seed))
        cycles, _trunc = forbidden_cycles(pair)
        overall = max((sup_forbidden_from_vertex(pair, v)[0] for v in pair.quiver.vertices),
                      default=LengthOrInf.finite(0))
        assert bool(cycles) == (not overall.is_finite)
        for cyc in cycles:
            seq = cyc + cyc[:1]
            assert all((x, y) in pair.relations for x, y in zip(seq, seq[1:]))


def test_length_ordering():
    lengths = [LengthOrInf.finite(n) for n in (0, 1, 2, 5)] + [INF]

    def key(x):
        return (x.value is None, x.value or 0)

    for x in lengths:
        for y in lengths:
            assert (x < y) == (key(x) < key(y))
            assert (x <= y) == (key(x) <= key(y))
            assert (x > y) == (key(x) > key(y))
            assert (x >= y) == (key(x) >= key(y))
            assert (x == y) == (key(x) == key(y))
            assert max(x, y) == max(x, y, key=key)
            assert sorted([x, y]) == sorted([x, y], key=key)
    assert sorted(reversed(lengths)) == lengths
    assert INF.plus(1) == INF
    assert LengthOrInf.finite(1).plus(2) == LengthOrInf.finite(3)


def test_forbidden_cycles_truncation_keeps_representatives():
    from conftest import make_pair
    pair = make_pair(["1", "2", "3", "4"],
                     [("a", "1", "2"), ("b", "2", "1"), ("c", "3", "4"), ("d", "4", "3")],
                     [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")])
    full, trunc = forbidden_cycles(pair)
    assert full == [("a", "b"), ("c", "d")] and not trunc
    capped, trunc = forbidden_cycles(pair, cap=1)
    assert trunc
    assert {cyc[0] for cyc in capped} == {"a", "c"}  # one per component


def _reference_forbidden_cycles(pair, cap):
    """forbidden_cycles as it was before blocking sets: a plain depth-first
    search per root, whose work the cap does not bound."""
    pair.require_valid()
    data = digraph_data(pair)
    idx = pair.quiver.arrow_index
    names = pair.report.names  # in arrow declaration order
    succ = {a: [names[j] for j in js] for a, js in zip(names, pair.report.relation_succ)}
    cyclic = {a for a in idx if data.cyclic[idx[a]]}
    cycles = []
    truncated = False
    for root in succ:
        if root not in cyclic:
            continue
        if truncated:
            break
        stack = [(root, iter(succ[root]))]
        path = [root]
        onpath = {root}
        while stack:
            node, it = stack[-1]
            advanced = False
            for ch in it:
                if idx[ch] < idx[root]:
                    continue
                if ch == root:
                    cycles.append(tuple(path))
                    if len(cycles) >= cap:
                        truncated = True
                        stack.clear()
                        advanced = True
                        break
                    continue
                if ch in onpath:
                    continue
                stack.append((ch, iter(succ[ch])))
                path.append(ch)
                onpath.add(ch)
                advanced = True
                break
            if not advanced and stack:
                stack.pop()
                onpath.discard(path.pop())
    if truncated:
        covered = {frozenset(data.scc[idx[x]] for x in cyc) for cyc in cycles}
        for node in succ:
            if node in cyclic and frozenset({data.scc[idx[node]]}) not in covered:
                cycles.append(sup_forbidden_from_arrow(pair, node)[1].cycle)
                covered.add(frozenset({data.scc[idx[node]]}))
    canon = []
    for cyc in cycles:
        k = min(range(len(cyc)), key=lambda i: idx[cyc[i]])
        canon.append(cyc[k:] + cyc[:k])
    canon = sorted(set(canon), key=lambda c: (len(c), tuple(idx[x] for x in c)))
    return canon, truncated


def _fixture_and_corpus_pairs():
    for path in sorted(FIXTURES.glob("*.agq")):
        yield load_pair(str(path))[1]
    for seed in range(1, 201):
        yield random_ag_pair(GeneratorParams(seed=seed))[0]


@pytest.mark.parametrize("cap", [1, 2, 5, 20, 10_000])
def test_forbidden_cycles_match_the_plain_search(cap):
    pairs = list(_fixture_and_corpus_pairs())
    assert len(pairs) == 209
    for pair in pairs:
        if not pair.validated:  # loop_norel
            with pytest.raises(NotValidatedError):
                forbidden_cycles(pair, cap)
            continue
        assert forbidden_cycles(pair, cap) == _reference_forbidden_cycles(pair, cap)


def test_forbidden_cycles_work_is_bounded_by_the_cap():
    # closed_cyclic seed-301 instance #31 (A=237): the plain search did not
    # return within 60 s at cap 1
    pair, _ = random_ag_pair(GeneratorParams(seed=273909678, max_vertices=150, max_arrows=300))
    assert len(pair.quiver.arrows) == 237
    start = time.perf_counter()
    cycles, truncated = forbidden_cycles(pair, 20)
    elapsed = time.perf_counter() - start
    assert truncated and len(cycles) >= 20
    for cyc in cycles:
        seq = cyc + cyc[:1]
        assert all((x, y) in pair.relations for x, y in zip(seq, seq[1:]))
    assert elapsed < 1.0, elapsed


def _reference_key(pair, walk):
    if walk is None:
        return (1,)
    idx = pair.quiver.arrow_index
    return (0, tuple(idx[x] for x in walk.stem + walk.cycle))


def _reference_better(pair, cur, cand):
    if cand[0] > cur[0]:
        return cand
    if cand[0] == cur[0] and _reference_key(pair, cand[1]) < _reference_key(pair, cur[1]):
        return cand
    return cur


# Only the arrow declaration order matters here (d, b, a, c, unlike the
# names' own order); the tie-break does not ask for a valid pair.
_LOOPS = make_pair(["1"], [(x, "1", "1") for x in "dbac"], [])


def _pointer_table(nxt):
    """A length table over _LOOPS's arrows whose pointers are nxt: an arrow
    is finite when its pointer walk ends, infinite when it repeats."""
    data = object.__new__(_DigraphData)
    data.names, data.nxt, data.length = tuple(_LOOPS.quiver.arrow_index), list(nxt), []
    for i in range(len(nxt)):
        seen, node = [], i
        while node >= 0 and node not in seen:
            seen.append(node)
            node = nxt[node]
        data.length.append(len(seen) if node < 0 else _INFINITE)
    return data


def _reference_walk(data, pointer):
    """The witness a pointer spells, read off with list searches."""
    head, node = pointer
    rho = []
    while node >= 0 and node not in rho:
        rho.append(node)
        node = data.nxt[node]
    seq = ([head] if head >= 0 else []) + rho
    if not seq:
        return None
    cut = len(seq) - len(rho) + (rho.index(node) if node >= 0 else len(rho))
    return ForbiddenWalk(tuple(data.names[i] for i in seq[:cut]),
                         tuple(data.names[i] for i in seq[cut:]))


@st.composite
def _candidate_pairs(draw):
    """A pointer table and two (sup, pointer) candidates: equal pointers,
    one spelling a prefix or a resplit of the other's walk, and none."""
    arrows = st.integers(-1, 3)
    data = _pointer_table(draw(st.lists(arrows, min_size=4, max_size=4)))
    first = (draw(arrows), draw(arrows))
    head, start = first
    second = draw(st.sampled_from(["equal", "unhead", "rehead", "other"]))
    if second == "equal":
        other = first
    elif second == "unhead" and head >= 0:  # the head's own walk
        other = (-1, head)
    elif second == "rehead" and head < 0 <= start:  # the first arrow as a head
        other = (start, data.nxt[start])
    else:
        other = (draw(arrows), draw(arrows))
    pointers = [draw(st.sampled_from([first, _NO_WALK])), draw(st.sampled_from([other, _NO_WALK]))]
    if draw(st.booleans()):
        pointers.reverse()
    sups = st.sampled_from([1, 2, _INFINITE])
    tied = draw(st.booleans())
    s0 = draw(sups)
    return data, (s0, pointers[0]), (s0 if tied else draw(sups), pointers[1])


def _value(n):
    return INF if n == _INFINITE else LengthOrInf.finite(n)


@settings(max_examples=500, deadline=None)
@given(_candidate_pairs())
def test_lockstep_comparison_matches_the_arrow_index_key(cands):
    data, cur, cand = cands
    ref_cur, ref_cand = ((_value(n), _reference_walk(data, p)) for n, p in (cur, cand))
    expected = cand if _reference_better(_LOOPS, ref_cur, ref_cand) is ref_cand else cur
    assert data.best([cur, cand]) == expected


def test_lockstep_comparison_tie_breaks():
    # d, b, a, c are arrows 0 to 3; every pointer walk ends after one arrow
    data = _pointer_table([-1, -1, -1, -1])
    ba, bc, dc, b = (1, 2), (1, 3), (0, 3), (1, -1)
    # the first differing arrow decides
    assert data.best([(2, ba), (2, bc)]) == (2, ba)
    assert data.best([(2, ba), (2, dc)]) == (2, dc)
    # a prefix before its extension, whichever side it is on
    assert data.best([(2, ba), (2, b)]) == (2, b)
    assert data.best([(2, b), (2, ba)]) == (2, b)
    # any walk before none; a larger sup wins over any witness
    assert data.best([(2, _NO_WALK), (2, ba)]) == (2, ba)
    assert data.best([(2, ba), (2, _NO_WALK)]) == (2, ba)
    assert data.best([(2, ba), (_INFINITE, _NO_WALK)]) == (_INFINITE, _NO_WALK)
    assert data.best([(_INFINITE, _NO_WALK), (2, ba)]) == (_INFINITE, _NO_WALK)
    # a lasso's loop spelled once: from its ring arrow, and with that arrow as a head
    data = _pointer_table([1, 0, -1, -1])  # d -> b -> d
    assert _reference_walk(data, (-1, 0)) == ForbiddenWalk((), ("d", "b"))
    assert _reference_walk(data, (0, 1)) == ForbiddenWalk(("d",), ("b", "d"))
    assert data.best([(_INFINITE, (0, 1)), (_INFINITE, (-1, 0))]) == (_INFINITE, (-1, 0))
    assert data.walk(0, 1) == _reference_walk(data, (0, 1))
