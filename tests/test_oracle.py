import gc
import sys
import time
import weakref

import pytest

import agq.oracle
import agq.syzygy
from agq.linalg import identity, left_nullspace, mat_mul, rref
from agq.oracle import (
    PdimResult,
    Representation,
    check_against_formulas,
    check_relations,
    oracle_pdim,
    projective_cover_kernel,
    rep_of,
)
from agq.strings import DirectedString, module_dims
from agq.generator import GeneratorParams, random_ag_pair


def test_rep_of_examples(fig1, a2):
    p1 = rep_of(fig1, "projective", "1")
    assert p1.total_dim() == 7
    e2r = rep_of(fig1, "injective", "2R")
    assert e2r.total_dim() == 3 and e2r.dim_vector(fig1)["1"] == 2
    s2 = rep_of(a2, "simple", "2")
    assert s2.dim_vector(a2) == {"2": 1}
    assert all(all(x == 0 for row in m for x in row.values()) for m in s2.maps.values())


def test_reps_annihilate_relations(fig1, cyc2e, gate):
    for pair in (fig1, cyc2e, gate):
        for v in pair.quiver.vertices:
            for kind in ("simple", "projective", "injective"):
                assert check_relations(pair, rep_of(pair, kind, v))


def test_string_rep_with_vertex_revisit(loop_rel):
    rep = rep_of(loop_rel, "string", DirectedString(("x",)))
    assert rep.dim_vector(loop_rel)["1"] == 2
    x = rep.maps.get(loop_rel.quiver.arrow_index["x"], [])
    assert x[0][1] == 1 and x[1].get(0, 0) == 0
    assert check_relations(loop_rel, rep)


def top(pair, rep):
    """Multiplicity of each simple in the top: the generators of the minimal cover."""
    return dict(projective_cover_kernel(pair, rep).cover)


def test_top(fig1):
    assert top(fig1, rep_of(fig1, "injective", "4")) == {"3": 1, "2": 1, "3'": 1}
    for v in fig1.quiver.vertices:
        assert top(fig1, rep_of(fig1, "projective", v)) == {v: 1}
        assert top(fig1, rep_of(fig1, "simple", v)) == {v: 1}


def test_cover_kernel_examples(fig1):
    ck = projective_cover_kernel(fig1, rep_of(fig1, "injective", "4"))
    assert dict(ck.cover) == {"3": 1, "2": 1, "3'": 1}
    assert ck.kernel.dim_vector(fig1) == {"3": 1, "3'": 1, "4": 2, "5": 1}

    ck2 = projective_cover_kernel(fig1, rep_of(fig1, "string", DirectedString(("a_1_2",))))
    assert ck2.kernel.dim_vector(fig1) == {"2L": 1, "2R": 2, "3R": 1, "4R": 1}

    for v in fig1.quiver.vertices:
        assert projective_cover_kernel(fig1, rep_of(fig1, "projective", v)).kernel.total_dim() == 0


def test_oracle_pdim(fig1, cyc2, gate):
    assert oracle_pdim(fig1, rep_of(fig1, "simple", "1"), 10) == PdimResult(True, 4)
    assert oracle_pdim(cyc2, rep_of(cyc2, "simple", "1"), 10) == PdimResult(False, 10)
    assert oracle_pdim(gate, rep_of(gate, "injective", "3"), 10) == PdimResult(True, 0)


def cover_dims(pair, ck):
    """The dimension vector of a cover, by vertex name, summed from
    module_dims of its projectives: code that shares no path tree with the oracle."""
    dims: dict[str, int] = {}
    for v, m in ck.cover:
        for w, n in module_dims(pair, "projective", v).items():
            dims[w] = dims.get(w, 0) + m * n
    return dims


def test_only_an_infinity_proven_by_a_recurrence_is_stored():
    from conftest import FIG1_ARROWS, FIG1_RELS, FIG1_VERTICES, make_pair
    from agq.oracle import _keyed, _pdim
    # cut at depth 2, pd S(1) = 4 reads infinite, and no infinity is stored
    fig1 = make_pair(FIG1_VERTICES, FIG1_ARROWS, FIG1_RELS)
    key, s1 = _keyed(fig1, rep_of(fig1, "simple", "1"))
    assert _pdim(fig1, s1, key, 2) is None
    assert None not in fig1.memo("pdim", dict).values()
    assert _pdim(fig1, s1, key, 40) == 4
    # over the 2-cycle with both relations S(1) and S(2) are each other's
    # syzygy: the recurrence proves both infinite, and both are stored
    cyc2 = make_pair(["1", "2"], [("a", "1", "2"), ("b", "2", "1")], [("a", "b"), ("b", "a")])
    simples = [_keyed(cyc2, rep_of(cyc2, "simple", v)) for v in ("1", "2")]
    assert oracle_pdim(cyc2, simples[0][1], 10) == PdimResult(False, 10)
    assert cyc2.memo("pdim", dict) == {key: None for key, _rep in simples}


def test_dim_additivity(fig1):
    for v in fig1.quiver.vertices:
        rep = rep_of(fig1, "injective", v)
        ck = projective_cover_kernel(fig1, rep)
        cover, top, kernel = cover_dims(fig1, ck), rep.dim_vector(fig1), ck.kernel.dim_vector(fig1)
        for w in fig1.quiver.vertices:
            assert cover.get(w, 0) == top.get(w, 0) + kernel.get(w, 0)


def test_check_on_fixtures(fig1, gate, cyc2, cyc2e, pendant_cycle, matched_entry, finite_envelope):
    for pair in (fig1, gate, cyc2, cyc2e, pendant_cycle, matched_entry, finite_envelope):
        report = check_against_formulas(pair, cutoff=20)
        assert report.ok, report.mismatches


def test_check_on_small_corpus():
    for seed in range(1, 16):
        pair, _ = random_ag_pair(GeneratorParams(seed=seed, max_vertices=6, max_arrows=10))
        report = check_against_formulas(pair, cutoff=30)
        assert report.ok, (seed, report.mismatches)


def test_socle_block_top_count(fig1, cyc2e, gate):
    # the top of the socle block has exactly c-1 factors of S(v)
    from conftest import lemma
    from agq.quiver import vertex_type
    for pair in (fig1, cyc2e, gate):
        for v in pair.quiver.vertices:
            c, _d = vertex_type(pair, v)
            if c == 0:
                continue
            ck = projective_cover_kernel(pair, rep_of(pair, "injective", v))
            tops = top(pair, ck.kernel)
            mlist_tops_at_v = 0
            for s in lemma(pair, "leftovers", v):
                apex = s.vertex if s.kind == "simple" else pair.arrow(s.arrows[0]).source
                if apex == v:
                    mlist_tops_at_v += 1
            assert tops.get(v, 0) - mlist_tops_at_v == c - 1


def test_linalg_basics():
    m = [{0: 1, 1: 1}, {0: 1, 1: 1}]
    assert len(rref(m)[1]) == 1
    red, pivots = rref([{0: 1, 1: 2}, {0: 2, 1: 4}])
    assert pivots == [0]
    basis, free = left_nullspace([{0: 1}, {0: 1}], 2, 1)
    assert len(basis) == 1 and free == [1]
    assert mat_mul(identity(2), m) == m


def test_cover_morphism_commutes(fig1, gate):
    from agq.oracle import cover_morphism
    for pair, v in ((fig1, "4"), (fig1, "2R"), (gate, "3")):
        rep = rep_of(pair, "injective", v)
        cover, phi = cover_morphism(pair, rep)
        assert check_relations(pair, cover)
        assert phi.commutes(pair, cover, rep)
        assert cover.dim_vector(pair) == cover_dims(pair, projective_cover_kernel(pair, rep))


def test_syzygy_steps_are_stored_on_the_pair_only(monkeypatch):
    from conftest import FIG1_ARROWS, FIG1_RELS, FIG1_VERTICES, make_pair
    covers = [0]
    cover = agq.oracle.projective_cover_kernel

    def counted(*args, **kwargs):
        covers[0] += 1
        return cover(*args, **kwargs)

    monkeypatch.setattr(agq.oracle, "projective_cover_kernel", counted)
    pair = make_pair(FIG1_VERTICES, FIG1_ARROWS, FIG1_RELS)
    report = check_against_formulas(pair)
    made = covers[0]
    assert made and check_against_formulas(pair) == report
    assert covers[0] == made  # the second check covers nothing again

    # a fresh S(1) is keyed to the stored steps: no cover is made again
    assert oracle_pdim(pair, rep_of(pair, "simple", "1"), 40) == PdimResult(True, 4)
    assert covers[0] == made

    ref = weakref.ref(pair)
    del pair
    gc.collect()
    assert ref() is None  # no module-level cache keeps the pair alive


def test_path_plus_cycle_is_not_taken_for_the_path(fig1):
    # K (one slot at 4L sent to one slot at 5 by both parallel arrows) plus
    # P(3L): n slots, n - 1 nonzero entries and two ends, like a path
    vidx, aidx = fig1.quiver.vertex_index, fig1.quiver.arrow_index
    dims = {vidx["3L"]: 1, vidx["4L"]: 2, vidx["5"]: 2}
    maps = {aidx[a.name]: [{} for _i in range(dims[vidx[a.source]])]
            for a in fig1.quiver.arrows if vidx[a.source] in dims}
    maps[aidx["a_3L_4L"]][0][1] = 1
    maps[aidx["a_4L_5"]][0][0] = maps[aidx["a_4L_5"]][1][1] = 1
    maps[aidx["b_4L_5"]][0][0] = 1
    rep = Representation(dims, maps)
    assert check_relations(fig1, rep)
    assert oracle_pdim(fig1, rep_of(fig1, "projective", "3L"), 10) == PdimResult(True, 0)
    assert oracle_pdim(fig1, rep, 10) == PdimResult(True, 1)  # pdim K = 1
    assert dict(projective_cover_kernel(fig1, rep).cover) == {"3L": 1, "4L": 1}


def _valid_pairs(seeds):
    """Fresh pairs: the valid fixtures, then default-generator seeds."""
    from conftest import FIXTURES
    from agq.agqfile import parse_agq
    pairs = [parse_agq(f.read_text()).pair() for f in sorted(FIXTURES.glob("*.agq"))]
    pairs += [random_ag_pair(GeneratorParams(seed=s))[0] for s in seeds]
    return [p for p in pairs if p.validated]


def test_each_component_is_keyed_once(monkeypatch):
    from conftest import FIG1_ARROWS, FIG1_RELS, FIG1_VERTICES, make_pair
    walks: dict[int, list] = {}
    key = agq.oracle._component_key

    def counted(pair, rep):
        walks.setdefault(id(rep), [rep, 0])[1] += 1  # holds rep, so no id is reused
        return key(pair, rep)

    monkeypatch.setattr(agq.oracle, "_component_key", counted)
    pairs = [make_pair(FIG1_VERTICES, FIG1_ARROWS, FIG1_RELS)]
    pairs += [random_ag_pair(GeneratorParams(seed=s))[0] for s in range(1, 21)]
    for pair in pairs:
        check_against_formulas(pair)
    assert len(walks) > 1000
    assert max(n for _rep, n in walks.values()) == 1


def test_each_leftover_string_is_built_once_per_pair(monkeypatch):
    from conftest import FIG1_ARROWS, FIG1_RELS, FIG1_VERTICES, make_pair
    built: dict[tuple, int] = {}
    rep_of = agq.oracle.rep_of

    def counted(pair, kind, arg):
        if kind == "string":
            key = (id(pair), arg.arrows, arg.vertex)
            built[key] = built.get(key, 0) + 1
        return rep_of(pair, kind, arg)

    monkeypatch.setattr(agq.oracle, "rep_of", counted)
    pairs = [make_pair(FIG1_VERTICES, FIG1_ARROWS, FIG1_RELS)]
    pairs += [random_ag_pair(GeneratorParams(seed=s))[0] for s in range(1, 21)]
    for pair in pairs:  # every pair stays alive, so no id is reused
        check_against_formulas(pair)
    assert len(built) > 50
    assert max(built.values()) == 1


def test_one_dimensional_modules_key_to_their_vertex_unless_a_loop_acts(loop_rel):
    from agq.oracle import _component_key
    for pair in _valid_pairs(range(1, 21)):
        for i, v in enumerate(pair.quiver.vertices):
            assert _component_key(pair, rep_of(pair, "simple", v)) == ((i,), ())
    vidx, aidx = loop_rel.quiver.vertex_index, loop_rel.quiver.arrow_index
    loop_acts = Representation({vidx["1"]: 1}, {aidx["x"]: [{0: 1}]})
    assert _component_key(loop_rel, loop_acts) != ((vidx["1"],), ())


def test_one_summand_graph_per_pair():
    from conftest import FIG1_ARROWS, FIG1_RELS, FIG1_VERTICES, make_pair
    from agq.syzygy import _Successors
    pairs = [make_pair(FIG1_VERTICES, FIG1_ARROWS, FIG1_RELS)]
    pairs += [random_ag_pair(GeneratorParams(seed=s))[0] for s in range(1, 21)]
    for pair in pairs:
        check_against_formulas(pair)
        memo = pair._memo
        assert not [k for k in memo if isinstance(k, tuple) and k[0] == "omega1"]
        assert sum(isinstance(value, _Successors) for value in memo.values()) == 1


def _reference_levels(pair, v, kind):
    """Whether a plain level walk flags the resolution of S(v) or E(v):
    levels 0 to 6 of resolve_symbolic against the oracle's cover and the
    summed dimensions of its kernel's components, stopping before the first
    module above total dimension 120.  The symbolic dimensions come from
    module_dims per summand and the socle-block lemma; nothing is stored,
    and every component of every level is covered afresh."""
    from conftest import dim_vector
    from agq.oracle import _components

    res = agq.syzygy.resolve_symbolic(pair, kind, v, max_steps=6)
    comps = _components(pair, rep_of(pair, kind, v))
    for level in res.levels:
        if sum(c.total_dim() for c in comps) > 120:
            return False
        cover: dict[str, int] = {}
        kernel = []
        for comp in comps:
            ck = projective_cover_kernel(pair, comp)
            for w, m in ck.cover:
                cover[w] = cover.get(w, 0) + m
            kernel.extend(_components(pair, ck.kernel))
        comps = kernel
        dims: dict[str, int] = {}
        for comp in comps:
            for w, n in comp.dim_vector(pair).items():
                dims[w] = dims.get(w, 0) + n
        if cover != dict(level.cover) or dims != dim_vector(pair, level.syzygy):
            return True
    return False


def _flagged_by_both(pairs):
    """The indices of the pairs whose summand graph the check flags, and of
    those the plain level walk flags."""
    walk, ref = set(), set()
    for k, pair in enumerate(pairs):
        if any(not m.quantity.startswith(("pdim_", "psi0_")) for m in check_against_formulas(pair).mismatches):
            walk.add(k)
        if any(_reference_levels(pair, v, kind) for v in pair.quiver.vertices for kind in ("simple", "injective")):
            ref.add(k)
    return walk, ref


def test_the_graph_walk_and_a_plain_level_walk_flag_no_pair():
    pairs = _valid_pairs(range(1, 51))
    assert len(pairs) == 58
    assert _flagged_by_both(pairs) == (set(), set())


_after, _block, _leftovers, _normalize = (agq.syzygy._after, agq.syzygy._block, agq.syzygy._leftovers,
                                          agq.syzygy._normalize)

# Planted value-changing mistakes in the symbolic lemmas, each as (name, replacement).
SYZYGY_MUTANTS = {
    "every branch of a string's source gives its rest": (
        "_omega1", lambda report, node: [(_after(report, a), 1) for a in report.outs[node[1]]]),
    "a tree block keeps c-1 copies of a flagged tail too": (
        "_tree_omega1", lambda report, v: [(_after(report, a), len(report.ins[v]) - 1) for a in report.outs[v]]),
    "a socle block has one simple too many": (
        "_block", lambda report, v: None if _block(report, v) is None else
        [(n, m + (n[0] == 0)) for n, m in _block(report, v)]),
    "the first leftover is dropped": (
        "_leftovers", lambda report, v: _leftovers(report, v)[1:]),
    "a simple whose one out-arrow ends its chain is projective": (
        "_normalize", lambda report, node: (2, node[1], -1, 0) if node[0] == 0 and len(report.outs[node[1]]) == 1
        and report.nonzero_succ[report.outs[node[1]][0]] < 0 else _normalize(report, node)),
}


@pytest.mark.parametrize("mutant", sorted(SYZYGY_MUTANTS))
def test_the_graph_walk_flags_the_pairs_a_plain_level_walk_flags(mutant, monkeypatch):
    monkeypatch.setattr(agq.syzygy, *SYZYGY_MUTANTS[mutant])
    walk, ref = _flagged_by_both(_valid_pairs(range(1, 51)))
    assert walk and walk == ref


def _plant(pair, node, part):
    """Plant one mistake in the summand-graph entry of node: a cover
    multiplicity one too high, a successor multiplicity one too high, or a
    one-arrow string M(a) swapped for S(s(a)) + S(t(a)), which has the same
    dimension vector; None if the entry has no such successor."""
    graph, report = agq.syzygy._summand_graph(pair), pair.report
    top, succ = graph[node]
    if part == "cover":
        top = [(x, m + (k == 0)) for k, (x, m) in enumerate(top)]
    elif part == "successor" and succ:
        succ = [(n, m + (k == 0)) for k, (n, m) in enumerate(succ)]
    elif part == "swap" and any(n[0] == 1 and n[3] == 1 for n, _m in succ):
        (_rank, s, a, _length), m = next((n, m) for n, m in succ if n[0] == 1 and n[3] == 1)
        swapped = [(agq.syzygy._normalize(report, (0, w, -1, 0)), m) for w in (s, report.target[a])]
        succ = [(n, k) for n, k in succ if n != (1, s, a, 1)] + swapped
    else:
        return None
    graph[node] = top, succ
    return pair


@pytest.mark.parametrize("part", ["cover", "successor", "swap"])
def test_a_planted_graph_entry_is_reported_at_its_apex(part):
    from conftest import FIG1_ARROWS, FIG1_RELS, FIG1_VERTICES, make_pair

    def fresh():
        pair = make_pair(FIG1_VERTICES, FIG1_ARROWS, FIG1_RELS)
        assert check_against_formulas(pair).ok  # the graph now holds every reachable node
        return pair

    planted = 0
    for node in list(agq.syzygy._summand_graph(fresh())):
        pair = _plant(fresh(), node, part)
        if pair is not None:
            found = check_against_formulas(pair).mismatches
            assert pair.quiver.vertices[node[1]] in [m.vertex for m in found], (node, found)
            planted += 1
    assert planted >= 2


def test_the_check_reports_a_wrong_closed_form(fig1, monkeypatch):
    # every dimension of fig1 is finite, so pd E(v) + 1 is wrong at every vertex
    import types
    import agq.homdim
    from agq.oracle import Mismatch
    pdim_injective, is_invalid_vertex = agq.homdim.pdim_injective, agq.syzygy.is_invalid_vertex
    expected = []
    for v in fig1.quiver.vertices:
        value = pdim_injective(fig1, v).value
        expected.append(Mismatch(v, "pdim_injective", str(value.plus(1)), str(value)))
        if fig1.in_arrows(v):
            invalid = is_invalid_vertex(fig1, v)[0]
            expected.append(Mismatch(v, "psi0_projective", str(not invalid), str(invalid)))
    checked = check_against_formulas(fig1).checked
    monkeypatch.setattr(agq.homdim, "pdim_injective",
                        lambda pair, v: types.SimpleNamespace(value=pdim_injective(pair, v).value.plus(1)))
    monkeypatch.setattr(agq.syzygy, "is_invalid_vertex", lambda pair, v: (not is_invalid_vertex(pair, v)[0], None))
    report = check_against_formulas(fig1)
    assert list(report.mismatches) == expected
    assert report.checked == checked
    assert Mismatch("4", "pdim_injective", "4", "3") in expected
    assert Mismatch("4", "psi0_projective", "True", "False") in expected


def test_the_check_reads_the_tables_not_the_symbolic_decomposition(monkeypatch):
    # the socle-block check takes the per-branch leftovers, and rep_of a
    # string's source, from the validation's tables: the symbolic layer's
    # own decomposition is what the check is there to test
    expected = [check_against_formulas(pair) for pair in _valid_pairs(range(1, 21))]

    def refuse(*_args, **_kwargs):
        raise AssertionError("the oracle read the code it checks")

    for module in [m for name, m in sys.modules.items() if name.startswith("agq.")]:
        for name in ("psi0_descriptor", "string_source"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert [check_against_formulas(pair) for pair in _valid_pairs(range(1, 21))] == expected


def _half_related_chain(n):
    """A_n with every other composition of consecutive arrows a relation,
    so each projective and injective spans at most three basis paths."""
    from conftest import make_pair
    arrows = [(f"a{k}", f"v{k}", f"v{k + 1}") for k in range(n)]
    return make_pair([f"v{k}" for k in range(n + 1)], arrows, [(f"a{k}", f"a{k + 1}") for k in range(0, n - 1, 2)])


def test_oracle_pdim_at_the_middle_of_a_chain_costs_the_same_at_any_length():
    # the oracle's work follows the module: pd S(v) and pd E(v) at the middle
    # vertex of A_n take the same CPU time, within a factor of 3, at n = 100
    # and at n = 10,000 (each the best of 20 runs on a pair with no memo)
    def cost(n):
        pair, v, best = _half_related_chain(n), f"v{n // 2}", float("inf")
        for _ in range(20):
            pair._memo.clear()
            start = time.process_time()
            answers = [oracle_pdim(pair, rep_of(pair, kind, v), 10) for kind in ("simple", "injective")]
            best = min(best, time.process_time() - start)
        assert answers == [PdimResult(True, 2), PdimResult(True, 2)]
        return best

    small, large = cost(100), cost(10_000)
    assert large < 3 * small, (small, large)
