import gc
import weakref

import pytest

import agq.homdim
from agq.agqfile import parse_agq
from agq.emitters import emit_json, report_json
from agq.forbidden import (INF, ForbiddenWalk, LengthOrInf, _length_value, digraph_data,
                           sup_forbidden_from_arrow, sup_forbidden_from_vertex)
from agq.homdim import (
    global_dimension,
    gorenstein_report,
    noninvalid_cycle_vertex,
    pdim_directed_string,
    pdim_injective,
    pdim_injective_envelope,
    pdim_simple,
    self_injective_dimension,
    self_injective_infinite_by_cycle,
)
from agq.strings import DirectedString, anticlaw_of, claw_of
from agq.generator import GeneratorParams, random_ag_pair
from agq.quiver import AlmostGentlePair, NotValidatedError, UnknownVertexError, opposite
from agq.syzygy import Psi0Descriptor, psi0_descriptor, resolve_symbolic
from conftest import (FIG1_ARROWS, FIG1_RELS, FIG1_VERTICES, FIXTURES, bench_acyclic_docs, bench_cyclic_pairs,
                      make_pair, strings_of)


def fin(n):
    return LengthOrInf.finite(n)


def test_pdim_simple(fig1, cyc2):
    assert pdim_simple(fig1, "1").value == fin(4)
    assert pdim_simple(fig1, "5").value == fin(0)
    assert pdim_simple(cyc2, "1").value == INF


def test_global_dimension(fig1, a2, loop_rel):
    rep = global_dimension(fig1)
    assert rep.value == fin(4)
    assert rep.witness.stem in {("a_1_2", "a_2_3", "a_3_4", "a_4_5"),
                                ("a_1_2", "a_2_3'", "a_3'_4", "a_4_5")}
    assert global_dimension(a2).value == fin(1)
    assert global_dimension(loop_rel).value == INF


def test_pdim_directed_string(fig1, gate, cyc2, cyc2e):
    assert pdim_directed_string(fig1, DirectedString(("a_1_2",))).value == fin(2)
    assert pdim_directed_string(gate, DirectedString(("a", "b"))).value == fin(0)
    # over cyc2 the string module of a single arrow IS the projective at its
    # source (the oracle confirms; E(2) = M(a) = P(1))
    assert pdim_directed_string(cyc2, DirectedString(("a",))).value == fin(0)
    assert pdim_directed_string(cyc2e, DirectedString(("e",))).value == INF


def test_pdim_directed_string_non_right_maximal(fig1):
    # one syzygy step unrolled agrees with the closed form
    from conftest import lemma
    delta = DirectedString(("a_1_2R",))
    rep = pdim_directed_string(fig1, delta)
    dec = lemma(fig1, "omega1", delta)
    stepped = fin(0)
    for s, _n in dec.items:
        sub = (pdim_simple(fig1, s.vertex) if s.kind == "simple"
               else pdim_directed_string(fig1, DirectedString(s.arrows)))
        stepped = max(stepped, sub.value.plus(1))
    assert rep.value == stepped


def test_pdim_injective(fig1, gate, a2):
    assert pdim_injective(fig1, "2R").value == fin(4)
    assert pdim_injective(fig1, "4").value == fin(3)
    assert pdim_injective(gate, "3").value == fin(0)
    assert pdim_injective(a2, "1").value == fin(1)


def test_pdim_injective_witness_length_matches(fig1, cyc2e, gate, matched_entry):
    for pair in (fig1, cyc2e, gate, matched_entry):
        for v in pair.quiver.vertices:
            rep = pdim_injective(pair, v)
            if rep.value.is_finite and rep.value.value > 0:
                assert rep.witness is not None
                assert len(rep.witness.stem) == rep.value.value
                assert rep.witness.verify(pair)
            if not rep.value.is_finite:
                assert rep.witness.is_lasso
                assert rep.witness.verify(pair)


def test_self_injective_dimension(cyc2, a2, fig1):
    assert self_injective_dimension(cyc2).value == fin(0)
    assert self_injective_dimension(a2).value == fin(1)
    rep = self_injective_dimension(fig1)
    assert rep.value == fin(4)
    assert rep.attained_at == "1"


def test_cycle_criterion(cyc2, cyc2e, fig1):
    assert self_injective_infinite_by_cycle(cyc2) == (False, None)
    hit, witness = self_injective_infinite_by_cycle(cyc2e)
    assert hit
    cycle, vertex, cond, arrow = witness
    assert (vertex, cond, arrow) == ("1", "B", "e")
    assert sorted(cycle) == ["a", "b"]
    assert self_injective_infinite_by_cycle(fig1) == (False, None)


def test_cycle_criterion_skips_an_edge_between_two_components():
    # x <-> xp and y <-> yp are forbidden cycles in different components of
    # the relation digraph; the edge x -> y between them comes first but lies
    # on no cycle, so the witness is the (B) hit on the edge x -> xp
    pair = make_pair(["1", "2", "3"],
                     [("x", "1", "2"), ("y", "2", "3"), ("yp", "3", "2"), ("xp", "2", "1")],
                     [("x", "xp"), ("xp", "x"), ("x", "y"), ("y", "yp"), ("yp", "y")])
    assert pair.validated
    assert self_injective_infinite_by_cycle(pair) == (True, (("x", "xp"), "2", "B", "y"))


def test_envelope(cyc2, cyc2e, a2):
    assert pdim_injective_envelope(cyc2) == fin(0)
    assert pdim_injective_envelope(cyc2e) == INF
    assert pdim_injective_envelope(a2) == fin(0)


def test_gorenstein_reports(fig1, cyc2, cyc2e):
    g = gorenstein_report(fig1)
    assert g.gorenstein and g.gldim.value == fin(4) and not g.cycle_criterion
    g = gorenstein_report(cyc2)
    assert g.gorenstein and g.gldim.value == INF and g.injdim.value == fin(0)
    g = gorenstein_report(cyc2e)
    assert not g.gorenstein and g.cycle_criterion and g.envelope_pdim == INF
    assert "Auslander condition fails" in g.auslander_note


def test_pendant_cycle_regression(pendant_cycle):
    # a non-invalid vertex on a forbidden cycle with everything finite
    assert pdim_injective(pendant_cycle, "x").value == fin(2)
    assert self_injective_dimension(pendant_cycle).value == fin(2)
    assert self_injective_infinite_by_cycle(pendant_cycle)[0] is False
    assert noninvalid_cycle_vertex(pendant_cycle)[0] is True


def test_matched_entry_regression(matched_entry):
    # the matched tail keeps E(x) finite; infinitude lives elsewhere
    assert pdim_injective(matched_entry, "x").value == fin(2)
    assert self_injective_dimension(matched_entry).value == INF
    assert self_injective_infinite_by_cycle(matched_entry)[0] is True


def test_finite_envelope_regression(finite_envelope):
    # infinite self-injective dimension, yet the envelope has pdim 1
    g = gorenstein_report(finite_envelope)
    assert not g.gorenstein
    assert g.envelope_pdim == fin(1)
    assert "does not certify" in g.auslander_note


def test_criterion_matches_injdim_on_corpus():
    for seed in range(1, 41):
        pair, _ = random_ag_pair(GeneratorParams(seed=seed))
        inj = self_injective_dimension(pair).value
        assert self_injective_infinite_by_cycle(pair)[0] == (not inj.is_finite)


def test_injdim_bounded_by_gldim_on_corpus():
    for seed in range(1, 41):
        pair, _ = random_ag_pair(GeneratorParams(seed=seed))
        gl = global_dimension(pair).value
        inj = self_injective_dimension(pair).value
        if not inj.is_finite:
            assert not gl.is_finite
        if gl.is_finite:
            assert inj <= gl


def test_left_right_symmetry_on_corpus():
    for seed in range(1, 41):
        pair, _ = random_ag_pair(GeneratorParams(seed=seed))
        op = opposite(pair)
        assert self_injective_dimension(op).value == self_injective_dimension(pair).value
        assert global_dimension(op).value == global_dimension(pair).value


def test_one_vertex_no_arrows():
    from conftest import make_pair
    semisimple = make_pair(["1"], [], [])
    assert global_dimension(semisimple).value == fin(0)
    assert self_injective_dimension(semisimple).value == fin(0)
    g = gorenstein_report(semisimple)
    assert g.gorenstein and not g.cycle_criterion
    assert pdim_injective_envelope(semisimple) == fin(0)


def test_witness_invariants_on_corpus():
    # every finite report carries a forbidden path of exactly its length,
    # every infinite one a verifying lasso
    from agq.strings import claw_of
    for seed in range(1, 31):
        pair, _ = random_ag_pair(GeneratorParams(seed=seed))
        reports = [global_dimension(pair), self_injective_dimension(pair)]
        for v in pair.quiver.vertices:
            reports.append(pdim_simple(pair, v))
            reports.append(pdim_injective(pair, v))
            for br in claw_of(pair, v):
                reports.append(pdim_directed_string(pair, br))
        for rep in reports:
            if rep.witness is None:
                assert rep.value == fin(0)
                continue
            assert rep.witness.verify(pair)
            if rep.value.is_finite:
                assert not rep.witness.is_lasso
                assert len(rep.witness.stem) == rep.value.value
            else:
                assert rep.witness.is_lasso


def test_dimension_table_is_stored_on_the_pair_only(monkeypatch):
    pair = make_pair(FIG1_VERTICES, FIG1_ARROWS, FIG1_RELS)
    tables: list[int] = []
    computed: dict[int, int] = {}
    table_cls = agq.homdim._VertexTable
    init, injective = table_cls.__init__, table_cls._injective

    def counting_init(self, p):
        tables.append(id(p))
        init(self, p)

    def counting_injective(self, v, *args):
        computed[v] = computed.get(v, 0) + 1
        return injective(self, v, *args)

    monkeypatch.setattr(table_cls, "__init__", counting_init)
    monkeypatch.setattr(table_cls, "_injective", counting_injective)
    report_json(pair)
    for v in pair.quiver.vertices:
        assert pdim_injective(pair, v) is pdim_injective(pair, v)
        assert pdim_simple(pair, v) is pdim_simple(pair, v)
    global_dimension(pair)
    self_injective_dimension(pair)
    pdim_injective_envelope(pair)
    assert tables == [id(pair)]  # one table per pair
    sources = {i for i, v in enumerate(pair.quiver.vertices) if not pair.in_arrows(v)}
    assert computed == {i: 1 for i in range(len(pair.quiver.vertices)) if i not in sources}
    ref = weakref.ref(pair)
    del pair
    gc.collect()
    assert ref() is None  # no module-level table keeps the pair alive


def test_vertex_sup_reads_match_the_public_sups():
    # the digraph's top-two read that skips one out-arrow, against a
    # brute-force max over the other out-arrows (ties to the first
    # declared), and pd S(v) against the public from-vertex sup
    pairs = [pair for pair in (parse_agq(path.read_text()).pair() for path in sorted(FIXTURES.glob("*.agq")))
             if pair.validated]
    pairs += [random_ag_pair(GeneratorParams(seed=s))[0] for s in range(1, 201)]
    pairs += bench_cyclic_pairs(4)
    pairs += [doc.pair() for doc in bench_acyclic_docs()]
    skips = 0
    for pair in pairs:
        data = digraph_data(pair)
        idx = pair.quiver.arrow_index
        for i, v in enumerate(pair.quiver.vertices):
            outs = [b.name for b in pair.out_arrows(v)]
            sups = {b: sup_forbidden_from_arrow(pair, b)[0] for b in outs}
            value, walk = sup_forbidden_from_vertex(pair, v)
            assert _length_value(data.top_len[i]) == value
            assert data.top[i] == (idx[walk.stem[0] if walk.stem else walk.cycle[0]] if walk else -1)
            assert data.skip(i, -1) == (data.top_len[i], data.top[i])
            assert pdim_simple(pair, v).value == value
            for b in outs:
                rest = [x for x in outs if x != b]
                best = max(rest, key=sups.__getitem__) if rest else None  # max keeps the first of ties
                want = (sups[best], idx[best]) if best else (fin(0), -1)
                got = data.skip(i, idx[b])
                assert (_length_value(got[0]), got[1]) == want, (v, b)
                skips += 1
    assert len(pairs) == 237
    assert skips == sum(len(pair.quiver.arrows) for pair in pairs)


def test_dimension_table_checks_run_before_the_lookup(fig1):
    report_json(fig1)
    for fn in (pdim_simple, pdim_injective):
        with pytest.raises(UnknownVertexError):
            fn(fig1, "zz")
    assert not any(isinstance(key, tuple) and "zz" in key for key in fig1._memo)
    bad = parse_agq((FIXTURES / "loop_norel.agq").read_text()).pair()
    for fn in (pdim_simple, pdim_injective):
        with pytest.raises(NotValidatedError):
            fn(bad, "1")
        with pytest.raises(NotValidatedError):  # the pair is checked before the vertex
            fn(bad, "zz")


def test_dimension_table_query_order_does_not_matter():
    texts = [f.read_text() for f in sorted(FIXTURES.glob("*.agq"))]
    pairs = [(lambda t=t: parse_agq(t).pair()) for t in texts]
    pairs += [(lambda s=s: random_ag_pair(GeneratorParams(seed=s))[0]) for s in range(1, 51)]
    checked = 0
    for make in pairs:
        reverse, fresh = make(), make()
        if not fresh.validated:
            continue
        vertices = fresh.quiver.vertices
        for v in reversed(vertices):
            pdim_injective(reverse, v)
            pdim_simple(reverse, v)
        global_dimension(reverse)
        assert emit_json(report_json(reverse)) == emit_json(report_json(fresh))
        for v in vertices:
            assert pdim_injective(reverse, v) == pdim_injective(fresh, v)
            assert pdim_simple(reverse, v) == pdim_simple(fresh, v)
        assert global_dimension(reverse) == global_dimension(fresh)
        assert self_injective_dimension(reverse) == self_injective_dimension(fresh)
        checked += 1
    assert checked == 58  # 8 valid fixtures and 50 corpus seeds


def test_the_chain_table_is_the_only_string_cache(monkeypatch):
    built: list[tuple] = []
    memo = AlmostGentlePair.memo

    def counting(self, key, compute):
        def counted():
            built.append(key)
            return compute()
        return memo(self, key, counted)

    monkeypatch.setattr(AlmostGentlePair, "memo", counting)
    made: list[str] = []
    for cls in (DirectedString, Psi0Descriptor):
        def init(self, *args, _init=cls.__init__, **kwargs):
            made.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", init)
    for pair in (make_pair(FIG1_VERTICES, FIG1_ARROWS, FIG1_RELS), bench_cyclic_pairs(1)[0]):
        built.clear()
        made.clear()
        report_json(pair)
        # the report reads chain ends only: no directed string, no socle-block descriptor
        assert made == []
        for v in pair.quiver.vertices:
            desc = psi0_descriptor(pair, v)
            branches = claw_of(pair, v)
            anticlaw_of(pair, v)
            assert [tail for tail, _flag in desc.tails] == list(branches)
            resolve_symbolic(pair, "injective", v, max_steps=8)
        assert built.count("chains") == 1
        assert not [key for key in built
                    if isinstance(key, tuple) and key[0] in ("maximal", "psi0")]
        assert {"DirectedString", "Psi0Descriptor"} <= set(made)


def test_the_report_builds_one_vertex_table_and_no_per_vertex_entry(monkeypatch):
    built: list = []
    memo = AlmostGentlePair.memo

    def counting(self, key, compute):
        def counted():
            built.append(key)
            return compute()
        return memo(self, key, counted)

    monkeypatch.setattr(AlmostGentlePair, "memo", counting)
    for pair in (make_pair(FIG1_VERTICES, FIG1_ARROWS, FIG1_RELS), bench_cyclic_pairs(1)[0],
                 bench_acyclic_docs()[-1].pair()):
        built.clear()
        report_json(pair)
        for v in pair.quiver.vertices:
            pdim_simple(pair, v)
            pdim_injective(pair, v)
            sup_forbidden_from_vertex(pair, v)
            claw_of(pair, v)
            anticlaw_of(pair, v)
        for a in pair.quiver.arrows:
            sup_forbidden_from_arrow(pair, a.name)
        for ds in strings_of(pair):
            pdim_directed_string(pair, ds)
        # the digraph's sup table, the chain table and the vertex table, once each
        assert sorted(built) == ["chains", "digraph", "vertices"]
        assert sorted(pair._memo) == ["chains", "digraph", "vertices"]


def _report_pairs():
    """fig1, the first seed-301 closed_cyclic instance and the largest acyclic rung."""
    return [make_pair(FIG1_VERTICES, FIG1_ARROWS, FIG1_RELS), bench_cyclic_pairs(1)[0],
            bench_acyclic_docs()[-1].pair()]


def test_the_report_reads_the_validation_tables_and_no_name_map():
    for pair in _report_pairs():
        emit_json(report_json(pair))
        # the report holds its verdict and index tables only
        assert sorted(vars(pair.report)) == sorted(["valid", "violations", "warnings", "names", "source", "target",
                                                    "outs", "ins", "nonzero_succ", "nonzero_pred", "relation_succ"])
        # the report path builds the chain table, the digraph and the vertex table, and nothing else
        assert sorted(pair._memo) == ["chains", "digraph", "vertices"]
        head, last = pair._memo["chains"]
        assert len(head) == len(last) == len(pair.report.names)
        assert digraph_data(pair).out is pair.report.relation_succ


# GC-tracked objects that the report op leaves behind on the largest acyclic
# rung (1,899 arrows), with the pair held, counted after a collection: 6,430
# while the digraph kept its own relation-successor lists and each vertex
# its in- and out-arrow lists.
REPORT_GC_OBJECTS = 4_533


def test_the_report_leaves_one_list_per_arrow_to_the_collector():
    doc = bench_acyclic_docs()[-1]
    emit_json(report_json(doc.pair()))  # first-call caches, outside the count
    gc.collect()
    before = len(gc.get_objects())
    pair = doc.pair()
    emit_json(report_json(pair, doc.name))
    gc.collect()
    left = len(gc.get_objects()) - before
    assert len(pair.quiver.arrows) == 1_899
    assert left < REPORT_GC_OBJECTS * 1.1, left


def test_an_empty_document_has_dimension_zero():
    import json
    from agq.oracle import check_against_formulas
    pair = parse_agq("").pair()
    for rep, method in ((global_dimension(pair), "forbidden-global"),
                        (self_injective_dimension(pair), "self-injective")):
        assert (rep.value, rep.witness, rep.method, rep.attained_at) == (fin(0), None, method, None)
    g = gorenstein_report(pair)
    assert g.gorenstein and not g.cycle_criterion and g.envelope_pdim == fin(0)
    report = report_json(pair)
    assert report["per_vertex"] == {}
    assert report["self_injective_dimension"] == {"finite": True, "value": 0, "attained_at": None}
    assert emit_json(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert check_against_formulas(pair).checked == 0


def test_the_report_builds_only_the_two_global_witnesses(monkeypatch):
    made: list[tuple] = []

    def init(self, *args, _init=ForbiddenWalk.__init__, **kwargs):
        made.append(args)
        _init(self, *args, **kwargs)
    monkeypatch.setattr(ForbiddenWalk, "__init__", init)
    pairs = [make_pair(FIG1_VERTICES, FIG1_ARROWS, FIG1_RELS), bench_cyclic_pairs(1)[0],
             random_ag_pair(GeneratorParams(seed=7, max_vertices=1000, max_arrows=2000))[0]]
    for pair in pairs:
        made.clear()
        report_json(pair)
        # per-vertex values come from the length table: only gldim and injdim get a witness
        assert len(made) <= 2
        for v in pair.quiver.vertices:
            reps = [pdim_simple(pair, v), pdim_injective(pair, v)]
            value, walk = sup_forbidden_from_vertex(pair, v)
            for value, walk in [(rep.value, rep.witness) for rep in reps] + [(value, walk)]:
                if walk is None:
                    assert value == fin(0)
                    continue
                assert walk.verify(pair)
                assert walk.length() == value
                assert walk.is_lasso or len(walk.stem) == value.value
    assert len(made) > len(pairs[-1].quiver.vertices)  # the witnesses read after the report
