import pytest

from agq.quiver import InvalidStringError, vertex_type
from agq.strings import DirectedString
from agq.syzygy import (
    Psi0Descriptor,
    Summand,
    SyzygyDecomposition,
    is_invalid_vertex,
    psi0_descriptor,
    resolve_symbolic,
)
from agq.agqfile import document_of, emit_agq, parse_agq
from conftest import lemma, make_pair
from agq.generator import GeneratorParams, random_ag_pair


def items_set(dec):
    return {(s.kind, s.vertex, s.arrows, n) for s, n in dec.items}


def omega1_projective(pair, delta):
    """Whether every summand of the first syzygy of M(delta) is recognized projective."""
    first = resolve_symbolic(pair, "string", delta, max_steps=1).levels[0]
    return all(s.kind == "projective" for s, _n in first.syzygy.items)


def test_omega1_string_fig1(fig1):
    dec = lemma(fig1, "omega1", DirectedString(("a_1_2",)))
    assert items_set(dec) == {
        ("simple", "2L", (), 1),
        ("simple", "2R", (), 1),
        ("string", None, ("a_2R_3R", "a_3R_4R"), 1),
    }


def test_omega1_simple_2L_is_projective_module(fig1):
    dec = lemma(fig1, "omega1", DirectedString((), "2L"))
    assert items_set(dec) == {("string", None, ("a_3L_4L", "a_4L_5"), 1)}


def test_omega1_simple_a2(a2):
    dec = lemma(a2, "omega1", DirectedString((), "1"))
    assert items_set(dec) == {("simple", "2", (), 1)}


def test_omega1_dim_conservation(fig1):
    from agq.strings import module_dims
    for v in fig1.quiver.vertices:
        dec = lemma(fig1, "omega1", DirectedString((), v))
        cover = module_dims(fig1, "projective", v)
        lhs = {w: cover.get(w, 0) - (1 if w == v else 0) for w in fig1.quiver.vertices}
        assert dec.dim_vector(fig1) == {w: n for w, n in lhs.items() if n}


def test_is_omega1_projective(fig1, a2):
    assert omega1_projective(fig1, DirectedString((), "2L"))
    assert not omega1_projective(fig1, DirectedString(("a_1_2",)))
    assert omega1_projective(a2, DirectedString(("a",)))


def test_is_gentle_vertex(fig1):
    assert lemma(fig1, "gentle", "2R")
    assert not lemma(fig1, "gentle", "2")
    assert not lemma(fig1, "gentle", "1")


def test_gentle_vertex_perfect_matching_case():
    # two in, two out, both straight compositions nonzero, both cross in the
    # ideal: the local conditions hold and the socle block is projective
    pair = make_pair(["u1", "u2", "v", "w1", "w2"],
                     [("p", "u1", "v"), ("q", "u2", "v"),
                      ("r", "v", "w1"), ("s", "v", "w2")],
                     [("p", "s"), ("q", "r")])
    assert lemma(pair, "gentle", "v")
    assert is_invalid_vertex(pair, "v") == (True, 1)
    assert lemma(pair, "block", "v") is None


def test_invalid_vertices_fig1(fig1):
    assert is_invalid_vertex(fig1, "2") == (True, 5)
    assert is_invalid_vertex(fig1, "2R") == (True, 1)
    assert is_invalid_vertex(fig1, "5") == (True, 2)
    assert is_invalid_vertex(fig1, "4") == (False, None)


def test_psi0_projectivity_fig1(fig1):
    assert is_invalid_vertex(fig1, "2R")[0]
    assert not is_invalid_vertex(fig1, "4")[0]
    assert is_invalid_vertex(fig1, "5")[0]


def test_omega1_injective_fig1(fig1):
    desc, mlist = psi0_descriptor(fig1, "4"), lemma(fig1, "leftovers", "4")
    assert (desc.c, desc.d, desc.t) == (3, 1, 1)
    assert [(s.kind, s.vertex) for s in mlist] == [("simple", "3"), ("simple", "3'")]
    flagged = desc.flagged()
    assert len(flagged) == 1 and flagged[0].arrows == ("a_4_5",)

    desc2, mlist2 = psi0_descriptor(fig1, "2R"), lemma(fig1, "leftovers", "2R")
    assert (desc2.c, desc2.d, desc2.t) == (2, 1, 1)
    assert len(mlist2) == 6
    kinds = sorted((s.kind, s.vertex or s.arrows) for s in mlist2)
    assert kinds == [("simple", "2"), ("simple", "2"), ("simple", "2L"), ("simple", "2L"),
                     ("simple", "2R"), ("string", ("a_2R_3R", "a_3R_4R"))]


def test_omega1_injective_gate(gate):
    desc, mlist = psi0_descriptor(gate, "3"), lemma(gate, "leftovers", "3")
    assert mlist == []
    assert (desc.c, desc.t) == (1, 0)
    assert not lemma(gate, "block", "3")


def test_psi0_decompose_fig1(fig1):
    dec4 = lemma(fig1, "block", "4")
    assert items_set(dec4) == {("string", None, ("a_4_5",), 1), ("simple", "4", (), 1)}
    dec2r = lemma(fig1, "block", "2R")
    assert items_set(dec2r) == {("string", None, ("a_2R_3R", "a_3R_4R"), 1)}


def test_psi0_dims_identity(fig1, gate, cyc2e):
    # dim of the socle block = (c-1) at the apex plus the flagged tails
    for pair in (fig1, gate, cyc2e):
        for v in pair.quiver.vertices:
            c, _ = vertex_type(pair, v)
            if c == 0:
                continue
            desc = psi0_descriptor(pair, v)
            dims = lemma(pair, "block_dims", v)
            expected = (c - 1) + sum(len(t.arrows) for t in desc.flagged())
            assert sum(dims.values()) == expected


def test_resolution_fig1_length_two(fig1):
    res = resolve_symbolic(fig1, "string", DirectedString(("a_1_2",)))
    assert res.terminated == "projective"
    assert res.length == 2
    assert res.levels[0].cover == (("1", 1),)
    assert dict(res.levels[1].cover) == {"2L": 1, "2R": 2}
    assert dict(res.levels[2].cover) == {"3L": 1, "3R": 1}
    assert not res.levels[2].syzygy


def test_resolution_simple_a2(a2):
    res = resolve_symbolic(a2, "simple", "1")
    assert res.terminated == "projective"
    assert res.length == 1
    assert dict(res.levels[1].cover) == {"2": 1}


def test_resolution_cyc2_cutoff(cyc2):
    res = resolve_symbolic(cyc2, "simple", "1", max_steps=6)
    assert res.terminated == "cutoff"
    tops = [dict(level.cover) for level in res.levels]
    assert tops[:4] == [{"1": 1}, {"2": 1}, {"1": 1}, {"2": 1}]
    for level in res.levels:
        assert sum(n for _s, n in level.syzygy.items) == 1


def test_syzygy_summands_right_maximal_or_special(fig1, gate, cyc2e):
    # every string summand at level >= 1 is right maximal; every simple sits
    # at a relational vertex (some in-arrow composes to zero with some
    # out-arrow) or a sink
    from agq.quiver import nonzero_successor
    for pair in (fig1, gate, cyc2e):
        for v in pair.quiver.vertices:
            res = resolve_symbolic(pair, "injective", v, max_steps=8)
            for level in res.levels:
                for s, _n in level.syzygy.items:
                    if s.kind == "string":
                        assert nonzero_successor(pair, s.arrows[-1]) is None
                    elif s.kind == "simple":
                        ins, outs = pair.in_arrows(s.vertex), pair.out_arrows(s.vertex)
                        assert (any((a.name, b.name) in pair.relations for a in ins for b in outs)
                                or not outs)


def test_injective_resolution_first_level(fig1):
    res = resolve_symbolic(fig1, "injective", "4")
    assert dict(res.levels[0].cover) == {"3": 1, "2": 1, "3'": 1}
    # M(a_4_5) is recognized as P(4) by the single-branch rule
    assert items_set(res.levels[0].syzygy) == {
        ("projective", "4", (), 1), ("simple", "4", (), 1),
        ("simple", "3", (), 1), ("simple", "3'", (), 1)}
    assert res.levels[0].syzygy.dim_vector(fig1) == {"3": 1, "3'": 1, "4": 2, "5": 1}


def test_psi0_block_in_resolution():
    # everything-matched socle block with three in-arrows stays symbolic and
    # its exact syzygy has the derived multiplicities
    pair = make_pair(
        ["u1", "u2", "u3", "v", "w1", "w2", "w3"],
        [("p1", "u1", "v"), ("p2", "u2", "v"), ("p3", "u3", "v"),
         ("q1", "v", "w1"), ("q2", "v", "w2"), ("q3", "v", "w3")],
        [("p1", "q2"), ("p1", "q3"), ("p2", "q1"), ("p2", "q3"), ("p3", "q1"), ("p3", "q2")])
    desc = psi0_descriptor(pair, "v")
    assert (desc.c, desc.d, desc.t) == (3, 3, 3)
    assert lemma(pair, "block", "v") is None
    assert is_invalid_vertex(pair, "v") == (False, None)
    res = resolve_symbolic(pair, "injective", "v")
    assert any(s.kind == "psi0" for s, _n in res.levels[0].syzygy.items)
    # flagged tails have length one here, so the block's syzygy is one copy
    # of S(w_j) per tail (c-2 = 1); the w_j are sinks, hence projective
    level1 = {(s.kind, s.vertex): n for s, n in res.levels[1].syzygy.items}
    assert level1 == {("projective", "w1"): 1, ("projective", "w2"): 1,
                      ("projective", "w3"): 1}
    assert dict(res.levels[1].cover) == {"v": 2}
    assert res.terminated == "projective" and res.length == 2


def test_resolution_dims_conserved_vs_oracle(fig1, gate):
    from agq.oracle import projective_cover_kernel, rep_of
    for pair, v in ((fig1, "4"), (fig1, "2R"), (gate, "3")):
        res = resolve_symbolic(pair, "injective", v, max_steps=4)
        ck = projective_cover_kernel(pair, rep_of(pair, "injective", v))
        assert res.levels[0].syzygy.dim_vector(pair) == ck.kernel.dim_vector(pair)


def test_omega1_simple_projectivity_three_ways(fig1, gate, cyc2e):
    # forbidden sup bound == direct syzygy inspection
    from agq.forbidden import sup_forbidden_from_vertex, LengthOrInf
    for pair in (fig1, gate, cyc2e):
        for v in pair.quiver.vertices:
            by_sup = sup_forbidden_from_vertex(pair, v)[0] <= LengthOrInf.finite(1)
            assert by_sup == omega1_projective(pair, DirectedString((), v))


def test_omega1_projectivity_three_ways_corpus():
    from agq.forbidden import sup_forbidden_from_vertex, LengthOrInf
    for seed in range(1, 21):
        pair, _ = random_ag_pair(GeneratorParams(seed=seed, max_vertices=6, max_arrows=10))
        for v in pair.quiver.vertices:
            by_sup = sup_forbidden_from_vertex(pair, v)[0] <= LengthOrInf.finite(1)
            assert by_sup == omega1_projective(pair, DirectedString((), v))


def test_resolving_an_injective_builds_no_socle_block_descriptor(monkeypatch):
    made: list[str] = []

    def init(self, *args, _init=Psi0Descriptor.__init__, **kwargs):
        made.append(args[0] if args else kwargs["apex"])
        _init(self, *args, **kwargs)
    monkeypatch.setattr(Psi0Descriptor, "__init__", init)
    undecomposed = 0  # vertices whose socle block is a tree module
    for seed in range(1, 201):
        pair, _ = random_ag_pair(GeneratorParams(seed=seed))
        for v in pair.quiver.vertices:
            res = resolve_symbolic(pair, "injective", v)
            undecomposed += any(s.kind == "psi0" for s, _n in res.levels[0].syzygy.items)
        # the socle block is a node read off its apex, never a descriptor
        assert made == [], seed
    assert undecomposed > 0


def test_a_level_has_the_same_dim_vector_over_an_equal_pair():
    # a socle block's dimensions follow from its apex, so an equal pair that
    # has not resolved that injective itself reads them too
    blocks = 0
    for seed in range(1, 201):
        pair, _ = random_ag_pair(GeneratorParams(seed=seed))
        text = emit_agq(document_of(pair))
        for v in pair.quiver.vertices:
            for level in resolve_symbolic(pair, "injective", v, max_steps=2).levels:
                again = parse_agq(text).pair()
                assert again == pair
                assert level.syzygy.dim_vector(again) == level.syzygy.dim_vector(pair), (seed, v)
                blocks += any(s.kind == "psi0" for s, _n in level.syzygy.items)
    assert blocks > 0


def test_a_string_summand_that_is_no_path_is_refused(fig1):
    # a node keeps only a string's first arrow and length, so the arrows are checked first
    bogus = [(Summand("string", None, ("a_1_2", "a_4_5")), 1)]
    with pytest.raises(InvalidStringError):
        SyzygyDecomposition(tuple(bogus)).dim_vector(fig1)


def test_max_dim_cuts_a_resolution_after_its_first_syzygy_over_it(fig1, cyc2e):
    from agq.syzygy import _levels, _summand_graph
    for pair in (fig1, cyc2e):
        graph = _summand_graph(pair)
        for v in range(len(pair.quiver.vertices)):
            for kind in ("simple", "injective"):
                full = list(_levels(pair, kind, v, 8))
                totals = [sum(graph.dim_sum(pair, syzygy).values()) for _cover, syzygy in full]
                for max_dim in range(max(totals) + 1):
                    levels = list(_levels(pair, kind, v, 8, max_dim))
                    n = next((k + 1 for k, t in enumerate(totals) if t > max_dim), len(totals))
                    assert levels == full[:n]
                    # a nonempty last syzygy is a cutoff
                    assert bool(levels[-1][1]) == (n < len(totals) or bool(full[-1][1]))
