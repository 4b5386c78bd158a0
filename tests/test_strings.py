import pytest

from agq.strings import (
    DirectedString,
    anticlaw_of,
    claw_of,
    left_maximal_extension,
    module_dims,
    right_maximal_extension,
    socle_supports,
    string_of,
)
from agq.agqfile import parse_agq
from agq.generator import GeneratorParams, random_ag_pair
from agq.oracle import check_against_formulas, rep_of
from agq.homdim import pdim_directed_string
from agq.quiver import InvalidStringError, nonzero_successor
from agq.syzygy import Summand, is_invalid_vertex, psi0_descriptor, resolve_symbolic
from conftest import FIXTURES, bench_cyclic_pairs, dim_vector, lemma, make_pair


def test_right_maximal_extension_fig1(fig1):
    ext = right_maximal_extension(fig1, DirectedString(("a_1_2R",)))
    assert ext.arrows == ("a_1_2R", "a_2R_3R", "a_3R_4R")
    assert right_maximal_extension(fig1, DirectedString(("a_1_2",))).arrows == ("a_1_2",)


def test_right_maximal_extension_idempotent(fig1):
    once = right_maximal_extension(fig1, DirectedString(("a_1_2R",)))
    assert right_maximal_extension(fig1, once) == once
    assert nonzero_successor(fig1, once.arrows[-1]) is None


def test_right_maximal_extension_sink(a2):
    assert right_maximal_extension(a2, DirectedString(("a",))).arrows == ("a",)


def test_left_maximal_extension_fig1(fig1):
    assert left_maximal_extension(fig1, DirectedString(("a_2R_3R",))).arrows == \
        ("a_1_2R", "a_2R_3R")
    assert left_maximal_extension(fig1, DirectedString(("a_3_4",))).arrows == ("a_3_4",)


def test_string_of_rejects_relations(fig1):
    from agq.quiver import InvalidStringError
    with pytest.raises(InvalidStringError):
        string_of(fig1, ("a_1_2", "a_2_3"))
    with pytest.raises(InvalidStringError):
        string_of(fig1, ("a_1_2", "a_3_4"))


def test_claw_of_fig1(fig1):
    claw = claw_of(fig1, "1")
    assert {br.arrows for br in claw} == {
        ("a_1_2L",), ("a_1_2",), ("b_1_2R",), ("a_1_2R", "a_2R_3R", "a_3R_4R")}
    claw2 = claw_of(fig1, "2")
    assert {br.arrows for br in claw2} == {
        ("a_2_3",), ("a_2_4", "a_4_5"), ("a_2_3'",)}
    assert claw_of(fig1, "5") == ()


def test_claw_branches_are_unique_successor_chains(fig1):
    from agq.quiver import nonzero_successor
    for v in fig1.quiver.vertices:
        for br in claw_of(fig1, v):
            for x, y in zip(br.arrows, br.arrows[1:]):
                assert nonzero_successor(fig1, x) == y
            assert nonzero_successor(fig1, br.arrows[-1]) is None


def test_anticlaw_of_fig1(fig1):
    assert {br.arrows for br in anticlaw_of(fig1, "2R")} == \
        {("a_1_2R",), ("b_1_2R",)}
    assert {br.arrows for br in anticlaw_of(fig1, "4")} == \
        {("a_3_4",), ("a_2_4",), ("a_3'_4",)}


def test_anticlaw_source(a2):
    assert anticlaw_of(a2, "1") == ()


def test_module_dims_fig1(fig1):
    assert sum(module_dims(fig1, "projective", "1").values()) == 7
    assert sum(module_dims(fig1, "injective", "2R").values()) == 3
    assert module_dims(fig1, "injective", "2R")["1"] == 2
    assert sum(module_dims(fig1, "injective", "4").values()) == 4
    assert module_dims(fig1, "simple", "3") == {"3": 1}


def assert_module_dims_match_paths(pair):
    # the oracle builds P(v) and E(v) on the nonzero paths out of and into v
    for v in pair.quiver.vertices:
        for kind in ("projective", "injective"):
            assert module_dims(pair, kind, v) == rep_of(pair, kind, v).dim_vector(pair)


def test_module_dims_match_basis_path_counts(fig1, cyc2, gate):
    for pair in (fig1, cyc2, gate):
        assert_module_dims_match_paths(pair)


def test_module_dims_match_basis_path_counts_corpus():
    for seed in range(1, 16):
        pair, _ = random_ag_pair(GeneratorParams(seed=seed, max_vertices=6, max_arrows=10))
        assert_module_dims_match_paths(pair)


def test_socle_supports_small(a2, cyc2):
    assert sorted(socle_supports(a2)) == ["2", "2"]
    assert sorted(socle_supports(cyc2)) == ["1", "2"]


@pytest.mark.parametrize("ask", [
    lambda pair, ds: pdim_directed_string(pair, ds),
    lambda pair, ds: resolve_symbolic(pair, "string", ds),
    lambda pair, ds: rep_of(pair, "string", ds),
    lambda pair, ds: right_maximal_extension(pair, ds),
], ids=["pdim_directed_string", "resolve_symbolic", "rep_of", "right_maximal_extension"])
def test_a_string_with_arrows_and_an_anchor_is_refused(fig1, ask):
    with pytest.raises(InvalidStringError, match="takes no anchor vertex"):
        ask(fig1, DirectedString(("a_1_2",), "zz"))
    ask(fig1, DirectedString(("a_1_2",)))


def test_socle_supports_fig1(fig1):
    assert socle_supports(fig1).count("5") >= 3


def _reference_maximal_string(pair, a, right):
    """Walk the nonzero successors (right) or predecessors (left) of a."""
    arrows = [a]
    names, pred, idx = pair.report.names, pair.report.nonzero_pred, pair.quiver.arrow_index
    while True:
        if right:
            nxt = nonzero_successor(pair, arrows[-1])
        else:
            p = pred[idx[arrows[-1]]]
            nxt = names[p] if p >= 0 else None
        if nxt is None:
            return tuple(arrows if right else reversed(arrows))
        arrows.append(nxt)


def _edge_pairs():
    """A quiver with no arrows, and the relation-free A_n at n = 1,500: one
    chain of 1,499 arrows."""
    n = 1_500
    a_n = make_pair([f"v{i}" for i in range(n)], [(f"a{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)], [])
    return [make_pair(["1", "2", "3"], [], []), a_n]


def _valid_corpus_pairs():
    """The valid fixtures, corpus seeds 1-200 and ten benchmark instances."""
    pairs = [parse_agq(f.read_text()).pair() for f in sorted(FIXTURES.glob("*.agq"))]
    pairs += [random_ag_pair(GeneratorParams(seed=s))[0] for s in range(1, 201)]
    pairs += bench_cyclic_pairs(10)
    return [pair for pair in pairs if pair.validated]


def test_claws_and_extensions_match_a_reference_walk():
    # claws, anti-claws and both maximal extensions slice the chain table
    checked = 0
    for pair in _valid_corpus_pairs() + _edge_pairs():
        for v in pair.quiver.vertices:
            assert [br.arrows for br in claw_of(pair, v)] == \
                [_reference_maximal_string(pair, a.name, True) for a in pair.out_arrows(v)]
            assert [br.arrows for br in anticlaw_of(pair, v)] == \
                [_reference_maximal_string(pair, a.name, False) for a in pair.in_arrows(v)]
        for a in pair.quiver.arrows:
            one = DirectedString((a.name,))
            assert right_maximal_extension(pair, one).arrows == \
                _reference_maximal_string(pair, a.name, True)
            assert left_maximal_extension(pair, one).arrows == \
                _reference_maximal_string(pair, a.name, False)
        checked += 1
    assert checked == 220  # 8 valid fixtures, 200 corpus seeds, 10 benchmark instances, 2 edge quivers


def test_maximal_extensions_splice_the_table_entry(fig1):
    # a string that already runs along a chain: its last (first) arrow's entry is spliced on
    assert right_maximal_extension(fig1, DirectedString(("a_1_2R", "a_2R_3R"))).arrows == \
        ("a_1_2R", "a_2R_3R", "a_3R_4R")
    assert left_maximal_extension(fig1, DirectedString(("a_2R_3R", "a_3R_4R"))).arrows == \
        ("a_1_2R", "a_2R_3R", "a_3R_4R")
    from agq.quiver import InvalidStringError
    for extend in (right_maximal_extension, left_maximal_extension):
        with pytest.raises(InvalidStringError):
            extend(fig1, DirectedString(("a_1_2", "a_2_3")))
        assert extend(fig1, DirectedString((), "3")).arrows == ()


def test_maximal_extensions_reject_an_unknown_arrow(fig1):
    from agq.quiver import UnknownArrowError
    for extend in (right_maximal_extension, left_maximal_extension):
        for arrows in (("zz",), ("a_1_2R", "zz"), ("zz", "a_2R_3R")):
            with pytest.raises(UnknownArrowError, match="unknown arrow 'zz'"):
                extend(fig1, DirectedString(arrows))


def _reference_invalid_vertex(pair, v):
    """The five invalid-vertex conditions read off the socle-block descriptor."""
    desc = psi0_descriptor(pair, v)
    if desc.c == 2 and lemma(pair, "gentle", v):
        return True, 1
    if desc.d == 0:
        return True, 2
    if desc.c == 1 and desc.t == 1:
        tail = desc.flagged()[0]
        if len(tail) == 1 and not pair.out_arrows(pair.arrow(tail.arrows[-1]).target):
            return True, 3
        if len(tail) >= 2 and not pair.report.relation_succ[pair.report.names.index(tail.arrows[0])]:
            return True, 4
    if desc.c == 1 and desc.t == 0 and desc.d >= 1:
        return True, 5
    return False, None


def test_chain_end_readings_agree_with_the_string_tables():
    # is_invalid_vertex and socle_supports read chain ends and the successor
    # maps; the references build the claws, anti-claws and descriptors
    conditions = set()
    checked = 0
    for pair in _valid_corpus_pairs():
        supports = []
        for v in pair.quiver.vertices:
            verdict = is_invalid_vertex(pair, v)
            assert verdict == _reference_invalid_vertex(pair, v), v
            conditions.add(verdict[1])
            # an anti-claw branch is the start of the claw branch out of its head
            for a, branch in zip(pair.in_arrows(v), anticlaw_of(pair, v)):
                head = branch.arrows[0]
                assert branch.arrows[-1] == a.name
                assert pair.report.nonzero_pred[pair.report.names.index(head)] == -1
                from_head = [br for br in claw_of(pair, pair.arrow(head).source)
                             if br.arrows[0] == head]
                assert len(from_head) == 1
                assert from_head[0].arrows[:len(branch)] == branch.arrows
            claw = claw_of(pair, v)
            supports += [pair.arrow(br.arrows[-1]).target for br in claw] if claw else [v]
        assert socle_supports(pair) == supports
        checked += 1
    assert checked == 218
    assert conditions == {None, 1, 2, 3, 4, 5}


def test_the_edge_quivers_resolve_and_measure_off_the_chain_table():
    from agq.homdim import pdim_injective, pdim_simple
    arrowless, a_n = _edge_pairs()
    assert arrowless.validated and arrowless.report.chain == []
    assert socle_supports(arrowless) == ["1", "2", "3"]
    for v in arrowless.quiver.vertices:
        anchor = DirectedString((), v)
        for kind, arg in (("simple", v), ("projective", v), ("injective", v), ("string", anchor)):
            assert module_dims(arrowless, kind, arg) == {v: 1}
        for kind, arg in (("simple", v), ("injective", v), ("string", anchor)):
            res = resolve_symbolic(arrowless, kind, arg)
            assert [(level.cover, level.syzygy.items) for level in res.levels] == [(((v, 1),), ())]
            assert res.terminated == "projective"
    assert check_against_formulas(arrowless).ok

    # A_n: P(v_i) runs from v_i to the sink, E(v_i) from the source to v_i
    vertices = a_n.quiver.vertices
    n, last = len(vertices), vertices[-1]
    assert socle_supports(a_n) == [last] * n
    for i, v in enumerate(vertices):
        assert module_dims(a_n, "simple", v) == {v: 1}
        assert module_dims(a_n, "projective", v) == dict.fromkeys(vertices[i:], 1)
        assert module_dims(a_n, "injective", v) == dict.fromkeys(vertices[:i + 1], 1)
        # S(v_i), E(v_i) and the anchor at v_i have syzygy P(v_i+1), except at the sink,
        # where they are projective; the string from v_i to the sink is P(v_i)
        strings = [DirectedString((), v)] + list(claw_of(a_n, v))
        for kind, arg in [("simple", v), ("injective", v)] + [("string", ds) for ds in strings]:
            res = resolve_symbolic(a_n, kind, arg)
            ends = i == n - 1 or kind == "string" and bool(arg.arrows)
            expected = [] if ends else [(Summand("projective", vertices[i + 1]), 1)]
            assert list(res.levels[0].syzygy.items) == expected, (kind, v)
            assert res.length == (0 if ends else 1) and res.terminated == "projective"
            assert dim_vector(a_n, res.levels[0].syzygy) == ({} if ends else dict.fromkeys(vertices[i + 1:], 1))
        assert pdim_simple(a_n, v).value.value == pdim_injective(a_n, v).value.value == (0 if i == n - 1 else 1)
    assert module_dims(a_n, "string", DirectedString(a_n.report.names[3:10])) == dict.fromkeys(vertices[3:11], 1)
