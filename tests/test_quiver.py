import pytest

from agq.quiver import (
    Arrow,
    Quiver,
    UnknownArrowError,
    UnknownVertexError,
    nonzero_successor,
    opposite,
    validate_bound_quiver,
    vertex_type,
)
from conftest import FIXTURES, bench_acyclic_docs, bench_cyclic_pairs, make_pair
from agq.agqfile import parse_agq
from agq.generator import GeneratorParams, random_ag_pair
from agq.oracle import _path_tree, rep_of
from agq.strings import DirectedString
from agq.syzygy import psi0_descriptor


def crossing_count(pair, v):
    """Length-two nonzero paths through v, counted over all arrow pairs."""
    return sum(1 for a in pair.quiver.arrows for b in pair.quiver.arrows
               if a.target == v == b.source and (a.name, b.name) not in pair.relations)


def test_fig1_validates(fig1):
    assert fig1.validated
    assert not fig1.report.violations
    assert len(fig1.quiver.vertices) == 12
    assert len(fig1.quiver.arrows) == 17
    assert len(fig1.relations) == 11


def test_too_many_nonzero_successors():
    q = Quiver(("1", "2", "3", "4"),
               (Arrow("a", "1", "2"), Arrow("b", "2", "3"), Arrow("c", "2", "4")))
    report = validate_bound_quiver(q, frozenset())
    assert not report.valid
    kinds = {(v.kind, v.location) for v in report.violations}
    assert ("TooManyNonzeroSuccessors", ("a",)) in kinds


def test_loop_without_relation_is_nonzero_cycle():
    q = Quiver(("1",), (Arrow("x", "1", "1"),))
    report = validate_bound_quiver(q, frozenset())
    assert not report.valid
    assert any(v.kind == "NonzeroCycle" and v.location == ("x",) for v in report.violations)


def test_noncomposable_relation():
    q = Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "1", "3")))
    report = validate_bound_quiver(q, frozenset({("a", "b")}))
    assert not report.valid
    assert report.violations[0].kind == "NonComposableRelation"


def test_disconnected_warns():
    q = Quiver(("1", "2"), ())
    report = validate_bound_quiver(q, frozenset())
    assert report.valid
    assert report.warnings


# Pairs that are not valid, and each vertex's (in-arrows, out-arrows) in declaration order
INVALID_PAIRS = [
    (["1", "2"], [("b", "2", "3"), ("a", "1", "2"), ("c", "0", "2"), ("d", "2", "2")], [],
     "DanglingEndpoint", {"1": ((), ("a",)), "2": (("a", "c", "d"), ("b", "d"))}),
    (["1", "2"], [("a", "1", "2"), ("b", "2", "1"), ("c", "1", "2")], [("a", "zz"), ("a", "b")],
     "DanglingEndpoint", {"1": (("b",), ("a", "c")), "2": (("a", "c"), ("b",))}),
    (["1", "2", "3", "4"], [("c", "2", "4"), ("a", "1", "2"), ("b", "2", "3")], [],
     "TooManyNonzeroSuccessors", {"1": ((), ("a",)), "2": (("a",), ("c", "b")), "3": (("b",), ()),
                                  "4": (("c",), ())}),
]


@pytest.mark.parametrize("vertices, arrows, rels, kind, adjacency", INVALID_PAIRS,
                         ids=["dangling-endpoint", "unknown-relation-arrow", "two-nonzero-successors"])
def test_lookups_work_on_pairs_that_are_not_valid(vertices, arrows, rels, kind, adjacency):
    pair = make_pair(vertices, arrows, rels)
    assert not pair.validated and kind in {v.kind for v in pair.report.violations}
    declared = {name: Arrow(name, s, t) for name, s, t in arrows}
    for name, arrow in declared.items():
        assert pair.arrow(name) == arrow
    for v, (ins, outs) in adjacency.items():
        assert pair.in_arrows(v) == tuple(declared[a] for a in ins)
        assert pair.out_arrows(v) == tuple(declared[a] for a in outs)
        assert vertex_type(pair, v) == (len(ins), len(outs))
    with pytest.raises(UnknownArrowError):
        pair.arrow("zz")
    for lookup in (pair.in_arrows, pair.out_arrows, lambda v: vertex_type(pair, v)):
        with pytest.raises(UnknownVertexError):
            lookup("0")  # a dangling endpoint in the first pair


def test_nonzero_successor_fig1(fig1):
    assert nonzero_successor(fig1, "a_1_2R") == "a_2R_3R"
    assert nonzero_successor(fig1, "a_1_2") is None
    with pytest.raises(UnknownArrowError):
        nonzero_successor(fig1, "nope")


def test_nonzero_successor_sink(a2):
    assert nonzero_successor(a2, "a") is None


def test_nonzero_predecessor_fig1(fig1):
    names, pred = fig1.report.names, fig1.report.nonzero_pred
    assert names[pred[names.index("a_4_5")]] == "a_2_4"
    assert names[pred[names.index("a_2R_3R")]] == "a_1_2R"


def test_nonzero_predecessor_source(a2):
    assert a2.report.nonzero_pred[a2.report.names.index("a")] == -1


def test_vertex_type_fig1(fig1):
    assert vertex_type(fig1, "4") == (3, 1)
    assert vertex_type(fig1, "2") == (1, 3)
    assert vertex_type(fig1, "1") == (0, 4)


def test_crossing_nonzero_count_fig1(fig1):
    for v, t in (("4", 1), ("2R", 1), ("2", 0)):
        assert psi0_descriptor(fig1, v).t == crossing_count(fig1, v) == t


def basis_paths(pair, v):
    """The paths out of v in the path tree's order, spelled by arrow name."""
    tree = _path_tree(pair, pair.quiver.vertex_index[v])
    paths = [()]
    for up, a in zip(tree.up[1:], tree.arrow[1:]):
        paths.append(paths[up] + (pair.report.names[a],))
    return paths


def test_basis_paths_a2(a2):
    assert {v: basis_paths(a2, v) for v in a2.quiver.vertices} == \
        {"1": [(), ("a",)], "2": [()]}


def test_basis_paths_fig1_from_1(fig1):
    from_1 = basis_paths(fig1, "1")
    assert len(from_1) == 7
    assert max(from_1, key=len) == ("a_1_2R", "a_2R_3R", "a_3R_4R")


def test_basis_paths_cyc2(cyc2):
    assert {v: basis_paths(cyc2, v) for v in cyc2.quiver.vertices} == \
        {"1": [(), ("a",)], "2": [(), ("b",)]}


def test_opposite_a2(a2):
    op = opposite(a2)
    assert op.validated
    assert op.quiver.arrows[0].source == "2"
    assert op.quiver.arrows[0].target == "1"


def test_opposite_involution(fig1, cyc2):
    for pair in (fig1, cyc2):
        back = opposite(opposite(pair))
        assert back.quiver == pair.quiver
        assert back.relations == pair.relations


def test_opposite_fig1_validates(fig1):
    op = opposite(fig1)
    assert op.validated
    assert len(op.relations) == 11


def test_nonzero_path_requires_anchor():
    from agq.quiver import InvalidStringError
    with pytest.raises(InvalidStringError):
        DirectedString(())


def test_ag_conditions_brute_force_on_corpus():
    # at most one nonzero successor/predecessor per arrow, by raw counting
    for seed in range(1, 21):
        pair, _ = random_ag_pair(GeneratorParams(seed=seed, max_vertices=6, max_arrows=10))
        names = pair.report.names
        for i, a in enumerate(pair.quiver.arrows):
            nxt = [b.name for b in pair.quiver.arrows
                   if b.source == a.target and (a.name, b.name) not in pair.relations]
            prv = [c.name for c in pair.quiver.arrows
                   if c.target == a.source and (c.name, a.name) not in pair.relations]
            assert len(nxt) <= 1 and len(prv) <= 1
            assert nonzero_successor(pair, a.name) == (nxt[0] if nxt else None)
            assert [names[j] for j in [pair.report.nonzero_succ[i]] if j >= 0] == nxt
            assert [names[j] for j in [pair.report.nonzero_pred[i]] if j >= 0] == prv


def _brute_force_tables(pair):
    """The validation's tables from arrows and relations alone, pair by pair."""
    vertices, arrows, rels = pair.quiver.vertices, pair.quiver.arrows, pair.relations
    place = {v: k for k, v in enumerate(vertices)}
    after = [[j for j, b in enumerate(arrows) if b.source == a.target] for a in arrows]
    nonzero = [[j for j in js if (a.name, arrows[j].name) not in rels] for a, js in zip(arrows, after)]
    before = [[i for i, js in enumerate(nonzero) if j in js] for j in range(len(arrows))]
    return (tuple(a.name for a in arrows),
            [place[a.source] for a in arrows], [place[a.target] for a in arrows],
            [js[0] if len(js) == 1 else -1 for js in nonzero],
            [js[0] if len(js) == 1 else -1 for js in before],
            [[j for j in js if (a.name, arrows[j].name) in rels] for a, js in zip(arrows, after)],
            tuple(tuple(i for i, a in enumerate(arrows) if a.source == v) for v in vertices),
            tuple(tuple(i for i, a in enumerate(arrows) if a.target == v) for v in vertices))


def test_validation_tables_match_a_brute_force_count():
    pairs = [parse_agq(path.read_text(encoding="utf-8")).pair() for path in sorted(FIXTURES.glob("*.agq"))]
    pairs += [random_ag_pair(GeneratorParams(seed=s))[0] for s in range(1, 201)]
    pairs += bench_cyclic_pairs(4) + [doc.pair() for doc in bench_acyclic_docs()[:3]]
    for pair in pairs:
        r = pair.report
        assert (r.names, r.source, r.target, r.nonzero_succ, r.nonzero_pred,
                r.relation_succ, r.outs, r.ins) == _brute_force_tables(pair)
    assert sum(not pair.validated for pair in pairs) == 1  # loop_norel, which is well formed


@pytest.mark.parametrize("vertices, arrows, message", [
    (("1", "a b"), (), "bad vertex name 'a b'"),
    (("1", ""), (), "bad vertex name ''"),
    (("1", "2", "1", "x-y"), (), "duplicate vertex '1'"),
    (("1", "x-y", "1"), (), "bad vertex name 'x-y'"),
    (("1",), (("a", "1", "1"), ("b c", "1", "1")), "bad arrow name 'b c'"),
    (("1",), (("a", "1", "1"), ("a", "1", "1"), ("", "1", "1")), "duplicate arrow 'a'"),
    (("1 2",), (("a", "1", "1"), ("a", "1", "1")), "bad vertex name '1 2'"),
])
def test_quiver_names_the_first_bad_or_repeated_name(vertices, arrows, message):
    from agq.quiver import AgqError
    with pytest.raises(AgqError, match=f"^{message}$"):
        Quiver(vertices, tuple(Arrow(*a) for a in arrows))


def test_crossing_bounded_by_degree_on_corpus():
    for seed in range(1, 21):
        pair, _ = random_ag_pair(GeneratorParams(seed=seed))
        for v in pair.quiver.vertices:
            c, d = vertex_type(pair, v)
            t = psi0_descriptor(pair, v).t
            assert t == crossing_count(pair, v)
            assert t <= min(c, d)


def test_operations_require_validation():
    from agq.quiver import NotValidatedError
    bad = make_pair(["1"], [("x", "1", "1")], [])
    assert not bad.validated
    with pytest.raises(NotValidatedError):
        rep_of(bad, "simple", "1")
    with pytest.raises(NotValidatedError):
        nonzero_successor(bad, "x")


def test_kind_dispatchers_reject_an_unknown_kind(fig1):
    from agq.oracle import oracle_pdim
    from agq.strings import module_dims
    from agq.syzygy import resolve_symbolic
    for dispatch in (rep_of, module_dims, resolve_symbolic):
        with pytest.raises(ValueError, match="unknown module kind 'tilted'"):
            dispatch(fig1, "tilted", "1")
    with pytest.raises(ValueError, match="cutoff must be at least 1"):
        oracle_pdim(fig1, rep_of(fig1, "simple", "1"), 0)


def test_public_entry_points_reject_unknown_names(fig1, loop_norel):
    # Internal helpers read the pair's tables unchecked, so every public entry
    # point must check the pair, then the names and strings it is given.
    from agq.forbidden import (delta_forbidden_sup, sup_forbidden_from_arrow,
                               sup_forbidden_from_vertex, zero_length_forbidden)
    from agq.homdim import pdim_directed_string, pdim_injective, pdim_simple
    from agq.quiver import InvalidStringError, NotValidatedError, UnknownVertexError
    from agq.strings import (anticlaw_of, claw_of, left_maximal_extension, module_dims,
                             right_maximal_extension, string_of)
    from agq.syzygy import is_invalid_vertex, psi0_descriptor, resolve_symbolic
    vertex_zz, arrow_zz = DirectedString((), "zz"), DirectedString(("zz",))
    by_string = [right_maximal_extension, left_maximal_extension,
                 pdim_directed_string, delta_forbidden_sup,
                 lambda p, ds: module_dims(p, "string", ds),
                 lambda p, ds: rep_of(p, "string", ds),
                 lambda p, ds: resolve_symbolic(p, "string", ds)]
    by_vertex = [pdim_simple, pdim_injective, sup_forbidden_from_vertex, zero_length_forbidden,
                 claw_of, anticlaw_of, is_invalid_vertex, psi0_descriptor,
                 lambda p, v: module_dims(p, "projective", v),
                 lambda p, v: module_dims(p, "injective", v),
                 lambda p, v: rep_of(p, "injective", v)]
    by_vertex += [lambda p, v, k=kind: resolve_symbolic(p, k, v) for kind in ("simple", "injective")]
    by_vertex += [lambda p, v, f=f: f(p, vertex_zz) for f in by_string]
    for fn in by_vertex:
        with pytest.raises(UnknownVertexError):
            fn(fig1, "zz")
        with pytest.raises(NotValidatedError):
            fn(loop_norel, "zz")
    by_arrow = [sup_forbidden_from_arrow, nonzero_successor]
    by_arrow += [lambda p, a, f=f: f(p, arrow_zz) for f in by_string]
    for fn in by_arrow:
        with pytest.raises(UnknownArrowError):
            fn(fig1, "zz")
    # a_1_2 ends at 2 and a_3L_4L starts at 3L: not a path
    broken = DirectedString(("a_1_2", "a_3L_4L"))
    for fn in [lambda p: string_of(p, broken.arrows)] + [lambda p, f=f: f(p, broken) for f in by_string]:
        with pytest.raises(InvalidStringError, match="not composable"):
            fn(fig1)
