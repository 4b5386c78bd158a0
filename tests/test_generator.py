import hashlib

import pytest

from agq.agqfile import document_of, emit_agq, parse_agq
from agq.emitters import emit_json, report_json
from agq.forbidden import digraph_data
from agq.generator import GeneratorParams, random_ag_pair


def test_deterministic_in_seed():
    p1, t1 = random_ag_pair(GeneratorParams(seed=1))
    p2, t2 = random_ag_pair(GeneratorParams(seed=1))
    assert t1 == t2
    assert p1.quiver == p2.quiver and p1.relations == p2.relations
    _p3, t3 = random_ag_pair(GeneratorParams(seed=2))
    assert t3 != t1


def test_always_validates():
    for seed in range(1, 101):
        pair, _ = random_ag_pair(GeneratorParams(seed=seed))
        assert pair.validated, pair.report.violations


def test_respects_bounds():
    for seed in range(1, 51):
        params = GeneratorParams(seed=seed, max_vertices=4, max_arrows=6)
        pair, _ = random_ag_pair(params)
        assert 1 <= len(pair.quiver.vertices) <= 4
        assert len(pair.quiver.arrows) <= 6


def test_no_loops_when_disallowed():
    for seed in range(1, 51):
        pair, _ = random_ag_pair(GeneratorParams(seed=seed, loop_allowed=False))
        assert all(a.source != a.target for a in pair.quiver.arrows)


def test_density_extremes():
    # density 1: every composable pair is a relation; density 0: matchings
    # keep as many compositions nonzero as the local degrees allow
    for seed in range(1, 21):
        pair, _ = random_ag_pair(GeneratorParams(seed=seed, relation_density=1.0))
        for a in pair.quiver.arrows:
            for b in pair.quiver.arrows:
                if a.target == b.source:
                    assert (a.name, b.name) in pair.relations


def test_texts_are_pinned():
    # every acceptance count reads this corpus: its bytes must not drift
    corpus = "".join(random_ag_pair(GeneratorParams(seed=seed))[1] for seed in range(1, 201))
    assert hashlib.sha256(corpus.encode()).hexdigest() == \
        "ffb6204fbca6902e647de28b3ca42a9053c2fd04ae3758a9883426c1a31a187c"
    _pair, large = random_ag_pair(GeneratorParams(seed=7, max_vertices=1000, max_arrows=2000))
    assert hashlib.sha256(large.encode()).hexdigest() == \
        "c97e15e1e81b935cd182ff76f47dc630a890ef9a378d865c66efae262f447ec2"


_DISCONNECTED = "quiver is disconnected; all computations are componentwise"
# name -> parameters, and what the draw must look like
_EXTREMES = {
    "density 0": (GeneratorParams(seed=5, relation_density=0.0), lambda p: len(p.quiver.arrows) == 11),
    "density 1": (GeneratorParams(seed=5, relation_density=1.0),
                  lambda p: len(p.relations) == sum(len(p.out_arrows(a.target)) for a in p.quiver.arrows)),
    "40 loops": (GeneratorParams(seed=33, max_vertices=1, max_arrows=40),
                 lambda p: len(p.quiver.vertices) == 1 and len(p.quiver.arrows) == 40),
    "no loops": (GeneratorParams(seed=5, loop_allowed=False),
                 lambda p: len(p.quiver.arrows) == 11 and all(a.source != a.target for a in p.quiver.arrows)),
    "no loops, one vertex": (GeneratorParams(seed=1, max_vertices=1, loop_allowed=False),
                             lambda p: not p.quiver.arrows),
    "no arrows": (GeneratorParams(seed=1, max_arrows=0),
                  lambda p: not p.quiver.arrows and len(p.quiver.vertices) == 3),
    "disconnected": (GeneratorParams(seed=0, max_vertices=12, max_arrows=8),
                     lambda p: len(p.quiver.arrows) == 6 and p.report.warnings == (_DISCONNECTED,)),
}


@pytest.mark.parametrize("case", list(_EXTREMES))
def test_extreme_parameters_round_trip(case):
    params, shape = _EXTREMES[case]
    pair, _ = random_ag_pair(params)
    assert pair.validated and shape(pair)
    doc = document_of(pair, "extreme")
    again = parse_agq(emit_agq(doc))
    assert (again.name, again.vertices, again.arrows, again.relations) == \
        (doc.name, doc.vertices, doc.arrows, doc.relations)
    idx = pair.quiver.arrow_index
    data = digraph_data(pair)
    for i, a in enumerate(pair.quiver.arrows):
        want = sorted((b for x, b in pair.relations if x == a.name), key=idx.__getitem__)
        assert [data.names[j] for j in data.out[i]] == want
    assert emit_json(report_json(again.pair(), "extreme")) == emit_json(report_json(pair, "extreme"))
