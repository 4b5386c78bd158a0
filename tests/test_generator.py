import hashlib

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
