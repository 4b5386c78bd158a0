"""Seeded random generation of almost gentle pairs.

Construction works backwards from the local structure: per vertex, choose a
partial matching of in-arrows to out-arrows as the composition-nonzero
pairs; every unmatched composable pair becomes a relation.  The matching
guarantees the almost gentle conditions by construction; admissibility is
then forced by breaking each cycle of the nonzero-successor graph (the
broken pair moves into the relations).
"""

from __future__ import annotations

import random

from .agqfile import document_of, emit_agq
from .quiver import AlmostGentlePair, Arrow, Quiver, _Frozen, _setattr, successor_cycles


class GeneratorParams(_Frozen):
    seed: int
    max_vertices: int
    max_arrows: int
    loop_allowed: bool
    relation_density: float  # probability a composable in/out pair stays zero
    _fields = ("seed", "max_vertices", "max_arrows", "loop_allowed", "relation_density")

    def __init__(self, seed: int, max_vertices: int = 8, max_arrows: int = 14,
                 loop_allowed: bool = True, relation_density: float = 0.5) -> None:
        if max_vertices < 1 or max_arrows < 0:
            raise ValueError("bounds must be positive")
        if not 0.0 <= relation_density <= 1.0:
            raise ValueError("relation_density must lie in [0, 1]")
        _setattr(self, "seed", seed)
        _setattr(self, "max_vertices", max_vertices)
        _setattr(self, "max_arrows", max_arrows)
        _setattr(self, "loop_allowed", loop_allowed)
        _setattr(self, "relation_density", relation_density)


def random_ag_pair(params: GeneratorParams) -> tuple[AlmostGentlePair, str]:
    """Deterministic in the seed; the result always validates."""
    rng = random.Random(params.seed)
    n_v = rng.randint(1, params.max_vertices)
    vertices = tuple(f"v{i}" for i in range(1, n_v + 1))
    n_a = rng.randint(0, params.max_arrows)
    arrows = []
    ins: dict[str, list[str]] = {v: [] for v in vertices}  # each vertex's arrow names, declaration order
    outs: dict[str, list[str]] = {v: [] for v in vertices}
    for k in range(1, n_a + 1):
        src = rng.choice(vertices)
        tgt = rng.choice(vertices)
        if not params.loop_allowed and n_v > 1:
            while tgt == src:
                tgt = rng.choice(vertices)
        if not params.loop_allowed and n_v == 1:
            continue
        name = f"a{k}"
        arrows.append(Arrow(name, src, tgt))
        outs[src].append(name)
        ins[tgt].append(name)
    quiver = Quiver(vertices, tuple(arrows))

    # per-vertex partial matching of in-arrows to out-arrows = nonzero pairs
    successor: dict[str, str] = {}
    for v in vertices:
        rng.shuffle(ins[v])
        rng.shuffle(outs[v])
        for a, b in zip(ins[v], outs[v]):
            if rng.random() >= params.relation_density:
                successor[a] = b

    # admissibility: break every cycle of the successor graph
    for cycle in successor_cycles(successor):
        del successor[min(cycle)]

    relations = frozenset(
        (a.name, b) for a in arrows for b in outs[a.target] if successor.get(a.name) != b)
    pair = AlmostGentlePair.build(quiver, relations)
    if not pair.validated:  # pragma: no cover - construction guarantees validity
        raise AssertionError(f"generator produced an invalid pair: {pair.report.violations}")
    return pair, emit_agq(document_of(pair, f"random_{params.seed}"))
