import importlib.util
import pathlib
import sys
from collections import Counter

import pytest

from agq import syzygy
from agq.agqfile import parse_agq
from agq.quiver import AlmostGentlePair, Arrow, Quiver, nonzero_successor
from agq.strings import DirectedString, _check_string, _gentle_at, module_dims

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
BENCH_INPUTS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"


def make_pair(vertices, arrows, rels) -> AlmostGentlePair:
    quiver = Quiver(tuple(vertices), tuple(Arrow(*a) for a in arrows))
    return AlmostGentlePair.build(quiver, frozenset(rels))


def _bench_inputs():
    """The benchmark's input builders, perfbench/inputs.py, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", BENCH_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # dataclasses look their module up here
    spec.loader.exec_module(inputs)
    return inputs


def bench_cyclic_pairs(count: int) -> list[AlmostGentlePair]:
    """The first count instances of the benchmark's closed_cyclic set at seed 301."""
    return [parse_agq(item.text).pair() for item in _bench_inputs().cyclic_items(301, count)]


def bench_acyclic_docs():
    """The benchmark's closed_acyclic ladder at seed 1, 25 rungs, parsed."""
    return [parse_agq(item.text) for item in _bench_inputs().acyclic_items(1, 25)]


def lemma(pair, name, arg):
    """One lemma of the symbolic layer, read off the index core that the
    summand graph runs, with names only here at its edge; arguments are
    not checked.  The cores read the validation report's tables, slicing
    its chain table for every string.

    "omega1" is the first syzygy of the directed string arg.  At a vertex
    arg with in-arrows, where E(arg) is the graph node (4, arg, -1, 0),
    "leftovers" lists the per-branch leftovers of Omega_1(E(arg)) in node
    order and "block" decomposes its socle block into directed strings
    (None for a tree module, which the node's successors keep as the
    socle-block node); before normalization the two are that node's
    successors.  "block_dims" gives the block's dimension vector by vertex
    name: c-1 at its apex plus one per vertex strictly along each flagged
    tail.  "gentle" is the local gentle test at the vertex arg.
    """
    report = pair.report
    if name == "omega1":
        node = syzygy._node_of(pair, _check_string(pair, arg))
        return syzygy._decomposition(pair, syzygy._omega1(report, node))
    v = pair.quiver.vertex_index[arg]
    if name == "leftovers":
        return [syzygy._summand(pair, n) for n in sorted(syzygy._leftovers(report, v))]
    if name == "block":
        block = syzygy._block(report, v)
        return None if block is None else syzygy._decomposition(pair, block)
    if name == "block_dims":
        basis = [v] * (len(report.ins[v]) - 1)
        for a in report.outs[v]:
            if report.nonzero_pred[a] >= 0:  # a flagged tail: a slice of one chain
                basis += [report.target[x] for x in report.chain[report.at[a]:report.end[a]]]
        return dict(Counter(pair.quiver.vertices[w] for w in basis))
    if name == "gentle":
        return _gentle_at(report, v)
    raise ValueError(f"unknown lemma {name!r}")


def dim_vector(pair, decomposition):
    """The dimension vector by vertex name of a symbolic syzygy: module_dims
    per summand, and the socle-block lemma for an undecomposed block."""
    dims = {}
    for s, n in decomposition.items:
        if s.kind == "psi0":
            part = lemma(pair, "block_dims", s.vertex)
        else:
            part = module_dims(pair, s.kind, DirectedString(s.arrows) if s.arrows else s.vertex)
        for w, d in part.items():
            dims[w] = dims.get(w, 0) + n * d
    return dims


def strings_of(pair):
    """Every anchor, then every nonzero directed path of length 1 to 3."""
    strings = [DirectedString((), v) for v in pair.quiver.vertices]
    for a in pair.quiver.arrows:
        arrows = (a.name,)
        while arrows[-1] is not None and len(arrows) <= 3:
            strings.append(DirectedString(arrows))
            arrows += (nonzero_successor(pair, arrows[-1]),)
    return strings


FIG1_VERTICES = ["1", "2", "3", "3'", "4", "5", "2L", "3L", "4L", "2R", "3R", "4R"]
FIG1_ARROWS = [
    ("a_1_2", "1", "2"), ("a_2_3", "2", "3"), ("a_2_3'", "2", "3'"), ("a_2_4", "2", "4"),
    ("a_3_4", "3", "4"), ("a_3'_4", "3'", "4"), ("a_4_5", "4", "5"),
    ("a_1_2L", "1", "2L"), ("a_2L_3L", "2L", "3L"), ("a_3L_4L", "3L", "4L"),
    ("a_4L_5", "4L", "5"), ("b_4L_5", "4L", "5"),
    ("a_1_2R", "1", "2R"), ("b_1_2R", "1", "2R"), ("a_2R_3R", "2R", "3R"),
    ("a_3R_4R", "3R", "4R"), ("a_4R_5", "4R", "5"),
]
FIG1_RELS = [
    ("a_1_2L", "a_2L_3L"), ("a_2_3", "a_3_4"), ("a_1_2", "a_2_3"), ("a_3_4", "a_4_5"),
    ("a_2_3'", "a_3'_4"), ("a_3R_4R", "a_4R_5"), ("a_1_2", "a_2_3'"), ("a_3'_4", "a_4_5"),
    ("a_1_2", "a_2_4"), ("a_3L_4L", "b_4L_5"), ("b_1_2R", "a_2R_3R"),
]


@pytest.fixture(scope="session")
def fig1() -> AlmostGentlePair:
    return make_pair(FIG1_VERTICES, FIG1_ARROWS, FIG1_RELS)


@pytest.fixture(scope="session")
def a2() -> AlmostGentlePair:
    return make_pair(["1", "2"], [("a", "1", "2")], [])


@pytest.fixture(scope="session")
def a3r() -> AlmostGentlePair:
    return make_pair(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")], [("a", "b")])


@pytest.fixture(scope="session")
def cyc2() -> AlmostGentlePair:
    return make_pair(["1", "2"], [("a", "1", "2"), ("b", "2", "1")],
                     [("a", "b"), ("b", "a")])


@pytest.fixture(scope="session")
def cyc2e() -> AlmostGentlePair:
    return make_pair(["1", "2", "3"],
                     [("a", "1", "2"), ("b", "2", "1"), ("e", "1", "3")],
                     [("a", "b"), ("b", "a"), ("b", "e")])


@pytest.fixture(scope="session")
def gate() -> AlmostGentlePair:
    return make_pair(["1", "2", "3", "4"],
                     [("a", "1", "2"), ("b", "2", "3"), ("c", "2", "4")],
                     [("a", "c")])


@pytest.fixture(scope="session")
def loop_rel() -> AlmostGentlePair:
    return make_pair(["1"], [("x", "1", "1")], [("x", "x")])


# No relation on the loop: a nonzero cycle, so the pair does not validate.
@pytest.fixture(scope="session")
def loop_norel() -> AlmostGentlePair:
    return make_pair(["1"], [("x", "1", "1")], [])


# A 2-cycle with a pendant continuation: the vertex x on the cycle is not
# invalid, yet every dimension stays finite.
@pytest.fixture(scope="session")
def pendant_cycle() -> AlmostGentlePair:
    return make_pair(["x", "y", "w", "z"],
                     [("a", "x", "y"), ("b", "y", "x"), ("bt", "x", "w"), ("g", "w", "z")],
                     [("a", "b"), ("b", "a"), ("bt", "g")])


# A matched cycle entry: proj.dim E(x) is finite although forbidden paths
# from x are infinite; the infinite dimension lives at E(u) and E(w).
@pytest.fixture(scope="session")
def matched_entry() -> AlmostGentlePair:
    return make_pair(["x", "y", "u", "w"],
                     [("a0", "x", "y"), ("a1", "y", "x"), ("ap", "u", "x"), ("bt", "x", "w")],
                     [("a0", "a1"), ("a1", "a0"), ("a1", "bt"), ("ap", "bt")])


# Infinite self-injective dimension with a finite-pdim injective envelope.
@pytest.fixture(scope="session")
def finite_envelope() -> AlmostGentlePair:
    return make_pair(["x", "y", "u", "w", "w2"],
                     [("a0", "x", "y"), ("a1", "y", "x"), ("al", "u", "x"),
                      ("b", "x", "w"), ("b2", "x", "w2")],
                     [("a0", "a1"), ("a1", "a0"), ("al", "a0"), ("a1", "b"), ("al", "b2")])
