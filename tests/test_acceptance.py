"""Acceptance suite: one pass/fail line per criterion.

Criterion 7 has two legs.  The first asserts that the forbidden-cycle (A)/(B)
test holds exactly when the self-injective dimension is infinite.  The second
concerns the predicate "a forbidden cycle carries a vertex that is not
invalid", which is not equivalent to infinite self-injective dimension: it
records the corpus seeds where the predicate and the closed form disagree,
split by direction, and on each such seed the exact-rational oracle confirms
the closed form.  The fixtures pendant_cycle and cyc2e refute the equivalence
in both directions, again confirmed by the oracle.
"""

import json
import subprocess
import sys
import time

import pytest

from conftest import FIXTURES, lemma
from agq.forbidden import INF, LengthOrInf, digraph_data
from agq.generator import GeneratorParams, random_ag_pair
from agq.homdim import (
    global_dimension,
    gorenstein_report,
    noninvalid_cycle_vertex,
    pdim_injective,
    pdim_injective_envelope,
    pdim_simple,
    self_injective_dimension,
    self_injective_infinite_by_cycle,
)
from agq.oracle import PdimResult, check_against_formulas, oracle_pdim, projective_cover_kernel, rep_of
from agq.quiver import opposite
from agq.strings import DirectedString
from agq.syzygy import is_invalid_vertex, resolve_symbolic

AGQ = [sys.executable, "-m", "agq.cli"]
FIG1 = str(FIXTURES / "fig1.agq")
ORACLE_CUTOFF = 40


def run_cli(*args):
    return subprocess.run(AGQ + [str(a) for a in args], capture_output=True, text=True)


def crit(number: int, description: str, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] criterion {number}: {description}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {number}: {description} {detail}"


def oracle_injectives(pair) -> dict[str, PdimResult]:
    return {v: oracle_pdim(pair, rep_of(pair, "injective", v), ORACLE_CUTOFF)
            for v in pair.quiver.vertices}


def oracle_injdim(pair) -> LengthOrInf:
    """The self-injective dimension as the oracle sees it: sup of pdim E(v)."""
    results = oracle_injectives(pair).values()
    if all(r.finite for r in results):
        return LengthOrInf.finite(max(r.value for r in results))
    return INF


@pytest.fixture(scope="module")
def corpus():
    return [random_ag_pair(GeneratorParams(seed=seed))[0] for seed in range(1, 201)]


def test_criterion_1_fig1_gldim_cli():
    t0 = time.time()
    out = run_cli("gldim", FIG1, "--witness")
    elapsed = time.time() - t0
    lines = out.stdout.splitlines()
    witness_ok = lines[1] in ("witness: a_1_2 a_2_3 a_3_4 a_4_5",
                              "witness: a_1_2 a_2_3' a_3'_4 a_4_5")
    crit(1, "fig1 global dimension 4 with a maximal forbidden-path witness",
         out.returncode == 0 and lines[0] == "4" and witness_ok and elapsed < 1.0,
         f"{elapsed:.2f}s")


def test_criterion_2_fig1_simple_pdims(fig1):
    crit(2, "fig1 pdim S(1) = 4 and pdim S(5) = 0",
         pdim_simple(fig1, "1").value == LengthOrInf.finite(4)
         and pdim_simple(fig1, "5").value == LengthOrInf.finite(0))


def test_criterion_3_fig1_socle_block_classification(fig1):
    ok = (is_invalid_vertex(fig1, "2") == (True, 5)
          and is_invalid_vertex(fig1, "2R") == (True, 1)
          and is_invalid_vertex(fig1, "5") == (True, 2)
          and is_invalid_vertex(fig1, "4") == (False, None))
    crit(3, "fig1 socle-block projectivity and invalid-vertex conditions", ok)


def test_criterion_4_fig1_omega1_injective_4(fig1):
    symbolic = {(s.kind, s.vertex, s.arrows) for s in lemma(fig1, "leftovers", "4")}
    block = {(s.kind, s.vertex, s.arrows) for s, _n in lemma(fig1, "block", "4").items}
    expected = {("simple", "3", ()), ("simple", "3'", ()),
                ("simple", "4", ()), ("string", None, ("a_4_5",))}
    kernel = projective_cover_kernel(fig1, rep_of(fig1, "injective", "4")).kernel
    crit(4, "fig1 Omega1(E(4)) decomposition and kernel dims",
         symbolic | block == expected
         and kernel.dim_vector(fig1) == {"3": 1, "3'": 1, "4": 2, "5": 1})


def test_criterion_5_fig1_resolution_of_string(fig1):
    res = resolve_symbolic(fig1, "string", DirectedString(("a_1_2",)))
    crit(5, "fig1 resolution of M(a_1_2): length 2 with P2 = P(3L) + P(3R)",
         res.terminated == "projective" and res.length == 2
         and dict(res.levels[2].cover) == {"3L": 1, "3R": 1}
         and not res.levels[2].syzygy)


def test_criterion_6_oracle_equivalence(corpus):
    t0 = time.time()
    mismatches = []
    for seed, pair in enumerate(corpus, start=1):
        report = check_against_formulas(pair, cutoff=40)
        if not report.ok:
            mismatches.append((seed, report.mismatches[:2]))
    elapsed = time.time() - t0
    crit(6, "200-seed corpus: formulas agree with the oracle at cutoff 40",
         not mismatches and elapsed < 60.0,
         f"{elapsed:.1f}s, {len(mismatches)} mismatching seeds")


def test_criterion_7_cycle_criterion_equivalence(corpus):
    disagreements = []
    for seed, pair in enumerate(corpus, start=1):
        infinite = not self_injective_dimension(pair).value.is_finite
        if self_injective_infinite_by_cycle(pair)[0] != infinite:
            disagreements.append(seed)
    crit(7, "criterion equivalence: forbidden-cycle (A)/(B) test iff infinite "
            "self-injective dimension", not disagreements, f"{len(disagreements)} seeds")


def test_criterion_7_noninvalid_cycle_vertex_equivalence(corpus, pendant_cycle, cyc2e):
    # Seeds where the predicate, the (A)/(B) test and the closed form do not
    # all agree are checked against the oracle, which must confirm the closed form.
    true_finite, false_infinite, unconfirmed = [], [], []
    for seed, pair in enumerate(corpus, start=1):
        injdim = self_injective_dimension(pair).value
        hit, v = noninvalid_cycle_vertex(pair)
        by_cycle = self_injective_infinite_by_cycle(pair)[0]
        if hit == by_cycle == (not injdim.is_finite):
            continue
        if oracle_injdim(pair) != injdim or by_cycle == injdim.is_finite:
            unconfirmed.append(seed)
        if hit and injdim.is_finite:
            true_finite.append(seed)
            cyclic_sources = {a.source for a, on_cycle in zip(pair.quiver.arrows, digraph_data(pair).cyclic)
                              if on_cycle}
            if v not in cyclic_sources or is_invalid_vertex(pair, v)[0]:
                unconfirmed.append(seed)
        elif not hit and not injdim.is_finite:
            false_infinite.append(seed)
    pendant_pdims = {v: r.value for v, r in oracle_injectives(pendant_cycle).items() if r.finite}
    refuted = (noninvalid_cycle_vertex(pendant_cycle) == (True, "x")
               and pendant_pdims == {"x": 2, "y": 2, "w": 0, "z": 0}
               and self_injective_dimension(pendant_cycle).value == LengthOrInf.finite(2)
               and noninvalid_cycle_vertex(cyc2e) == (False, None)
               and oracle_injectives(cyc2e)["3"] == PdimResult(False, ORACLE_CUTOFF)
               and self_injective_dimension(cyc2e).value == INF)
    crit(7, "non-invalid vertex on a forbidden cycle vs infinite self-injective "
            "dimension: every disagreement confirmed by the oracle, both directions "
            "refuted by pendant_cycle and cyc2e",
         not unconfirmed and refuted,
         f"predicate true, injdim finite at seeds {true_finite}; predicate false, "
         f"injdim infinite at seeds {false_infinite}; unconfirmed seeds {unconfirmed}")


def test_criterion_8_left_right_symmetry(corpus):
    bad = []
    for seed, pair in enumerate(corpus, start=1):
        op = opposite(pair)
        if self_injective_dimension(op).value != self_injective_dimension(pair).value:
            bad.append(("injdim", seed))
        if global_dimension(op).value != global_dimension(pair).value:
            bad.append(("gldim", seed))
    crit(8, "left-right symmetry of gldim and injdim on the corpus",
         not bad, f"{len(bad)} disagreements")


def test_criterion_9_gorenstein_fixtures(cyc2, cyc2e):
    g2 = gorenstein_report(cyc2)
    g2e = gorenstein_report(cyc2e)
    oracle_injdims = [oracle_pdim(cyc2, rep_of(cyc2, "injective", v), 20)
                      for v in cyc2.quiver.vertices]
    ok = (g2.gldim.value == INF and g2.injdim.value == LengthOrInf.finite(0)
          and g2.gorenstein
          and all(r == PdimResult(True, 0) for r in oracle_injdims)
          and not g2e.gorenstein and g2e.injdim.value == INF
          and g2e.envelope_pdim == INF and g2e.cycle_criterion
          and "Auslander condition fails" in g2e.auslander_note
          and oracle_pdim(cyc2e, rep_of(cyc2e, "injective", "3"), 20) == PdimResult(False, 20))
    crit(9, "cyc2 (gldim infinite, injdim 0, Gorenstein) and cyc2e "
            "(injdim and envelope infinite, Auslander note)", ok)


def test_criterion_10_gate_regression(gate):
    rep = pdim_injective(gate, "3")
    e3 = rep_of(gate, "injective", "3")
    p1 = rep_of(gate, "projective", "1")
    crit(10, "gate: pdim E(3) = 0 with E(3) isomorphic to P(1)",
         rep.value == LengthOrInf.finite(0)
         and oracle_pdim(gate, e3, 10) == PdimResult(True, 0)
         and e3.dim_vector(gate) == p1.dim_vector(gate)
         and pdim_injective_envelope(gate).is_finite)


def test_criterion_11_determinism():
    commands = [("gldim", FIG1), ("injdim", FIG1), ("gorenstein", FIG1, "--json"),
                ("forbidden", FIG1), ("resolve", FIG1, "--string", "a_1_2"),
                ("dot", FIG1), ("random", "--seed", "1")]
    stable = all(run_cli(*args).stdout == run_cli(*args).stdout for args in commands)
    crit(11, "byte-identical stdout across repeated runs", stable)


def test_observation_gldim_vs_injdim(corpus):
    # tracked as a statistic only: finite global dimension bounds the
    # self-injective dimension but need not equal it
    equal = strict = 0
    for pair in corpus:
        gl = global_dimension(pair).value
        if not gl.is_finite:
            continue
        inj = self_injective_dimension(pair).value
        if inj == gl:
            equal += 1
        else:
            strict += 1
    print(f"[OBSERVATION] finite gldim instances: injdim == gldim in {equal}, "
          f"injdim < gldim in {strict}")
