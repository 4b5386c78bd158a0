"""Tests of the benchmark itself: inputs, checks, tracer and metric names.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from agq import AgreementReport, forbidden_cycles, global_dimension  # noqa: E402
from agq.agqfile import parse_agq  # noqa: E402
from agq.emitters import emit_json, report_json  # noqa: E402
from agq.oracle import Mismatch  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _pair(text):
    doc = parse_agq(text)
    return doc, doc.pair()


def _output(text):
    doc, pair = _pair(text)
    return pair, emit_json(report_json(pair, doc.name))


FIG1 = (BENCH / "fixtures" / "fig1.agq").read_text(encoding="utf-8")
CYC2 = (BENCH / "fixtures" / "cyc2.agq").read_text(encoding="utf-8")


# -- inputs --------------------------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda seed: inputs.cyclic_items(seed, 3),
    lambda seed: inputs.acyclic_items(seed, 3),
])
def test_builders_are_deterministic_in_the_seed(build):
    assert build(5) == build(5)
    assert [it.text for it in build(5)] != [it.text for it in build(6)]


def test_round_order_is_deterministic_in_the_seed():
    w = WORKLOADS["cli_fixtures"]
    items = inputs.fixture_items()
    assert run.round_order(w, items, 5, 0) == run.round_order(w, items, 5, 0)
    assert run.round_order(w, items, 5, 0) != run.round_order(w, items, 6, 0)
    assert run.round_order(w, items, 5, 0) != run.round_order(w, items, 5, 1)
    assert sorted(run.round_order(w, items, 5, 0), key=items.index) == items


def test_fixture_items_cover_every_fixture_and_command():
    items = inputs.fixture_items()
    assert len(items) == 9 * len(inputs.CLI_COMMANDS)
    golden = json.loads((BENCH / "golden_cli.json").read_text(encoding="utf-8"))
    assert sorted(it.key for it in items) == sorted(golden)
    assert all(golden[f"loop_norel.agq {cmd}"]["exit"] == 1 for cmd in inputs.CLI_COMMANDS)


def test_cyclic_items_have_the_fixed_size():
    for item in inputs.cyclic_items(3, 4):
        assert abs(item.vertices - inputs.CYCLIC_VERTICES) <= 3
        assert abs(item.arrows - 2 * inputs.CYCLIC_VERTICES) <= 6


def test_oracle_items_are_the_criterion_6_corpus_without_the_heaviest_seeds():
    items = inputs.oracle_items(200)
    assert len(items) == 200
    skipped = set(range(1, 208)) - {int(it.key.split("-g")[1]) for it in items}
    assert skipped == {19, 104, 127, 139, 162, 196, 200}
    assert max(it.arrows for it in items if it.vertices == 1) == inputs.ORACLE_MAX_LOOPS


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("n_arrows", [3, 17, 80])
def test_acyclic_builder_validates_and_has_no_forbidden_cycle(seed, n_arrows):
    _doc, pair = _pair(inputs.acyclic_text(random.Random(seed), n_arrows, "t"))
    assert pair.validated
    assert forbidden_cycles(pair) == ([], False)
    assert global_dimension(pair).value.is_finite


def test_size_counts_match_the_package():
    text = inputs.acyclic_text(random.Random(1), 40, "t")
    _doc, pair = _pair(text)
    assert inputs.agq_size(text) == (len(pair.quiver.vertices), len(pair.quiver.arrows),
                                     len(pair.relations))


# -- checks --------------------------------------------------------------------

def test_closed_check_accepts_correct_outputs():
    for text in (FIG1, CYC2, inputs.acyclic_text(random.Random(4), 60, "t")):
        pair, out = _output(text)
        assert checks.closed_problems(pair, out) == []


def _planted(text, edit):
    pair, out = _output(text)
    report = json.loads(out)
    edit(report)
    return checks.closed_problems(pair, emit_json(report))


def test_closed_check_catches_a_wrong_value():
    def bump(r):
        r["global_dimension"]["value"] += 1
    assert _planted(FIG1, bump)


def test_closed_check_catches_a_broken_witness():
    def swap(r):
        w = r["global_dimension"]["witness"]
        w[0], w[-1] = w[-1], w[0]
    assert _planted(FIG1, swap)


def test_closed_check_catches_a_short_but_valid_answer():
    # A witness prefix is still a forbidden path; only the library and the
    # opposite algebra show that the stated value is too small.
    def shorten(r):
        r["global_dimension"]["value"] -= 1
        r["global_dimension"]["witness"].pop()
    problems = _planted(FIG1, shorten)
    assert any("opposite" in p for p in problems)


def test_closed_check_catches_a_wrong_per_vertex_value():
    def flip(r):
        entry = next(iter(r["per_vertex"].values()))["pdim_simple"]
        entry["finite"], entry["value"] = True, 99
    assert _planted(FIG1, flip)


def test_closed_check_catches_an_infinite_value_without_a_lasso():
    def drop_cycle(r):
        assert not r["global_dimension"]["finite"]
        del r["global_dimension"]["cycle"]
    assert _planted(CYC2, drop_cycle)


def test_cli_check_catches_wrong_stdout_and_exit_code():
    expected = {"exit": 1, "stdout": ""}
    assert checks.cli_problems(expected, 1, "") == []
    assert checks.cli_problems(expected, 0, "")
    assert checks.cli_problems(expected, 1, "4\n")


def test_oracle_check_catches_a_mismatch():
    assert checks.oracle_problems(AgreementReport((), 5)) == []
    bad = AgreementReport((Mismatch("v1", "pdim_simple", "1", "2"),), 5)
    assert checks.oracle_problems(bad)


# -- tracer --------------------------------------------------------------------

def _namespaces():
    return {m.__name__: dict(vars(m)) for m in tracer.agq_modules()}


def test_tracer_wraps_both_bindings_and_restores_every_function():
    import agq.emitters
    import agq.homdim

    before = _namespaces()
    original = agq.homdim.pdim_injective
    with tracer.Tracer() as t:
        assert agq.homdim.pdim_injective is not original
        assert agq.emitters.pdim_injective is not original
        _doc, pair = _pair(FIG1)
        t.run_op(0, agq.emitters.report_json, pair)
    after = _namespaces()
    assert before.keys() == after.keys()
    for name, space in before.items():
        assert all(after[name][k] is v for k, v in space.items()), name
    totals = t.layer_totals()
    assert totals["emitters.report_json"][0] == 1
    assert totals["homdim.pdim_injective"][0] >= 2 * len(pair.quiver.vertices)


def test_self_times_add_up_to_the_op_time():
    import agq.emitters

    with tracer.Tracer() as t:
        for op_id in range(2):
            t.run_op(op_id, lambda: agq.emitters.emit_json(
                agq.emitters.report_json(_pair(CYC2)[1])))
    op_time = sum(t.end[i] - t.start[i] for i in range(len(t.start)) if t.parent[i] < 0)
    self_sum = sum(s for _c, s in t.layer_totals().values())
    assert self_sum == pytest.approx(op_time, rel=1e-6)
    assert t.layer_totals()["op"][0] == 2


# -- metric names --------------------------------------------------------------

def _spec(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_end_to_end_names_match_the_spec():
    tally = run.Tally()
    tally.times = [0.001 * (i + 1) for i in range(200)]
    tally.work = 10.0
    for w in WORKLOADS.values():
        metrics = run.end_to_end(w, tally, [0.1, 0.2, 0.3], 1.0)
        assert {k: u for k, (_v, u) in metrics.items()} == _spec("end_to_end")


def test_per_layer_names_match_the_spec(tmp_path):
    w = dataclasses.replace(WORKLOADS["cli_fixtures"], trace_ops=4)
    metrics, plain, traced, _spans = run.traced_run(w, inputs.fixture_items(), 1,
                                                    tmp_path / "spans.csv.gz")
    assert {k: u for k, (_v, u) in metrics.items()} == _spec("per_layer")
    assert plain.failed == traced.failed == 0
    assert (tmp_path / "spans.csv.gz").stat().st_size > 0


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "closed_cyclic",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
