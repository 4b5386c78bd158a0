import enum
import gc
import json
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agq.agqfile import document_of, parse_agq
from agq.emitters import _per_vertex_json, emit_dot, emit_json, report_json
from agq.generator import GeneratorParams, random_ag_pair
from agq.quiver import AlmostGentlePair, Arrow, Quiver
from agq.strings import (DirectedString, anticlaw_of, claw_of, left_maximal_extension, right_maximal_extension,
                         socle_supports)
from agq.syzygy import psi0_descriptor, resolve_symbolic
from conftest import FIXTURES, make_pair

_TEXT = st.text(st.sampled_from('ab"\\/\n\t\x00\x1f\x7fé€\U0001f600 '), max_size=8)
_SCALARS = (_TEXT | st.booleans() | st.none()
            | st.integers() | st.sampled_from([0, -1, 2**63, -(2**63) - 1, 10**30]))
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_TEXT, _VALUES, max_size=5) | _VALUES)
def test_emit_json_matches_the_stdlib_encoder(value):
    assert emit_json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [1.5, (1, 2), {1: "a"}, {"a": [{2: None}]}, {"a": {1, 2}}])
def test_emit_json_rejects_what_a_report_never_holds(value):
    with pytest.raises(TypeError):
        emit_json(value)


class _Level(enum.IntEnum):
    TWO = 2


_LEAVES = (st.none() | st.integers(0, 40) | st.sampled_from([2**63, 10**30])).map(
    lambda n: {"finite": n is not None, "value": n})
_ROWS = st.fixed_dictionaries({
    "gentle": st.booleans(), "invalid": st.booleans(), "pdim_injective": _LEAVES, "pdim_simple": _LEAVES})


def _in_row(change):
    return lambda table, key: {**table, key: change(table[key])}


def _in_leaf(leaf_key, change):
    return _in_row(lambda row: {**row, leaf_key: change(row[leaf_key])})


def _without(key):
    return lambda mapping: {k: v for k, v in mapping.items() if k != key}


# one change to one row of a report table (or to the table), and whether
# emit_json then raises TypeError, as on a float or a non-str key, rather
# than match json.dumps
_PERTURBATIONS = {
    "row extra key": (_in_row(lambda row: {**row, "extra": 1}), False),
    "row non-str key": (_in_row(lambda row: {**row, 3: None}), True),
    "row None": (_in_row(lambda row: None), False),
    "row str": (_in_row(lambda row: "row"), False),
    "row list": (_in_row(list), False),
    "row empty dict": (_in_row(lambda row: {}), False),
    "table non-str key": (lambda table, key: {**_without(key)(table), 7: table[key]}, True),
    "empty table": (lambda table, key: {}, False),
}
for _key in ("gentle", "invalid", "pdim_injective", "pdim_simple"):
    _PERTURBATIONS[f"no {_key}"] = (_in_row(_without(_key)), False)
for _key in ("gentle", "invalid"):
    _PERTURBATIONS[f"int {_key}"] = (_in_row(lambda row, k=_key: {**row, k: int(row[k])}), False)
for _key in ("pdim_injective", "pdim_simple"):
    _PERTURBATIONS.update({
        f"{_key} extra key": (_in_leaf(_key, lambda leaf: {**leaf, "extra": None}), False),
        f"{_key} non-str key": (_in_leaf(_key, lambda leaf: {**leaf, 3: None}), True),
        f"{_key} no value": (_in_leaf(_key, _without("value")), False),
        f"{_key} int finite": (_in_leaf(_key, lambda leaf: {**leaf, "finite": int(leaf["finite"])}), False),
        f"{_key} value True": (_in_leaf(_key, lambda leaf: {**leaf, "value": True}), False),
        f"{_key} IntEnum value": (_in_leaf(_key, lambda leaf: {**leaf, "value": _Level.TWO}), False),
        f"{_key} float value": (_in_leaf(_key, lambda leaf: {**leaf, "value": 1.5}), True),
        f"{_key} list": (_in_leaf(_key, lambda leaf: [leaf["finite"], leaf["value"]]), False),
    })
_AT_DEPTHS = st.sampled_from([
    lambda table: table,
    lambda table: {"algebra": "x", "per_vertex": table, "valid": True},
    lambda table: {"a": [{"per_vertex": table}, table]},
])
_TABLES = st.dictionaries(_TEXT, _ROWS, min_size=1, max_size=6)


def _emits_as_the_stdlib_encoder(value):
    return emit_json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


@settings(max_examples=100, deadline=None)
@given(_TABLES, _AT_DEPTHS)
def test_report_tables_are_written_by_rows(table, at_depth):
    assert _per_vertex_json(table, "\n") is not None
    assert _emits_as_the_stdlib_encoder(at_depth(table))


@pytest.mark.parametrize("perturb, raises", _PERTURBATIONS.values(), ids=list(_PERTURBATIONS))
@settings(max_examples=15, deadline=None)
@given(table=_TABLES, at_depth=_AT_DEPTHS, data=st.data())
def test_perturbed_report_tables_are_written_as_the_stdlib_encoder_writes_them(
        perturb, raises, table, at_depth, data):
    table = perturb(table, data.draw(st.sampled_from(sorted(table))))
    assert table == {} or _per_vertex_json(table, "\n") is None
    if raises:
        with pytest.raises(TypeError):
            emit_json(at_depth(table))
    else:
        assert _emits_as_the_stdlib_encoder(at_depth(table))


def _reports():
    for path in sorted(FIXTURES.glob("*.agq")):
        doc = parse_agq(path.read_text(encoding="utf-8"))
        pair = doc.pair()
        if pair.validated:  # loop_norel is the one invalid fixture
            yield report_json(pair, doc.name)
    for seed in range(1, 201):
        yield report_json(random_ag_pair(GeneratorParams(seed=seed))[0], f"random_{seed}")


def test_every_report_writes_its_per_vertex_table_by_rows():
    # a change to report_json's rows that the row writer does not follow
    # would silently fall back to the generic writer
    count = 0
    for report in _reports():
        assert _per_vertex_json(report["per_vertex"], "\n  ") is not None
        assert _emits_as_the_stdlib_encoder(report)
        count += 1
    assert count == 208


def test_report_on_a_long_chain_takes_bounded_work():
    # A_n without relations is one chain of n arrows: a walk per arrow, or a
    # string per arrow, makes this quadratic
    n = 10_000
    lines = [f"arrow a{k} : v{k} -> v{k + 1}" for k in range(n)]
    text = "\n".join(lines) + "\n"
    start = time.perf_counter()
    out = emit_json(report_json(parse_agq(text).pair()))
    elapsed = time.perf_counter() - start
    report = json.loads(out)
    assert report["global_dimension"]["value"] == 1
    assert report["self_injective_dimension"]["value"] == 1
    assert elapsed < 2.0, elapsed


def test_string_queries_on_a_long_chain_take_bounded_work():
    # every claw, anti-claw, descriptor, extension and socle support reads the
    # one chain of A_n: a table of a string per arrow, or a walk to the
    # chain's end per out-arrow, makes this quadratic
    n = 10_000
    lines = [f"arrow a{k} : v{k} -> v{k + 1}" for k in range(n)]
    pair = parse_agq("\n".join(lines) + "\n").pair()
    last = f"v{n}"
    start = time.perf_counter()
    assert len(claw_of(pair, "v0")[0]) == n
    assert len(anticlaw_of(pair, last)[0]) == n
    assert len(psi0_descriptor(pair, "v1").tails[0][0]) == n - 1
    assert len(right_maximal_extension(pair, DirectedString(("a0",)))) == n
    assert len(left_maximal_extension(pair, DirectedString((f"a{n - 1}",)))) == n
    assert socle_supports(pair) == [last] * (n + 1)
    assert report_json(pair)["global_dimension"]["value"] == 1
    assert resolve_symbolic(pair, "injective", last).length == 0
    assert resolve_symbolic(pair, "simple", "v0").length == 1
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, elapsed


def test_relations_on_an_unknown_arrow_are_written_after_the_known_ones():
    # such a pair does not validate, but it still prints and converts
    quiver = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
    pair = AlmostGentlePair.build(quiver, frozenset({("a", "zz")}))
    assert document_of(pair).relations == [("a", "zz")]
    assert '  "mid_a" -> "mid_zz" [style=dashed, constraint=false, label="a.zz"];' in emit_dot(pair)
    pair = AlmostGentlePair.build(quiver, frozenset({("zz", "a"), ("a", "zz"), ("a", "a")}))
    assert document_of(pair).relations == [("a", "a"), ("a", "zz"), ("zz", "a")]
    dashed = [line.split(" [")[0] for line in emit_dot(pair).splitlines() if "dashed" in line]
    assert dashed == ['  "mid_a" -> "mid_a"', '  "mid_a" -> "mid_zz"', '  "mid_zz" -> "mid_a"']


def _every_relation(n, closed):
    """A_n, or the oriented n-cycle when closed, with every composition of
    consecutive arrows a relation."""
    m = n if closed else n + 1
    arrows = [(f"a{k}", f"v{k}", f"v{(k + 1) % m}") for k in range(n)]
    rels = [(f"a{k}", f"a{(k + 1) % n}") for k in range(n if closed else n - 1)]
    return lambda: make_pair([f"v{k}" for k in range(m)], arrows, rels)


@pytest.mark.parametrize("closed", [False, True], ids=["chain", "cycle"])
def test_report_on_every_relation_in_a_row_takes_linear_time_and_memory(closed):
    # one forbidden path, or one forbidden cycle, runs through all n arrows:
    # a witness kept per arrow makes time and memory quadratic
    n = 10_000
    make = _every_relation(n, closed)
    pair = make()
    start = time.process_time()  # CPU time: a busy machine does not stretch it
    out = emit_json(report_json(pair))
    elapsed = time.process_time() - start
    pair = make()
    gc.collect()
    tracemalloc.start()
    try:
        emit_json(report_json(pair))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    report = json.loads(out)
    gldim = report["global_dimension"]
    assert gldim["value"] == (None if closed else n)
    assert len(gldim["witness"]) == n
    assert len(gldim.get("cycle", ())) == (n if closed else 0)
    # every E(v) but the simple at A_n's source is projective
    assert report["self_injective_dimension"]["value"] == (0 if closed else n)
    assert elapsed < 1.0, elapsed
    assert peak < 100 * 2**20, peak
