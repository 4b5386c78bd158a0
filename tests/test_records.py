"""The package's records are plain classes.  Each shows, compares and hashes
itself by its fields, the read-only ones refuse assignment, the mutable ones
refuse hashing, and the constructors check their input."""

import copy
import pickle

import pytest

from agq.agqfile import AgqDocument, load_pair
from agq.forbidden import ForbiddenWalk, LengthOrInf
from agq.generator import GeneratorParams
from agq.homdim import DimReport, GorensteinReport, pdim_simple
from agq.oracle import AgreementReport, CoverKernel, Mismatch, PdimResult, RepMorphism, Representation
from agq.quiver import (AgqError, AlmostGentlePair, Arrow, InvalidStringError, Quiver, ValidationReport, Violation,
                        vertex_type)
from agq.strings import DirectedString
from agq.syzygy import Psi0Descriptor, Resolution, ResolutionLevel, Summand, SyzygyDecomposition
from conftest import FIXTURES

ARROW = Arrow("a", "1", "2")
REPORT = ValidationReport(True, (), ())
SYZYGY = SyzygyDecomposition(((Summand("simple", "2"), 2),))
LEVEL = ResolutionLevel((("1", 1),), SYZYGY)
DIM = DimReport(LengthOrInf(1), ForbiddenWalk(("a",)), "simple", "1")
REP = Representation({0: 1}, {0: [{}]})
MISMATCH = Mismatch("1", "pdim_simple", "1", "2")
MUTABLE = {AgqDocument, Representation, CoverKernel, RepMorphism}


def fig1_pdim_simple():
    """pd S(1) on fig1, read off the pair's length table: its witness is built when first read."""
    return pdim_simple(load_pair(str(FIXTURES / "fig1.agq"))[1], "1")


# (class, positional and keyword arguments or a function building the record, a field, the repr)
RECORDS = [
    (Arrow, ("a", "1", "2"), {}, "name", "Arrow(name='a', source='1', target='2')"),
    (Quiver, (("1", "2"), (ARROW,)), {}, "arrows",
     "Quiver(vertices=('1', '2'), arrows=(Arrow(name='a', source='1', target='2'),))"),
    (Violation, ("NonzeroCycle", ("a",), "nonzero cycle a"), {}, "kind",
     "Violation(kind='NonzeroCycle', location=('a',), message='nonzero cycle a')"),
    (ValidationReport, (True, (), ()), {}, "valid",
     "ValidationReport(valid=True, violations=(), warnings=())"),
    (AlmostGentlePair, (Quiver(("1", "2"), (ARROW,)), frozenset(), REPORT), {}, "report",
     "AlmostGentlePair(quiver=Quiver(vertices=('1', '2'), arrows=(Arrow(name='a', source='1', target='2'),)), "
     "relations=frozenset(), report=ValidationReport(valid=True, violations=(), warnings=()))"),
    (DirectedString, ((), "1"), {}, "vertex", "DirectedString(arrows=(), vertex='1')"),
    (LengthOrInf, (None,), {}, "value", "LengthOrInf(value=None)"),
    (ForbiddenWalk, (("a",), ("b", "c")), {}, "cycle", "ForbiddenWalk(stem=('a',), cycle=('b', 'c'))"),
    (Summand, ("string", None, ("a",)), {}, "kind", "Summand(kind='string', vertex=None, arrows=('a',))"),
    (SyzygyDecomposition, (((Summand("simple", "2"), 2),),), {}, "items",
     "SyzygyDecomposition(items=((Summand(kind='simple', vertex='2', arrows=()), 2),))"),
    (Psi0Descriptor, ("1", 2, 1, 1, ((DirectedString(("a",)), True),)), {}, "t",
     "Psi0Descriptor(apex='1', c=2, d=1, t=1, tails=((DirectedString(arrows=('a',), vertex=None), True),))"),
    (ResolutionLevel, ((("1", 1),), SYZYGY), {}, "cover",
     "ResolutionLevel(cover=(('1', 1),), syzygy=SyzygyDecomposition(items=((Summand(kind='simple', vertex='2', "
     "arrows=()), 2),)))"),
    (Resolution, ((LEVEL,), "cutoff"), {}, "terminated",
     "Resolution(levels=(ResolutionLevel(cover=(('1', 1),), syzygy=SyzygyDecomposition(items=((Summand("
     "kind='simple', vertex='2', arrows=()), 2),))),), terminated='cutoff')"),
    (GorensteinReport, (DIM, DIM, True, False, LengthOrInf(0), "note"), {}, "gorenstein",
     "GorensteinReport(gldim=DimReport(value=LengthOrInf(value=1), witness=ForbiddenWalk(stem=('a',), cycle=()), "
     "method='simple', attained_at='1'), injdim=DimReport(value=LengthOrInf(value=1), witness=ForbiddenWalk("
     "stem=('a',), cycle=()), method='simple', attained_at='1'), gorenstein=True, cycle_criterion=False, "
     "envelope_pdim=LengthOrInf(value=0), auslander_note='note')"),
    (DimReport, (LengthOrInf(1), ForbiddenWalk(("a",)), "simple", "1"), {}, "method",
     "DimReport(value=LengthOrInf(value=1), witness=ForbiddenWalk(stem=('a',), cycle=()), method='simple', "
     "attained_at='1')"),
    (DimReport, fig1_pdim_simple, {}, "witness",
     "DimReport(value=LengthOrInf(value=4), witness=ForbiddenWalk(stem=('a_1_2', 'a_2_3', 'a_3_4', 'a_4_5'), "
     "cycle=()), method='forbidden-from-vertex', attained_at=None)"),
    (Representation, ({0: 1}, {0: [{}]}), {}, "dims", "Representation(dims={0: 1}, maps={0: [{}]})"),
    (CoverKernel, ((("1", 1),), REP), {}, "kernel",
     "CoverKernel(cover=(('1', 1),), kernel=Representation(dims={0: 1}, maps={0: [{}]}))"),
    (RepMorphism, ({0: [{0: 1}], 1: []},), {}, "blocks", "RepMorphism(blocks={0: [{0: 1}], 1: []})"),
    (PdimResult, (False, 40), {}, "value", "PdimResult(finite=False, value=40)"),
    (Mismatch, ("1", "pdim_simple", "1", "2"), {}, "oracle",
     "Mismatch(vertex='1', quantity='pdim_simple', formula='1', oracle='2')"),
    (AgreementReport, ((MISMATCH,), 5), {}, "checked",
     "AgreementReport(mismatches=(Mismatch(vertex='1', quantity='pdim_simple', formula='1', oracle='2'),), "
     "checked=5)"),
    (AgqDocument, (), {"name": "a2"}, "name", "AgqDocument(name='a2', vertices=[], arrows=[], relations=[], line_of={})"),
    (GeneratorParams, (), {"seed": 3, "max_arrows": 5, "relation_density": 0.25}, "seed",
     "GeneratorParams(seed=3, max_vertices=8, max_arrows=5, loop_allowed=True, relation_density=0.25)"),
]


@pytest.mark.parametrize("cls, args, kwargs, field, shown", RECORDS,
                         ids=[r[0].__name__ + ("-read-off" if callable(r[1]) else "") for r in RECORDS])
def test_records_show_compare_and_hash_by_their_fields(cls, args, kwargs, field, shown):
    build = args if callable(args) else lambda: cls(*args, **kwargs)
    record = build()
    assert repr(record) == shown
    assert record == build()
    assert copy.deepcopy(build()) == record == pickle.loads(pickle.dumps(build()))  # copied before any read
    other = type("Other", (cls,), {})(*(getattr(record, name) for name in cls._fields))  # the same values
    assert record != other and other != record
    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(record)
        setattr(record, field, getattr(other, field))
    else:
        assert hash(record) == hash(build())
        with pytest.raises(AttributeError) as raised:
            setattr(record, field, getattr(other, field))
        assert raised.type is AttributeError
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert repr(record) == shown


@pytest.mark.parametrize("build, error, message", [
    (lambda: DirectedString(()), InvalidStringError, "needs an anchor vertex"),
    (lambda: GeneratorParams(seed=1, max_vertices=0), ValueError, "bounds must be positive"),
    (lambda: GeneratorParams(1, relation_density=1.5), ValueError, r"must lie in \[0, 1\]"),
    (lambda: Quiver(("1", "2", "1"), ()), AgqError, "duplicate vertex '1'"),
    (lambda: Quiver(("1",), (Arrow("a", "1", "1"), Arrow("a", "1", "1"))), AgqError, "duplicate arrow 'a'"),
    (lambda: Violation("NonzeroCycle", ("a",)), TypeError, "Violation takes 3 field values, got 2"),
    (lambda: Representation({0: 1}), TypeError, "missing 1 required positional argument: 'maps'"),
    (lambda: SyzygyDecomposition(), TypeError, "SyzygyDecomposition takes 1 field values, got 0"),
    (lambda: SyzygyDecomposition((), ()), TypeError, "SyzygyDecomposition takes 1 field values, got 2"),
    (lambda: ResolutionLevel((("1", 1),), SYZYGY, "cutoff"), TypeError,
     "ResolutionLevel takes 2 field values, got 3"),
], ids=["empty-string", "no-vertices", "density", "vertex-twice", "arrow-twice", "field-count",
        "representation-count", "syzygy-count", "syzygy-extra", "level-count"])
def test_records_reject_bad_input(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_the_generic_constructor_takes_fields_by_position_or_name():
    assert LengthOrInf(value=None) == LengthOrInf(None)
    assert ResolutionLevel((("1", 1),), syzygy=SYZYGY) == ResolutionLevel(cover=(("1", 1),), syzygy=SYZYGY) == LEVEL
    for build in (lambda: LengthOrInf(1, value=1), lambda: PdimResult(True, valu=1)):
        with pytest.raises(TypeError, match="unexpected or repeated fields"):
            build()
    with pytest.raises(TypeError, match="ResolutionLevel takes 2 field values, got 1"):
        ResolutionLevel(syzygy=SYZYGY)


@pytest.mark.parametrize("ask", [
    lambda pair: pair.out_arrows("1"),
    lambda pair: pair.in_arrows("2"),
    lambda pair: vertex_type(pair, "1"),
    lambda pair: pdim_simple(pair, "1"),
], ids=["out_arrows", "in_arrows", "vertex_type", "pdim_simple"])
def test_a_report_built_by_hand_has_no_tables_to_read(ask):
    pair = AlmostGentlePair(Quiver(("1", "2"), (ARROW,)), frozenset(), REPORT)
    with pytest.raises(AgqError, match="AlmostGentlePair.build"):
        ask(pair)


def test_a_document_starts_with_lists_of_its_own():
    doc = AgqDocument()
    doc.vertices.append("1")
    assert AgqDocument().vertices == []
