"""Repository tooling: the benchmark's traced names, the package's imports
and exported names, which modules a command runs, that only the quiver
module reads a quiver's private attributes, that every public name and
defaulted parameter serves the package, that records declare only their
fields, hashes that pin the JSON report, the symbolic resolutions, the
string layer and the oracle's own answers, and that a pair is freed
without the cycle collector."""

import ast
import contextlib
import gc
import hashlib
import io
import importlib
import importlib.util
import itertools
import json
import os
import pathlib
import subprocess
import sys
import weakref

import pytest

from agq.agqfile import parse_agq
from agq.cli import main
from agq.emitters import emit_json, report_json
from agq.forbidden import (delta_forbidden_sup, forbidden_cycles, sup_forbidden_from_arrow,
                           sup_forbidden_from_vertex)
from agq.generator import GeneratorParams, random_ag_pair
from agq.homdim import (global_dimension, noninvalid_cycle_vertex, pdim_directed_string, pdim_injective,
                        pdim_simple, self_injective_dimension, self_injective_infinite_by_cycle)
from agq.oracle import check_against_formulas, oracle_pdim, projective_cover_kernel, rep_of
from agq.quiver import AlmostGentlePair, Arrow, Quiver
from agq.strings import (anticlaw_of, claw_of, left_maximal_extension,
                         module_dims, right_maximal_extension)
from agq.syzygy import psi0_descriptor, resolve_symbolic
from conftest import bench_acyclic_docs, bench_cyclic_pairs, lemma, make_pair, strings_of

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.FUNCTIONS
    for qual in tracer.FUNCTIONS:
        modname, fname = qual.split(".")
        module = importlib.import_module(f"agq.{modname}")
        assert callable(getattr(module, fname, None)), qual


def test_cli_import_loads_every_traced_module():
    # the tracer wraps functions it finds in sys.modules, so a module that
    # "import agq, agq.cli" leaves unloaded would be missing from a trace; a
    # deferred module counts, since it is registered there and the tracer's
    # getattr runs its body
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, agq, agq.cli; print(*sorted(sys.modules))"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout.split()
    needed = {"agq." + qual.split(".")[0] for qual in tracer.FUNCTIONS}
    assert needed - set(loaded) == set()


def test_cli_import_leaves_dataclasses_and_fractions_unloaded():
    # records are plain classes and linalg imports Fraction only to divide,
    # so starting the CLI loads neither dataclasses (nor inspect, which it
    # pulls in) nor fractions
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = "import sys; before = set(sys.modules); import agq, agq.cli; print(*sorted(set(sys.modules) - before))"
    added = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONPATH": str(src)}).stdout.split()
    assert "agq.cli" in added
    assert {"dataclasses", "inspect", "fractions"} & set(added) == set()


DEFERRED = ("agq.syzygy", "agq.oracle", "agq.linalg", "agq.generator")


def test_closed_form_commands_run_no_deferred_module_body():
    # gldim and gorenstein read only the closed form; check runs the oracle
    # and the symbolic resolutions.  A deferred module keeps its lazy type
    # until its body runs, and the type is read without touching an attribute.
    fig1 = str(FIXTURES / "fig1.agq")
    code = (
        "import contextlib, io, json, sys, types\n"
        "from agq.cli import main\n"
        f"deferred = {DEFERRED!r}\n"
        "def ran():\n"
        "    return [m for m in deferred if type(sys.modules[m]) is types.ModuleType]\n"
        "seen = []\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(['gldim', {fig1!r}, '--witness']), main(['gorenstein', {fig1!r}, '--json'])]\n"
        "    seen.append(ran())\n"
        f"    codes.append(main(['check', {fig1!r}]))\n"
        "    seen.append(ran())\n"
        "print(json.dumps([codes, seen]))\n")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)}).stdout
    codes, (closed_form, check) = json.loads(out)
    assert codes == [0, 0, 0]
    assert closed_form == []
    assert check == ["agq.syzygy", "agq.oracle", "agq.linalg"]


# Every name the package exported before its modules were deferred, by module.
PACKAGE_EXPORTS = {
    "quiver": ("AgqError", "AlmostGentlePair", "Arrow", "InvalidStringError", "NotValidatedError",
               "Quiver", "UnknownArrowError", "UnknownVertexError", "ValidationReport", "Violation",
               "nonzero_successor", "opposite", "validate_bound_quiver", "vertex_type"),
    "strings": ("DirectedString", "anticlaw_of", "claw_of", "left_maximal_extension", "module_dims",
                "right_maximal_extension", "socle_supports", "string_of"),
    "forbidden": ("ForbiddenWalk", "LengthOrInf", "delta_forbidden_sup", "forbidden_cycles",
                  "sup_forbidden_from_arrow", "sup_forbidden_from_vertex", "zero_length_forbidden"),
    "syzygy": ("Psi0Descriptor", "Resolution", "Summand", "SyzygyDecomposition", "is_invalid_vertex",
               "psi0_descriptor", "resolve_symbolic"),
    "homdim": ("DimReport", "GorensteinReport", "global_dimension", "gorenstein_report",
               "noninvalid_cycle_vertex", "pdim_directed_string", "pdim_injective",
               "pdim_injective_envelope", "pdim_simple", "self_injective_dimension",
               "self_injective_infinite_by_cycle"),
    "oracle": ("AgreementReport", "PdimResult", "RepMorphism", "Representation", "check_against_formulas",
               "check_relations", "cover_morphism", "oracle_pdim", "projective_cover_kernel", "rep_of"),
}


def test_package_names_resolve_to_their_modules_own_objects():
    import agq

    assert sum(map(len, PACKAGE_EXPORTS.values())) == 57
    for modname, names in PACKAGE_EXPORTS.items():
        module = importlib.import_module(f"agq.{modname}")
        for name in names:
            scope: dict = {}
            exec(f"from agq import {name}", scope)
            assert getattr(agq, name) is getattr(module, name), name
            assert scope[name] is getattr(module, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(agq, "no_such_name")


def test_package_imports_only_the_standard_library():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "agq"
    modules = sorted(src.glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:  # level > 0: relative
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_the_oracle_imports_the_code_it_checks_only_inside_the_comparisons():
    # agq.oracle runs on linalg, quiver and strings (of which only a directed
    # string and its input check); the closed form and the symbolic layer it
    # checks are imported where they are compared, and an import under
    # TYPE_CHECKING serves annotations only, so it never runs
    path = pathlib.Path(__file__).resolve().parents[1] / "src" / "agq" / "oracle.py"
    top, inside, from_strings = set(), set(), set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            continue
        where = getattr(node, "name", None)
        for imp in ast.walk(node):
            if isinstance(imp, ast.ImportFrom) and imp.level:
                names = [imp.module] if imp.module else [alias.name for alias in imp.names]
                if imp is node:
                    top.update(names)
                    if imp.module == "strings":
                        from_strings.update(alias.name for alias in imp.names)
                else:
                    inside.update((where, name) for name in names)
    assert top == {"linalg", "quiver", "strings"}
    assert from_strings == {"DirectedString", "_check_string"}
    checked = {(where, name) for where, name in inside if name in ("forbidden", "homdim", "syzygy")}
    assert checked and {where for where, _name in checked} <= {"check_against_formulas", "_compare_levels"}, checked


def test_only_the_quiver_module_reads_a_quivers_private_attributes():
    # other modules read a quiver through its public fields and index maps,
    # and adjacency through the validation report's tables
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "agq"
    reads = []
    for path in sorted(src.glob("*.py")):
        if path.name == "quiver.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
                owner = node.value
                if (isinstance(owner, ast.Name) and owner.id == "quiver"
                        or isinstance(owner, ast.Attribute) and owner.attr == "quiver"):
                    reads.append((path.name, node.lineno, node.attr))
    assert reads == []


# agq.oracle works on a module's support.  Only these entry points read a
# whole-quiver sequence beyond an index read or its length: they check every
# vertex, every relation or every arrow on purpose.
WHOLE_QUIVER_ALLOWED = {"check_against_formulas", "check_relations", "RepMorphism.commutes"}
WHOLE_QUIVER = {("quiver", "vertices"), ("quiver", "arrows"), ("report", "names"), ("pair", "relations")}


def _whole_quiver_reads(source):
    """(function, line) of each read of a whole-quiver sequence, or of a name
    bound to one, that is neither an index read nor a len(): a loop, a zip,
    a membership test, a copy.  Functions are the top-level ones and the
    methods, named Class.method; the allowed ones are skipped."""
    def whole(node):
        owner = getattr(node, "value", None)
        owner = getattr(owner, "id", None) or getattr(owner, "attr", None)
        return isinstance(node, ast.Attribute) and (owner, node.attr) in WHOLE_QUIVER

    functions = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            functions.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            functions += [(f"{node.name}.{fn.name}", fn) for fn in node.body if isinstance(fn, ast.FunctionDef)]
    found = []
    for name, fn in functions:
        if name in WHOLE_QUIVER_ALLOWED:
            continue
        parent = {child: node for node in ast.walk(fn) for child in ast.iter_child_nodes(node)}
        aliases = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                bound = (zip(target.elts, value.elts) if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                         else [(target, value)])
                aliases |= {t.id for t, v in bound if isinstance(t, ast.Name) and whole(v)}
        for node in ast.walk(fn):
            if not (whole(node) or isinstance(node, ast.Name) and node.id in aliases
                    and isinstance(node.ctx, ast.Load)):
                continue
            up = parent[node]
            if (isinstance(up, ast.Subscript) and up.value is node  # an index read
                    or isinstance(up, ast.Call) and getattr(up.func, "id", None) == "len"
                    or isinstance(up, ast.Assign)  # an alias, checked where it is read
                    or isinstance(up, ast.Tuple) and isinstance(parent[up], ast.Assign)):
                continue
            found.append((name, node.lineno))
    return found


def test_the_oracle_reads_no_whole_quiver_sequence_outside_its_entry_points():
    path = pathlib.Path(__file__).resolve().parents[1] / "src" / "agq" / "oracle.py"
    assert _whole_quiver_reads(path.read_text(encoding="utf-8")) == []


def test_the_whole_quiver_scan_sees_every_spelling():
    source = (
        "def direct(pair):\n    return [v for v in pair.quiver.vertices]\n"
        "def aliased(pair):\n    names, outs = pair.report.names, pair.report.outs\n    return dict.fromkeys(names)\n"
        "def member(pair, a, b):\n    return (a, b) in pair.relations\n"
        "class Rep:\n    def method(self, pair):\n        return list(zip(pair.quiver.arrows, self))\n"
        "def check_relations(pair):\n    return [r for r in pair.relations]\n"
        "def indexed(pair, i):\n    vertices = pair.quiver.vertices\n"
        "    return vertices[i], pair.report.names[i], len(pair.quiver.arrows)\n")
    assert [name for name, _line in _whole_quiver_reads(source)] == ["direct", "aliased", "member", "Rep.method"]


# Public names with no caller in the package, kept on purpose.
UNREFERENCED_ALLOWED = {
    "check_relations": "independent check that a representation kills every relation; ROADMAP item 8 "
                       "runs it in the cross-checks",
    "cover_morphism": "independent check that the minimal cover map commutes with the arrows; ROADMAP "
                      "item 8 runs it in the cross-checks",
    "noninvalid_cycle_vertex": "the predicate acceptance criterion 7 reads",
    "opposite": "the opposite algebra, which perfbench/checks.py imports for its symmetry check",
    "sup_forbidden_from_arrow": "the benchmark's tracer wraps it (perfbench/tracer.py)",
    "socle_supports": "the benchmark's tracer wraps it (perfbench/tracer.py)",
    "psi0_descriptor": "the benchmark's tracer wraps it (perfbench/tracer.py)",
    "right_maximal_extension": "public string operation the README documents",
    "left_maximal_extension": "public string operation the README documents",
}


def test_every_public_name_has_a_caller_in_the_package():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "agq"
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py")) if path.name != "__init__.py"}
    defined = {}  # name -> (module, first line, last line)
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[node.name] = (module, node.lineno, node.end_lineno)
    referenced = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            home = defined.get(name)
            if home and not (home[0] == module and home[1] <= getattr(node, "lineno", 0) <= home[2]):
                referenced.add(name)
    unreferenced = set(defined) - referenced
    assert unreferenced == set(UNREFERENCED_ALLOWED), sorted(unreferenced ^ set(UNREFERENCED_ALLOWED))


# Defaulted parameters that no call in the package passes, kept on purpose.
UNPASSED_DEFAULTS_ALLOWED = {
    ("forbidden_cycles", "cap"): "bounds the output on quivers with many forbidden cycles",
    ("main", "argv"): "tests and the benchmark run the CLI in process",
}


def test_every_defaulted_parameter_is_passed_by_the_package():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "agq"
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))]
    defaults = {}  # (function, parameter) -> its position in a call, None if keyword-only
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                functions, method = node.body, True
            else:
                functions, method = [node], False
            for fn in functions:
                if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                    continue
                params = fn.args.posonlyargs + fn.args.args
                first = len(params) - len(fn.args.defaults)
                for i, param in enumerate(params[first:], start=first):
                    defaults[(fn.name, param.arg)] = i - method
                for param, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                    if default is not None:
                        defaults[(fn.name, param.arg)] = None
    passed = set()
    for tree in trees:
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in call.args)
            for (fname, param), pos in defaults.items():
                if fname != name:
                    continue
                if (any(kw.arg in (param, None) for kw in call.keywords) or starred
                        or (pos is not None and len(call.args) > pos)):
                    passed.add((fname, param))
    unpassed = set(defaults) - passed
    assert unpassed == set(UNPASSED_DEFAULTS_ALLOWED), sorted(unpassed ^ set(UNPASSED_DEFAULTS_ALLOWED))


# Records that write out their own __init__, and why the generic one is not enough.
RECORD_INIT_ALLOWED = {
    "Arrow": "built in bulk: 17,847 a pass over closed_acyclic's instances, 11,490 over closed_cyclic's",
    "Representation": "built in bulk: 11,352 a pass over the oracle corpus",
    "Quiver": "checks the names are distinct and sets the hidden name indexes",
    "ValidationReport": "sets the hidden tables, or stand-ins that raise on a read",
    "AlmostGentlePair": "sets the hidden per-pair memo",
    "DirectedString": "checks a length-zero string has its anchor vertex",
    "ForbiddenWalk": "defaults the cycle to () for a finite path",
    "Summand": "defaults the vertex and the arrows",
    "DimReport": "keeps the value as a table length and sets the hidden witness pointer",
    "AgqDocument": "starts each list or map left out empty",
    "GeneratorParams": "checks the bounds and defaults them",
}
# Records that declare what their _fields otherwise give them.
RECORD_MEMBER_ALLOWED = {
    ("AlmostGentlePair", "_key"): "compares the quiver and the relations; the report follows from them",
}


def test_records_declare_only_their_fields():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "agq"
    classes = [node for path in sorted(src.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(node, ast.ClassDef)]
    records = {"_Record", "_Frozen"}
    while True:  # a record's subclass is a record too
        found = {c.name for c in classes if any(getattr(base, "id", None) in records for base in c.bases)}
        if found <= records:
            break
        records |= found
    assert {"LengthOrInf", "DimReport", "Psi0Descriptor", "AlmostGentlePair"} <= records
    inits, members = set(), set()
    for cls in classes:
        if cls.name in ("_Record", "_Frozen") or cls.name not in records:
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            inits |= {cls.name for name in names if name == "__init__"}
            members |= {(cls.name, name) for name in names if name in ("_key", "__eq__", "__hash__", "__reduce__")}
    assert inits == set(RECORD_INIT_ALLOWED), sorted(inits ^ set(RECORD_INIT_ALLOWED))
    assert members == set(RECORD_MEMBER_ALLOWED), sorted(members ^ set(RECORD_MEMBER_ALLOWED))


# SHA-256 of every emit_json(report_json(...)) below, concatenated.  A change
# that alters the report on purpose updates it and says so in CHANGES.md.
REPORT_SHA256 = "e5844c641aa5f88626867e9a9cce7eb54bd9be834dac5866c51491a4f1fe2223"


def test_json_reports_are_byte_identical_to_the_recorded_hash():
    digest = hashlib.sha256()
    valid = 0
    for path in sorted(FIXTURES.glob("*.agq")):
        doc = parse_agq(path.read_text(encoding="utf-8"))
        pair = doc.pair()
        if pair.validated:  # loop_norel is the one invalid fixture
            digest.update(emit_json(report_json(pair, doc.name)).encode())
            valid += 1
    params = [GeneratorParams(seed=s) for s in range(1, 201)]
    params.append(GeneratorParams(seed=7, max_vertices=1000, max_arrows=2000))
    for p in params:
        pair, _text = random_ag_pair(p)
        digest.update(emit_json(report_json(pair, f"random_{p.seed}")).encode())
    assert valid == 8
    assert digest.hexdigest() == REPORT_SHA256


# SHA-256 of the JSON reports on the benchmark's closed_acyclic ladder at
# seed 1.  Its witnesses are long and its sups tie often, which the
# generator corpus above does not reach.
ACYCLIC_REPORT_SHA256 = "64d8567b7c5b12eca93b7cbb6ed8fd38ce7691714f2d550eecfe0225e255bbd5"


def test_acyclic_ladder_reports_are_identical_to_the_recorded_hash():
    digest = hashlib.sha256()
    docs = bench_acyclic_docs()
    for doc in docs:
        digest.update(emit_json(report_json(doc.pair(), doc.name)).encode())
    assert len(docs) == 25
    assert digest.hexdigest() == ACYCLIC_REPORT_SHA256


def _valid_fixtures():
    for path in sorted(FIXTURES.glob("*.agq")):
        pair = parse_agq(path.read_text(encoding="utf-8")).pair()
        if pair.validated:  # loop_norel is the one invalid fixture
            yield path, pair


# SHA-256 of the repr of every resolve_symbolic(...) below, then of the
# stdout of every in-process "agq resolve" on the fixtures.
RESOLUTION_SHA256 = "5fd10587efa097a9d0ab5112122cd996aaa905b4ad26b70cd8e671e002b8841f"


def test_symbolic_resolutions_are_identical_to_the_recorded_hash():
    digest = hashlib.sha256()
    fixtures = list(_valid_fixtures())
    pairs = [pair for _path, pair in fixtures]
    pairs += [random_ag_pair(GeneratorParams(seed=s))[0] for s in range(1, 201)]
    for pair in pairs:
        for kind in ("simple", "injective"):
            for v in pair.quiver.vertices:
                digest.update(repr(resolve_symbolic(pair, kind, v, max_steps=64)).encode())
    for path, pair in fixtures:
        for flag in ("--simple", "--injective"):
            for v in pair.quiver.vertices:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert main(["resolve", str(path), flag, v]) == 0
                digest.update(out.getvalue().encode())
    assert len(fixtures) == 8
    assert digest.hexdigest() == RESOLUTION_SHA256


def test_the_summand_graph_walks_nodes_of_four_ints():
    # what a walk over the graph reads must stay index tuples, not names
    from agq.syzygy import _summand_graph
    pairs = [pair for _path, pair in _valid_fixtures()]
    pairs += [random_ag_pair(GeneratorParams(seed=s))[0] for s in range(1, 21)]
    for pair in pairs:
        for kind in ("simple", "injective"):
            for v in pair.quiver.vertices:
                resolve_symbolic(pair, kind, v)
        graph = _summand_graph(pair)
        assert graph.succ
        for node, succ in graph.succ.items():
            for n in [node] + [k for k, _m in succ]:
                assert type(n) is tuple and len(n) == 4 and all(type(x) is int for x in n), n


# SHA-256 of the plain values (no reprs of the package's own types) that
# every string entry point gives below.
STRINGS_SHA256 = "53dac452108fdb1ed2f211133827c3425c7f1ec8448fdbb05fa5bee4cb8dda54"


def _sup(value, walk):
    return value.value, None if walk is None else (walk.stem, walk.cycle)


def _summands(items):
    return tuple((s.kind, s.vertex, s.arrows, n) for s, n in items)


def test_string_layer_is_identical_to_the_recorded_hash():
    digest = hashlib.sha256()
    pairs = [pair for _path, pair in _valid_fixtures()]
    pairs += [random_ag_pair(GeneratorParams(seed=s))[0] for s in range(1, 201)]
    strings = 0
    for pair in pairs:
        for ds in strings_of(pair):
            rep = pdim_directed_string(pair, ds)
            res = resolve_symbolic(pair, "string", ds, max_steps=8)
            module = rep_of(pair, "string", ds)
            values = (
                _summands(lemma(pair, "omega1", ds).items),
                _sup(rep.value, rep.witness), rep.method,
                _sup(*delta_forbidden_sup(pair, ds)),
                tuple((level.cover, _summands(level.syzygy.items)) for level in res.levels),
                res.terminated,
                tuple(module_dims(pair, "string", ds).items()),
                right_maximal_extension(pair, ds).arrows,
                left_maximal_extension(pair, ds).arrows,
                # the module lives on its support, by index; spelled out at every vertex and arrow
                tuple((w, module.dims.get(i, 0)) for i, w in enumerate(pair.quiver.vertices)),
                tuple((a.name, tuple(tuple(row.items()) for row in module.maps.get(j, [])))
                      for j, a in enumerate(pair.quiver.arrows)))
            digest.update(repr(values).encode())
            strings += 1
        for v in pair.quiver.vertices:
            desc = psi0_descriptor(pair, v)
            values = (
                tuple(br.arrows for br in claw_of(pair, v)),
                tuple(br.arrows for br in anticlaw_of(pair, v)),
                (desc.apex, desc.c, desc.d, desc.t,
                 tuple((tail.arrows, flag) for tail, flag in desc.tails)),
                _summands((s, 1) for s in lemma(pair, "leftovers", v)) if desc.c else None)
            digest.update(repr(values).encode())
    assert (len(pairs), strings) == (208, 2889)
    assert digest.hexdigest() == STRINGS_SHA256


# SHA-256 of the value and witness of every forbidden-path sup and every
# dimension report below: each arrow's and each vertex's sup, each vertex's
# pdim S(v) and pdim E(v), and the two global dimensions.  The JSON report
# prints only the two global witnesses, so this pins the tie rule everywhere.
WITNESS_SHA256 = "9110a5cbe7a99b7369a23eac05423dbe679c3870eec0e55e1439717556eccafa"


def test_witnesses_are_identical_to_the_recorded_hash():
    digest = hashlib.sha256()
    pairs = [pair for _path, pair in _valid_fixtures()]
    params = [GeneratorParams(seed=s) for s in range(1, 201)]
    params.append(GeneratorParams(seed=7, max_vertices=1000, max_arrows=2000))
    pairs += [random_ag_pair(p)[0] for p in params]
    for pair in pairs:
        values = [_sup(*sup_forbidden_from_arrow(pair, a.name)) for a in pair.quiver.arrows]
        values += [_sup(*sup_forbidden_from_vertex(pair, v)) for v in pair.quiver.vertices]
        reps = [fn(pair, v) for v in pair.quiver.vertices for fn in (pdim_simple, pdim_injective)]
        reps += [global_dimension(pair), self_injective_dimension(pair)]
        values += [(_sup(rep.value, rep.witness), rep.method, rep.attained_at) for rep in reps]
        digest.update(repr(values).encode())
    assert len(pairs) == 209
    assert digest.hexdigest() == WITNESS_SHA256


# SHA-256 of the cycle readers of the relation digraph below: the elementary
# cycles, uncapped and capped at 3, the (A)/(B) criterion with its witness
# cycle, and the non-invalid cycle vertex.
CYCLES_SHA256 = "a1c1e74d797c76d29d7b9386fbb622a705bc488555893491c81ab2be43a9ea72"


def test_cycle_readers_are_identical_to_the_recorded_hash():
    digest = hashlib.sha256()
    pairs = [pair for _path, pair in _valid_fixtures()]
    pairs += [random_ag_pair(GeneratorParams(seed=s))[0] for s in range(1, 201)]
    pairs += bench_cyclic_pairs(4)
    for pair in pairs:
        values = (forbidden_cycles(pair), forbidden_cycles(pair, 3),
                  self_injective_infinite_by_cycle(pair), noninvalid_cycle_vertex(pair))
        digest.update(repr(values).encode())
    assert len(pairs) == 212
    assert digest.hexdigest() == CYCLES_SHA256


# SHA-256 of the oracle's own answers: each pair's check_against_formulas
# at cutoff 40 (the count checked and every mismatch), then per vertex the
# oracle's pdim of S(v) and E(v) and the cover of each.  Agreement with the
# closed form alone would not see a change that moved both sides.
ORACLE_SHA256 = "0b03d4b01ab000243bac6b3bd33415fbd2ec40be747eb82d792af111ca429429"


def test_oracle_answers_are_identical_to_the_recorded_hash():
    digest = hashlib.sha256()
    pairs = [pair for _path, pair in _valid_fixtures()]
    pairs += [random_ag_pair(GeneratorParams(seed=s))[0] for s in range(1, 201)]
    for pair in pairs:
        agreement = check_against_formulas(pair, cutoff=40)
        values = [agreement.checked, [(m.vertex, m.quantity, m.formula, m.oracle) for m in agreement.mismatches]]
        for v in pair.quiver.vertices:
            for kind in ("simple", "injective"):
                rep = rep_of(pair, kind, v)
                pdim = oracle_pdim(pair, rep, 40)
                values.append((pdim.finite, pdim.value, projective_cover_kernel(pair, rep).cover))
        digest.update(repr(values).encode())
    assert len(pairs) == 208
    assert digest.hexdigest() == ORACLE_SHA256


def _labelled_sweep():
    """Every quiver on 1-3 vertices with 0-3 arrows, arrows labelled in
    order, with every subset of its composable arrow pairs as relations."""
    for n in range(1, 4):
        vertices = [f"v{i}" for i in range(n)]
        ends = list(itertools.product(vertices, repeat=2))
        for k in range(4):
            for chosen in itertools.product(ends, repeat=k):
                arrows = [(f"a{i}", s, t) for i, (s, t) in enumerate(chosen)]
                composable = [(a, b) for a, _, t in arrows for b, s, _ in arrows if t == s]
                for mask in range(1 << len(composable)):
                    rels = [r for i, r in enumerate(composable) if mask >> i & 1]
                    yield make_pair(vertices, arrows, rels)


# SHA-256 of every validation below, valid or not: the valid flag, each
# violation's kind, location and message, the warnings, and each arrow's
# nonzero successor, nonzero predecessor (None for none) and relation
# successors by name, in declaration order (empty for a report without the
# successor tables).
VALIDATION_SHA256 = "3d53e378c6193a2325533a4d693e86c3dad32e7815dbe2a824237b404f16934e"


def test_validation_is_identical_to_the_recorded_hash():
    digest = hashlib.sha256()
    pairs = [parse_agq(path.read_text(encoding="utf-8")).pair() for path in sorted(FIXTURES.glob("*.agq"))]
    pairs += [random_ag_pair(GeneratorParams(seed=s))[0] for s in range(1, 201)]
    pairs += bench_cyclic_pairs(4)
    # built directly: a dangling endpoint, and relations on unknown or non-composable arrows
    pairs.append(AlmostGentlePair.build(Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "2", "3"))),
                                        frozenset({("a", "b")})))
    pairs.append(AlmostGentlePair.build(Quiver(("1",), (Arrow("a", "0", "1"),)), frozenset()))
    pairs.append(make_pair(["1", "2"], [("a", "1", "2"), ("b", "2", "1")], [("a", "zz"), ("a", "b")]))
    pairs.append(make_pair(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "1", "3")],
                           [("a", "c"), ("b", "a"), ("a", "b")]))
    pairs.append(make_pair(["1", "2"], [("a", "1", "2")], [("zz", "yy")]))
    fixed = len(pairs)
    pairs = itertools.chain(pairs, _labelled_sweep())
    count = 0
    for pair in pairs:
        report = pair.report
        succ = pred = rel = []
        if isinstance(report.nonzero_succ, list):
            names = report.names
            succ = [(a, names[b] if b >= 0 else None) for a, b in zip(names, report.nonzero_succ)]
            pred = [(a, names[b] if b >= 0 else None) for a, b in zip(names, report.nonzero_pred)]
            rel = [(a, [names[b] for b in bs]) for a, bs in zip(names, report.relation_succ)]
        values = (report.valid, [(v.kind, v.location, v.message) for v in report.violations], report.warnings,
                  succ, pred, rel)
        digest.update(repr(values).encode())
        count += 1
    assert (fixed, count - fixed) == (218, 14115)
    assert digest.hexdigest() == VALIDATION_SHA256


def test_pairs_are_freed_by_reference_counting_alone():
    pairs = [pair for _path, pair in _valid_fixtures()]
    pairs += [random_ag_pair(GeneratorParams(seed=s))[0] for s in range(1, 41)]
    refs = []
    gc.disable()
    try:
        while pairs:
            pair = pairs.pop()
            report_json(pair, "pair")
            check_against_formulas(pair)
            for kind in ("simple", "injective"):
                for v in pair.quiver.vertices:
                    resolve_symbolic(pair, kind, v)
            refs.append(weakref.ref(pair))
            del pair
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()
