"""Repository tooling: the benchmark's traced names, the package's imports,
that every public name and defaulted parameter serves the package, hashes
that pin the JSON report, the symbolic resolutions and the string layer,
and that a pair is freed without the cycle collector."""

import ast
import contextlib
import gc
import hashlib
import io
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys
import weakref

from agq.agqfile import parse_agq
from agq.cli import main
from agq.emitters import emit_json, report_json
from agq.forbidden import delta_forbidden_sup, sup_forbidden_from_arrow, sup_forbidden_from_vertex
from agq.generator import GeneratorParams, random_ag_pair
from agq.homdim import (global_dimension, pdim_directed_string, pdim_injective, pdim_simple,
                        self_injective_dimension)
from agq.oracle import check_against_formulas, rep_of
from agq.quiver import nonzero_successor
from agq.strings import (DirectedString, anticlaw_of, claw_of, left_maximal_extension,
                         module_dims, right_maximal_extension)
from agq.syzygy import omega1_directed_string, omega1_injective, psi0_descriptor, resolve_symbolic
from conftest import bench_acyclic_docs

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
    # "import agq, agq.cli" leaves unloaded would be missing from a trace
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, agq, agq.cli; print(*sorted(sys.modules))"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout.split()
    needed = {"agq." + qual.split(".")[0] for qual in tracer.FUNCTIONS}
    assert needed - set(loaded) == set()


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


# Public names with no caller in the package, kept on purpose.
UNREFERENCED_ALLOWED = {
    "check_relations": "independent check that a representation kills every relation",
    "cover_morphism": "independent check that the minimal cover map commutes with the arrows",
    "noninvalid_cycle_vertex": "the predicate acceptance criterion 7 is about",
    "opposite": "the opposite algebra, a cross-check for criterion 8 and the benchmark",
    "psi0_decompose": "public socle-block decomposition; the summand graph passes its own descriptor",
    "is_gentle_vertex": "public vertex predicate; the vertex table computes every flag in its pass",
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


# SHA-256 of the plain values (no reprs of the package's own types) that
# every string entry point gives below.
STRINGS_SHA256 = "53dac452108fdb1ed2f211133827c3425c7f1ec8448fdbb05fa5bee4cb8dda54"


def _strings_of(pair):
    """Every anchor, then every nonzero directed path of length 1 to 3."""
    strings = [DirectedString((), v) for v in pair.quiver.vertices]
    for a in pair.quiver.arrows:
        arrows = (a.name,)
        while arrows[-1] is not None and len(arrows) <= 3:
            strings.append(DirectedString(arrows))
            arrows += (nonzero_successor(pair, arrows[-1]),)
    return strings


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
        for ds in _strings_of(pair):
            rep = pdim_directed_string(pair, ds)
            res = resolve_symbolic(pair, "string", ds, max_steps=8)
            module = rep_of(pair, "string", ds)
            values = (
                _summands(omega1_directed_string(pair, ds).items),
                _sup(rep.value, rep.witness), rep.method,
                _sup(*delta_forbidden_sup(pair, ds)),
                tuple((level.cover, _summands(level.syzygy.items)) for level in res.levels),
                res.terminated,
                tuple(module_dims(pair, "string", ds).items()),
                right_maximal_extension(pair, ds).arrows,
                left_maximal_extension(pair, ds).arrows,
                tuple(module.dims.items()),
                tuple((a, tuple(tuple(row.items()) for row in rows)) for a, rows in module.maps.items()))
            digest.update(repr(values).encode())
            strings += 1
        for v in pair.quiver.vertices:
            desc = psi0_descriptor(pair, v)
            values = (
                tuple(br.arrows for br in claw_of(pair, v)),
                tuple(br.arrows for br in anticlaw_of(pair, v)),
                (desc.apex, desc.c, desc.d, desc.t,
                 tuple((tail.arrows, flag) for tail, flag in desc.tails)),
                _summands((s, 1) for s in omega1_injective(pair, v)[1]) if desc.c else None)
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
