"""Repository tooling: the benchmark's traced names, and the package's imports."""

import ast
import importlib
import importlib.util
import pathlib
import sys

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
