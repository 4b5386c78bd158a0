"""Outside-in tracing of agq's layers.

The tracer replaces each listed function with a wrapper that records a span
(name, start, end, parent span, op id) in flat in-memory arrays, in every
``agq.*`` module namespace that binds it.  A function imported with
``from .x import y`` is bound in two namespaces, and both are wrapped.
``restore`` puts every original back.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

# Traced functions, as "<module of agq>.<function>".
FUNCTIONS = (
    "agqfile.parse_agq",
    "quiver.validate_bound_quiver",
    "forbidden.digraph_data",
    "forbidden.sup_forbidden_from_arrow",
    "forbidden.sup_forbidden_from_vertex",
    "forbidden.forbidden_cycles",
    "homdim.global_dimension",
    "homdim.self_injective_dimension",
    "homdim.pdim_injective",
    "homdim.pdim_injective_envelope",
    "homdim.gorenstein_report",
    "strings.anticlaw_of",
    "strings.socle_supports",
    "syzygy.psi0_descriptor",
    "syzygy.is_invalid_vertex",
    "syzygy.resolve_symbolic",
    "emitters.report_json",
    "emitters.emit_json",
    "oracle.check_against_formulas",
    "oracle.oracle_pdim",
    "oracle.rep_of",
    "oracle.projective_cover_kernel",
    "linalg.rref",
    "linalg.left_nullspace",
    "linalg.row_times",
    "linalg.coords_in_nullbasis",
)

# Functions whose first argument is a matrix counted for linalg.nonzero_frac.
MATRIX_ARG = ("linalg.rref", "linalg.left_nullspace")

OP_SPAN = "op"


def agq_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "agq" or name.startswith("agq."))]


class Tracer:
    """Span recorder; use as a context manager around the traced ops."""

    def __init__(self) -> None:
        self.names = [OP_SPAN, *FUNCTIONS]
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self._stack: list[int] = []
        self._op_id = -1
        self._patched: list[tuple[object, str, object]] = []
        self.matrix_entries = 0
        self.matrix_nonzero = 0

    # -- recording -----------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Run fn(*args) under a root span for one op."""
        self._op_id = op_id
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, nid: int, orig, count_matrix: bool):
        tracer = self

        def traced(*args, **kwargs):
            if count_matrix and args:
                mat = args[0]
                tracer.matrix_entries += sum(len(row) for row in mat)
                tracer.matrix_nonzero += sum(1 for row in mat for x in row if x)
            idx = tracer._open(nid)
            try:
                return orig(*args, **kwargs)
            finally:
                tracer._close(idx)

        traced.__wrapped__ = orig
        traced.__name__ = getattr(orig, "__name__", "traced")
        return traced

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        modules = agq_modules()
        by_name = {m.__name__: m for m in modules}
        for nid, qual in enumerate(self.names[1:], start=1):
            modname, fname = qual.split(".")
            orig = getattr(by_name[f"agq.{modname}"], fname)
            wrapper = self._wrap(nid, orig, qual in MATRIX_ARG)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))

    def restore(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- reading -------------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds); self = duration minus direct children."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals = {name: [0, 0.0] for name in self.names}
        for i in range(n):
            t = totals[self.names[self.name_id[i]]]
            t[0] += 1
            t[1] += self.end[i] - self.start[i] - child[i]
        return {name: (c, s) for name, (c, s) in totals.items()}

    def write(self, path) -> None:
        """All spans as gzipped CSV, one row per span, in the order opened."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,parent,op,name,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.parent[i]},{self.op[i]},{self.names[self.name_id[i]]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n")
