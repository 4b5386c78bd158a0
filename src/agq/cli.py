"""Command line interface.

Exit codes: 0 success, 1 parse, validation or usage failure or any other
``AgqError`` (one ``error:`` line, no traceback), 2 formula-vs-oracle
mismatch (``check``).  Reports go to stdout, diagnostics to stderr.  The
only environment variable honored is AGQ_COLOR=0|1 (pass/fail coloring in
``check``).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import generator, oracle, syzygy
from .agqfile import load_pair
from .emitters import emit_dot, emit_json, report_json
from .forbidden import forbidden_cycles, sup_forbidden_from_vertex, zero_length_forbidden
from .homdim import (
    global_dimension,
    gorenstein_report,
    pdim_directed_string,
    pdim_injective,
    pdim_simple,
    self_injective_dimension,
)
from .quiver import AgqError
from .strings import DirectedString


def _color(text: str, code: str) -> str:
    if os.environ.get("AGQ_COLOR") == "1":
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _load_valid(path: str):
    doc, pair = load_pair(path)
    if not pair.validated:
        for v in pair.report.violations:
            print(f"invalid: {v.kind} at {', '.join(v.location)}: {v.message}", file=sys.stderr)
        raise SystemExit(1)
    return doc, pair


def _print_report_json(doc, pair) -> int:
    """The full JSON report, which ``gldim``, ``injdim`` and ``gorenstein`` share."""
    sys.stdout.write(emit_json(report_json(pair, doc.name)))
    return 0


def _walk_text(walk) -> str:
    """A witness as its arrows, a lasso's cycle as ``(c1 c2 ...)*``."""
    text = " ".join(walk.stem)
    if walk.is_lasso:
        text = (text + " " if text else "") + "(" + " ".join(walk.cycle) + ")*"
    return text


def _print_dim(report, args) -> None:
    print(report.value)
    if getattr(args, "witness", False) and report.witness is not None:
        print(f"witness: {_walk_text(report.witness)}")


def cmd_validate(args) -> int:
    doc, pair = load_pair(args.file)
    for warning in pair.report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if pair.validated:
        print("valid almost gentle pair"
              f" ({len(pair.quiver.vertices)} vertices, {len(pair.quiver.arrows)} arrows,"
              f" {len(pair.relations)} relations)")
        return 0
    for v in pair.report.violations:
        print(f"{v.kind} at {', '.join(v.location)}: {v.message}")
    print("note: 'rel a b' means the path a-then-b lies in the ideal", file=sys.stderr)
    return 1


def cmd_gldim(args) -> int:
    doc, pair = _load_valid(args.file)
    if args.json:
        return _print_report_json(doc, pair)
    _print_dim(global_dimension(pair), args)
    return 0


def cmd_injdim(args) -> int:
    doc, pair = _load_valid(args.file)
    if args.json:
        return _print_report_json(doc, pair)
    rep = self_injective_dimension(pair)
    _print_dim(rep, args)
    if rep.attained_at is not None:
        print(f"attained at: {rep.attained_at}")
    return 0


def _module_arg(args) -> tuple[str, object]:
    """The module named by --simple, --injective or --string, as (kind, arg)."""
    if args.simple:
        return "simple", args.simple
    if args.injective:
        return "injective", args.injective
    return "string", DirectedString(tuple(s for s in args.string.split(",") if s))


def cmd_pdim(args) -> int:
    doc, pair = _load_valid(args.file)
    kind, arg = _module_arg(args)
    pdim = {"simple": pdim_simple, "injective": pdim_injective,
            "string": pdim_directed_string}[kind]
    _print_dim(pdim(pair, arg), args)
    return 0


def cmd_forbidden(args) -> int:
    doc, pair = _load_valid(args.file)
    if args.cycles:
        cycles, truncated = forbidden_cycles(pair)
        for cyc in cycles:
            print(" ".join(cyc))
        if truncated:
            print("(truncated)", file=sys.stderr)
        return 0
    vertices = [args.from_vertex] if args.from_vertex else list(pair.quiver.vertices)
    for v in vertices:
        value, witness = sup_forbidden_from_vertex(pair, v)
        mark = " (zero-length forbidden path)" if zero_length_forbidden(pair, v) else ""
        if witness is None:
            print(f"{v}: sup 0{mark}")
        else:
            print(f"{v}: sup {value} via {_walk_text(witness)}{mark}")
    return 0


def cmd_resolve(args) -> int:
    doc, pair = _load_valid(args.file)
    kind, arg = _module_arg(args)
    res = syzygy.resolve_symbolic(pair, kind, arg, max_steps=args.max_steps)
    for k, level in enumerate(res.levels):
        cover = " + ".join(f"P({v})" + (f"^{m}" if m > 1 else "") for v, m in level.cover) or "0"
        parts = []
        for s, n in level.syzygy.items:
            if s.kind == "simple":
                text = f"S({s.vertex})"
            elif s.kind == "projective":
                text = f"P({s.vertex})"
            elif s.kind == "psi0":
                text = f"SocleBlock({s.vertex})"
            else:
                text = "M(" + " ".join(s.arrows) + ")"
            parts.append(text + (f"^{n}" if n > 1 else ""))
        print(f"P{k} = {cover}   Omega{k + 1} = " + (" + ".join(parts) or "0"))
    print(f"terminated: {res.terminated} (length {res.length})")
    if args.oracle:
        result = oracle.oracle_pdim(pair, oracle.rep_of(pair, kind, arg), max(args.max_steps, 4))
        print(f"oracle pdim: {result}")
    return 0


def cmd_gorenstein(args) -> int:
    doc, pair = _load_valid(args.file)
    if args.json:
        return _print_report_json(doc, pair)
    g = gorenstein_report(pair)
    print(f"global dimension: {g.gldim.value}")
    print(f"self-injective dimension: {g.injdim.value}")
    print(f"gorenstein: {'yes' if g.gorenstein else 'no'}")
    print(f"forbidden-cycle criterion: {'infinite' if g.cycle_criterion else 'finite'}")
    print(f"injective envelope pdim: {g.envelope_pdim}")
    print(g.auslander_note)
    return 0


def cmd_check(args) -> int:
    doc, pair = _load_valid(args.file)
    report = oracle.check_against_formulas(pair, cutoff=args.cutoff)
    if report.ok:
        print(_color(f"ok: {report.checked} quantities agree with the oracle", "32"))
        return 0
    for m in report.mismatches:
        where = f" at {m.vertex}" if m.vertex else ""
        print(_color(f"mismatch{where}: {m.quantity}: formula {m.formula} vs oracle {m.oracle}", "31"))
    return 2


def cmd_random(args) -> int:
    for k in range(args.count):
        params = generator.GeneratorParams(seed=args.seed + k, max_vertices=args.max_vertices,
                                           max_arrows=args.max_arrows)
        pair, text = generator.random_ag_pair(params)
        if args.emit:
            os.makedirs(args.emit, exist_ok=True)
            path = os.path.join(args.emit, f"random_{args.seed + k}.agq")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(path)
        else:
            sys.stdout.write(text)
    return 0


def cmd_dot(args) -> int:
    doc, pair = load_pair(args.file)
    sys.stdout.write(emit_dot(pair, doc.name))
    return 0


def _at_least(low: int):
    """An argparse type: an integer no smaller than low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="agq",
        description="Homological dimensions of almost gentle algebras from .agq bound quivers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the almost gentle conditions")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    for name, func in (("gldim", cmd_gldim), ("injdim", cmd_injdim)):
        p = sub.add_parser(name, help=f"{name} of the algebra")
        p.add_argument("file")
        p.add_argument("--json", action="store_true")
        p.add_argument("--witness", action="store_true")
        p.set_defaults(func=func)

    def module_parser(name: str, summary: str) -> argparse.ArgumentParser:
        """A subcommand on a file and one module of it."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("file")
        grp = p.add_mutually_exclusive_group(required=True)
        for flag, metavar in (("--simple", "V"), ("--injective", "V"), ("--string", "a1,a2,...")):
            grp.add_argument(flag, metavar=metavar)
        return p

    p = module_parser("pdim", "projective dimension of a module")
    p.add_argument("--witness", action="store_true")
    p.set_defaults(func=cmd_pdim)

    p = sub.add_parser("forbidden", help="forbidden path sups and cycles")
    p.add_argument("file")
    p.add_argument("--from", dest="from_vertex", metavar="V")
    p.add_argument("--cycles", action="store_true")
    p.set_defaults(func=cmd_forbidden)

    p = module_parser("resolve", "symbolic minimal projective resolution")
    p.add_argument("--max-steps", type=_at_least(1), default=64)
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("gorenstein", help="Gorenstein report")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_gorenstein)

    p = sub.add_parser("check", help="cross-validate formulas against the oracle")
    p.add_argument("file")
    p.add_argument("--cutoff", type=_at_least(1), default=40)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("random", help="generate seeded random almost gentle pairs")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-vertices", type=_at_least(1), default=8)
    p.add_argument("--max-arrows", type=_at_least(0), default=14)
    p.add_argument("--count", type=_at_least(1), default=1)
    p.add_argument("--emit", metavar="DIR")
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("dot", help="DOT rendering of the bound quiver")
    p.add_argument("file")
    p.set_defaults(func=cmd_dot)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except BrokenPipeError:
        return 0
    except (AgqError, OSError) as exc:  # a bad file, vertex, arrow or string
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
