"""JSON and DOT output.

The JSON schema is stable and key-sorted; infinite dimensions are encoded as
``{"finite": false, "value": null}`` rather than a sentinel number.  DOT
output draws the quiver solid and each relation as a dashed arc between the
midpoints of its two arrows (labeled ``a.b``).
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii

from .forbidden import _INFINITE, LengthOrInf
from .homdim import _vertex_table, gorenstein_report, pdim_injective
from .quiver import AlmostGentlePair


def _dim_json(value: LengthOrInf, witness=None, extra: dict | None = None) -> dict:
    out: dict = {"finite": value.is_finite, "value": value.value}
    if witness is not None:
        out["witness"] = list(witness.stem + witness.cycle)
        if witness.is_lasso:
            out["cycle"] = list(witness.cycle)
    if extra:
        out.update(extra)
    return out


def _length_json(n) -> dict:
    """A length-table value as a report entry without a witness."""
    return {"finite": True, "value": n} if n != _INFINITE else {"finite": False, "value": None}


def report_json(pair: AlmostGentlePair, name: str | None = None) -> dict:
    """The full decision report as a JSON-ready dict."""
    pair.require_valid()
    g = gorenstein_report(pair)
    table = _vertex_table(pair)
    per_vertex = {}
    for v, simple, invalid, gentle in zip(pair.quiver.vertices, table.top_len, table.invalid, table.gentle):
        per_vertex[v] = {
            "pdim_simple": _length_json(simple),
            "pdim_injective": _length_json(pdim_injective(pair, v)._length),
            "invalid": invalid,
            "gentle": gentle,
        }
    return {
        "algebra": name or "",
        "valid": True,
        "global_dimension": _dim_json(g.gldim.value, g.gldim.witness),
        "self_injective_dimension": _dim_json(g.injdim.value, g.injdim.witness,
                                              {"attained_at": g.injdim.attained_at}),
        "gorenstein": g.gorenstein,
        "cycle_criterion": g.cycle_criterion,
        "envelope_pdim": _dim_json(g.envelope_pdim),
        "per_vertex": per_vertex,
    }


def emit_json(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    With an indent the standard library leaves its C encoder for a pure
    Python one; this writer covers only what a report holds (dicts with str
    keys, lists, str, bool, int and None) and raises TypeError on the rest.
    """
    out: list[str] = []
    _write_json(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append value's JSON text; newline starts a line at its own depth."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write_json(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def emit_dot(pair: AlmostGentlePair, name: str | None = None) -> str:
    """Quiver as solid edges through midpoint nodes; relations dashed."""
    lines = [f"digraph {json.dumps(name or 'agq')} {{"]
    lines.append("  rankdir=TB;")
    lines.append("  node [shape=circle];")
    for v in pair.quiver.vertices:
        lines.append(f"  {json.dumps(v)};")
    for a in pair.quiver.arrows:
        mid = f"mid_{a.name}"
        lines.append(f"  {json.dumps(mid)} [shape=point, width=0.02, label=\"\"];")
        lines.append(f"  {json.dumps(a.source)} -> {json.dumps(mid)} "
                     f"[arrowhead=none, label={json.dumps(a.name)}];")
        lines.append(f"  {json.dumps(mid)} -> {json.dumps(a.target)};")
    idx = pair.quiver.arrow_index
    for a, b in sorted(pair.relations, key=lambda e: (idx[e[0]], idx[e[1]])):
        lines.append(f"  \"mid_{a}\" -> \"mid_{b}\" "
                     f"[style=dashed, constraint=false, label=\"{a}.{b}\"];")
    lines.append("}")
    return "\n".join(lines) + "\n"
