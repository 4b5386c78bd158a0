"""Output checks.  Each returns a list of problems; an empty list means correct.

They use only the package's public API and share no code with the
benchmark's timing, so a wrong answer shows as a failed op.
"""

from __future__ import annotations

import json


def _walk_problems(pair, label: str, value, witness) -> list[str]:
    """value is a LengthOrInf and witness a ForbiddenWalk or None."""
    if value.is_finite:
        if witness is None:
            return [] if value.value == 0 else [f"{label}: finite {value} without a witness"]
        if witness.is_lasso or len(witness.stem) != value.value:
            return [f"{label}: witness {witness} does not have length {value}"]
    elif witness is None or not witness.is_lasso:
        return [f"{label}: infinite value without a lasso witness"]
    if not witness.verify(pair):
        return [f"{label}: witness {witness} is not a forbidden path"]
    return []


def _json_walk(entry: dict):
    """(value, walk, problems) for a report_json entry with a witness."""
    from agq.forbidden import ForbiddenWalk, LengthOrInf

    value = LengthOrInf(entry["value"] if entry["finite"] else None)
    seq = tuple(entry.get("witness", ()))
    cycle = tuple(entry.get("cycle", ()))
    stem = seq[:len(seq) - len(cycle)]
    if seq[len(stem):] != cycle:
        return value, None, ["the witness does not end with its cycle"]
    return value, (ForbiddenWalk(stem, cycle) if seq else None), []


def closed_problems(pair, output: str) -> list[str]:
    """Check one ``report_json`` output against the pair it was computed from.

    The two witnessed values in the output must carry verified witnesses of
    exactly their length (a lasso when infinite); every per-vertex value must
    equal the witnessed library answer; and global and self-injective
    dimension must match those of the opposite algebra.
    """
    from agq import (global_dimension, opposite, pdim_injective, pdim_simple,
                     self_injective_dimension)

    if not pair.validated:
        return ["pair does not validate"]
    report = json.loads(output)
    problems: list[str] = []
    values = {}
    for key in ("global_dimension", "self_injective_dimension"):
        values[key], walk, bad = _json_walk(report[key])
        problems += [f"{key}: {b}" for b in bad] or _walk_problems(pair, key, values[key], walk)

    injective = {}
    for v in pair.quiver.vertices:
        row = report["per_vertex"][v]
        for key, fn in (("pdim_simple", pdim_simple), ("pdim_injective", pdim_injective)):
            dim = fn(pair, v)
            stated = row[key]["value"] if row[key]["finite"] else None
            if stated != dim.value.value:
                problems.append(f"{key}({v}): output {stated} but the library says {dim.value}")
            problems += _walk_problems(pair, f"{key}({v})", dim.value, dim.witness)
            if key == "pdim_injective":
                injective[v] = dim.value
    at = report["self_injective_dimension"].get("attained_at")
    if at is not None and injective.get(at) != values["self_injective_dimension"]:
        problems.append(f"self_injective_dimension is not attained at {at}")

    opp = opposite(pair)
    for key, fn in (("global_dimension", global_dimension),
                    ("self_injective_dimension", self_injective_dimension)):
        theirs = fn(opp).value
        if theirs != values[key]:
            problems.append(f"{key} {values[key]} differs from the opposite algebra's {theirs}")
    return problems


def cli_problems(expected: dict, code: int, stdout: str) -> list[str]:
    """Exit code and stdout must equal what the seed commit printed."""
    problems = []
    if code != expected["exit"]:
        problems.append(f"exit code {code}, expected {expected['exit']}")
    if stdout != expected["stdout"]:
        problems.append("stdout differs from the expected output")
    return problems


def oracle_problems(report) -> list[str]:
    """An AgreementReport must be ok and have checked something."""
    problems = [f"mismatch at {m.vertex}: {m.quantity}: formula {m.formula} vs oracle {m.oracle}"
                for m in report.mismatches]
    if report.checked < 1:
        problems.append("no quantity was checked")
    return problems
