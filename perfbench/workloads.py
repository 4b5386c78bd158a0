"""The four workloads: what one op is, how its output is checked, what it counts.

Every workload is a closed loop with one client: the next op starts when the
previous one has finished, in one single-threaded process.  An op processes
one instance from a fresh pair, because ``pair.memo`` and the package's
digraph cache would make a repeat on the same pair free.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent
GOLDEN_CLI = HERE / "golden_cli.json"


@dataclass(frozen=True)
class Workload:
    """How one workload builds its inputs, runs an op and names its metrics."""

    name: str
    prefix: str          # prefix of the workload's own metric names
    tail_pct: int        # the tail percentile reported
    work_name: str       # the work counted for throughput
    size: int            # instances built (closed_cyclic, oracle_corpus) or rungs (closed_acyclic)
    trace_ops: int       # ops in each pass of a traced run

    @property
    def min_samples(self) -> int:
        """Samples needed for ten of them to lie beyond the tail percentile."""
        return 10 * 100 // (100 - self.tail_pct)

    def build(self, seed: int) -> list[inputs.Item]:
        if self.name == "cli_fixtures":
            return inputs.fixture_items()
        if self.name == "closed_cyclic":
            return inputs.cyclic_items(seed, self.size)
        if self.name == "closed_acyclic":
            return inputs.acyclic_items(seed, self.size)
        return inputs.oracle_items(self.size)


WORKLOADS = {
    w.name: w for w in (
        Workload("cli_fixtures", "cli", 90, "invocations", 0, 27),
        Workload("closed_cyclic", "decide", 90, "arrows", 48, 48),
        Workload("closed_acyclic", "decide", 90, "arrows", 25, 25),
        Workload("oracle_corpus", "check", 95, "quantities", 200, 60),
    )
}


def child_env() -> dict[str, str]:
    """Environment for ``agq`` subprocesses: the checkout's sources, no colour."""
    env = {k: v for k, v in os.environ.items() if k != "AGQ_COLOR"}
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """Runs ops of one workload and checks their outputs.

    ``op`` returns (output, pair); the pair is kept only for checking.  The
    first output for each instance gets the full check; later outputs for the
    same instance must equal it.
    """

    def __init__(self, workload: Workload, subprocess_cli: bool = True):
        self.w = workload
        self.subprocess_cli = subprocess_cli
        self.reference: dict[str, object] = {}
        self.golden = json.loads(GOLDEN_CLI.read_text(encoding="utf-8"))
        self.env = child_env()

    def op(self, item: inputs.Item):
        if self.w.name == "cli_fixtures":
            return (self._cli_subprocess(item) if self.subprocess_cli
                    else self._cli_inprocess(item)), None
        from agq.agqfile import parse_agq

        doc = parse_agq(item.text)
        pair = doc.pair()
        if self.w.name == "oracle_corpus":
            from agq.oracle import check_against_formulas

            return check_against_formulas(pair, cutoff=40), pair
        from agq.emitters import emit_json, report_json

        return emit_json(report_json(pair, doc.name)), pair

    def _cli_subprocess(self, item: inputs.Item) -> tuple[int, str]:
        proc = subprocess.run([sys.executable, "-m", "agq.cli", *item.argv], env=self.env,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              timeout=60)
        return proc.returncode, proc.stdout

    @staticmethod
    def _cli_inprocess(item: inputs.Item) -> tuple[int, str]:
        from agq.cli import main

        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(list(item.argv))
        return code, out.getvalue()

    def problems(self, item: inputs.Item, output, pair) -> list[str]:
        if item.key in self.reference:
            same = output == self.reference[item.key]
            return [] if same else ["output differs from the first output for this instance"]
        if self.w.name == "cli_fixtures":
            found = checks.cli_problems(self.golden[item.key], *output)
        elif self.w.name == "oracle_corpus":
            found = checks.oracle_problems(output)
        else:
            found = checks.closed_problems(pair, output)
        if not found:
            self.reference[item.key] = output
        return found

    def work(self, item: inputs.Item, output) -> float:
        if self.w.name == "cli_fixtures":
            return 1.0
        if self.w.name == "oracle_corpus":
            return float(output.checked)
        return float(item.arrows)
