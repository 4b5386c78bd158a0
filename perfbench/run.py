"""Benchmark for agq, measured from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of cli_fixtures, closed_cyclic, closed_acyclic, oracle_corpus,
or ``all`` to run each of them in its own process.  The inputs depend on
the seed only.  With ``--trace 0`` the ops run for S seconds (longer when the
tail percentile needs more samples) and the end-to-end metrics are printed;
with ``--trace 1`` a fixed list of ops runs once untraced and once traced and
the per-layer metrics are printed.  The last line of stdout is one JSON
object; the lines before it name the same numbers for people.  Span records
and a result file go to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate
from inputs import Item
from workloads import WORKLOADS, Runner, Workload, child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
HARD_CAP_S = 150.0      # a run stops here even if the sample count is short
SETUP_REPEATS = 3


# -- set-up --------------------------------------------------------------------

def _purge_agq() -> None:
    for name in [n for n in sys.modules if n == "agq" or n.startswith("agq.")]:
        del sys.modules[name]


class Calibration:
    """Times of the workload's reference task (see calibrate.py) in one run."""

    def __init__(self, w: Workload) -> None:
        if w.name == "cli_fixtures":
            env = child_env()
            self.task = lambda: calibrate.interpreter_run("pass", env)
            self.reference_s, self.every_s = calibrate.REFERENCE_START_S, 1.0
        else:
            self.task = calibrate.loop
            self.reference_s, self.every_s = calibrate.REFERENCE_LOOP_S, 0.2
        self.times: list[float] = []
        self._next = 0.0

    def tick(self) -> None:
        """Time the task if `every_s` has passed since it last ran."""
        if perf_counter() >= self._next:
            self.times.append(self.task())
            self._next = perf_counter() + self.every_s

    def speed(self) -> float:
        return self.reference_s / statistics.median(self.times)


def setup(w: Workload, seed: int, calibration: Calibration) -> tuple[list[float], list[Item]]:
    """Import agq afresh and build the inputs, SETUP_REPEATS times.

    Returns every set-up time and the inputs; two builds from one seed must
    give identical inputs.  The calibration task runs twice after each set-up.
    """
    times: list[float] = []
    items: list[Item] | None = None
    for _ in range(SETUP_REPEATS):
        _purge_agq()
        t0 = perf_counter()
        importlib.import_module("agq")
        importlib.import_module("agq.cli")
        built = w.build(seed)
        times.append(perf_counter() - t0)
        calibration.times += [calibration.task(), calibration.task()]
        if items is not None and built != items:
            raise RuntimeError("two builds from one seed gave different inputs")
        items = built
    return times, items


def round_order(w: Workload, items: list[Item], seed: int, rnd: int) -> list[Item]:
    """Every instance once, in an order drawn from the seed and the round."""
    order = list(items)
    random.Random(f"{w.name}:{seed}:round:{rnd}").shuffle(order)
    return order


# -- measuring -----------------------------------------------------------------

class Tally:
    """Per-op times, work done and failures of one pass."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.work = 0.0
        self.failed = 0
        self.arrows = 0
        self.vertices = 0
        self.problems: list[str] = []

    def add(self, runner: Runner, item: Item, call) -> None:
        t0 = perf_counter()
        try:
            output, pair = call(item)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self.times.append(perf_counter() - t0)
            self._fail(item, [f"raised {type(exc).__name__}: {exc}"])
            return
        self.times.append(perf_counter() - t0)
        self.arrows += item.arrows
        self.vertices += item.vertices
        try:
            found = runner.problems(item, output, pair)
        except Exception as exc:  # output the check cannot even read
            found = [f"check raised {type(exc).__name__}: {exc}"]
        if found:
            self._fail(item, found)
        else:
            self.work += runner.work(item, output)

    def _fail(self, item: Item, found: list[str]) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems += [f"{item.key}: {p}" for p in found]


def timed_run(w: Workload, items: list[Item], seed: int, seconds: float,
              budget_end: float, calibration: Calibration) -> Tally:
    """Closed loop over whole rounds of the instances.

    Only whole rounds run, so every instance weighs the same in the
    percentiles.  The run stops at the round end nearest to `seconds` once
    the tail percentile has enough samples.  The calibration task runs
    between ops.
    """
    runner = Runner(w)
    tally = Tally()
    start = perf_counter()
    rnd = 0
    while True:
        round_start = perf_counter()
        for item in round_order(w, items, seed, rnd):
            calibration.tick()
            tally.add(runner, item, runner.op)
            if perf_counter() >= budget_end:
                return tally
        rnd += 1
        now = perf_counter()
        if len(tally.times) >= w.min_samples and now + (now - round_start) / 2 >= start + seconds:
            return tally


def percentile(xs: list[float], pct: int) -> float:
    return statistics.quantiles(xs, n=100)[pct - 1]


SAMPLED = ("op_p50_ms", "op_tail_ms", "work_per_s")   # computed from the op samples


def end_to_end(w: Workload, tally: Tally, setup_times: list[float],
               speed: float) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, with every time multiplied by `speed`."""
    who = resource.RUSAGE_CHILDREN if w.name == "cli_fixtures" else resource.RUSAGE_SELF
    spent = sum(tally.times) * speed
    return {
        "op_p50_ms": (statistics.median(tally.times) * 1000 * speed, "ms"),
        "op_tail_ms": (percentile(tally.times, w.tail_pct) * 1000 * speed, "ms"),
        "work_per_s": (tally.work / spent, "1/s"),
        "setup_s": (statistics.median(setup_times) * speed, "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


def display_names(w: Workload) -> dict[str, str]:
    """The workload-specific names under which the generic metrics are read."""
    throughput = {"arrows": "decide_arrows_per_s", "quantities": "check_quantities_per_s",
                  "invocations": "cli_invocations_per_s"}[w.work_name]
    return {"op_p50_ms": f"{w.prefix}_p50_ms", "op_tail_ms": f"{w.prefix}_p{w.tail_pct}_ms",
            "work_per_s": throughput, "setup_s": "setup_s", "peak_rss_mb": "peak_rss_mb"}


# -- tracing -------------------------------------------------------------------

def cli_import_ms(reps: int = 7) -> float:
    """Median `import agq.cli` in a fresh interpreter minus a bare one."""
    env = child_env()
    bare, full = [], []
    for _ in range(reps):
        bare.append(calibrate.interpreter_run("pass", env))
        full.append(calibrate.interpreter_run("import agq.cli", env))
    return (statistics.median(full) - statistics.median(bare)) * 1000


def traced_run(w: Workload, items: list[Item], seed: int, trace_path: Path):
    """The same ops once untraced and once traced; outputs must agree."""
    from tracer import FUNCTIONS, Tracer

    ops = []
    rnd = 0
    while len(ops) < w.trace_ops:
        ops += round_order(w, items, seed, rnd)[:w.trace_ops - len(ops)]
        rnd += 1
    # Each op runs untraced and then traced, so both see the same state.
    runner = Runner(w, subprocess_cli=False)
    plain, traced, tracer = Tally(), Tally(), Tracer()
    for op_id, item in enumerate(ops):
        plain.add(runner, item, runner.op)
        with tracer:
            traced.add(runner, item, lambda it: tracer.run_op(op_id, runner.op, it))
    OUT.mkdir(exist_ok=True)
    tracer.write(trace_path)

    totals = tracer.layer_totals()
    metrics: dict[str, tuple[float, str]] = {}
    for name in ("op", *FUNCTIONS):
        calls, self_s = totals[name]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    metrics["cli.import_ms"] = (cli_import_ms() if w.name == "cli_fixtures" else 0.0, "ms")
    metrics["forbidden.calls_per_arrow"] = (
        totals["forbidden.sup_forbidden_from_arrow"][0] / max(traced.arrows, 1), "ratio")
    metrics["homdim.pdim_injective.calls_per_vertex"] = (
        totals["homdim.pdim_injective"][0] / max(traced.vertices, 1), "ratio")
    metrics["linalg.nonzero_frac"] = (
        tracer.matrix_nonzero / tracer.matrix_entries if tracer.matrix_entries else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (sum(traced.times) / sum(plain.times), "ratio")
    return metrics, plain, traced, len(tracer.start)


# -- reporting -----------------------------------------------------------------

def environment(items: list[Item]) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "agq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        # The ceiling keeps git from reporting a repository that encloses the checkout.
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                             ).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        rev = "none"

    def spread(values: list[int]) -> dict:
        return {"min": min(values), "median": statistics.median(values), "max": max(values),
                "total": sum(values)}

    distinct = {it.text: it for it in items}.values()
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "instances": len(distinct),
        "V": spread([it.vertices for it in distinct]),
        "A": spread([it.arrows for it in distinct]),
        "R": spread([it.relations for it in distinct]),
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    started = perf_counter()
    calibration = Calibration(w)
    setup_times, items = setup(w, seed, calibration)
    env = environment(items)
    print(f"# env: git_rev={env['git_rev']} src_sha256={env['src_sha256']} "
          f"python={env['python']} nproc={env['nproc']} platform={env['platform']}")
    print(f"# inputs: {env['instances']} distinct instances; "
          + "; ".join(f"{k} {env[k]['min']}..{env[k]['max']} (median {env[k]['median']})"
                      for k in ("V", "A", "R")))
    if trace:
        trace_path = OUT / f"trace-{name}-seed{seed}.csv.gz"
        metrics, plain, traced, spans = traced_run(w, items, seed, trace_path)
        attempted = len(plain.times) + len(traced.times)
        failed = plain.failed + traced.failed
        problems = plain.problems + traced.problems
        print(f"# traced: {len(traced.times)} ops, {spans} spans written to "
              f"{trace_path.relative_to(ROOT)}")
        for key, (value, unit) in metrics.items():
            print(f"{key} {value} {unit}")
    else:
        tally = timed_run(w, items, seed, seconds, started + HARD_CAP_S, calibration)
        speed = calibration.speed()
        attempted, failed, problems = len(tally.times), tally.failed, tally.problems
        metrics = end_to_end(w, tally, setup_times, speed)
        raw = end_to_end(w, tally, setup_times, 1.0)
        names = display_names(w)
        for key, (value, unit) in metrics.items():
            notes = [f"n={len(tally.times)}"] if key in SAMPLED else []
            if key != "peak_rss_mb":
                notes.append(f"unscaled {raw[key][0]:.6g}")
            print(f"{names[key]} {value} {unit}" + (f" ({', '.join(notes)})" if notes else ""))
        print(f"error_rate {failed / attempted} ({failed}/{attempted} ops failed)")
        print(f"# speed scale {speed:.4f}: calibration task median "
              f"{statistics.median(calibration.times) * 1000:.4f} ms over "
              f"{len(calibration.times)} runs, reference {calibration.reference_s * 1000} ms")
        print(f"# measured {sum(tally.times):.3f} s of ops; set-up runs "
              + ", ".join(f"{t:.4f}" for t in setup_times) + " s")
        env.update(calibration_s=calibration.times, speed_scale=speed, op_times_s=tally.times,
                   unscaled={k: v for k, (v, _u) in raw.items()})
    for p in problems:
        print(f"# problem: {p}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"workload": name, "seed": seed, "seconds": seconds, "environment": env,
                    "setup_runs_s": setup_times, **result}, indent=1) + "\n",
        encoding="utf-8")
    return result


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    results = {}
    for name in WORKLOADS:
        print(f"## {name}", flush=True)
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "agq" / "__init__.py").is_file():
        print(f"error: no agq sources at {SRC / 'agq'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
