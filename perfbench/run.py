"""End-to-end benchmark of the genrank command line, with a traced per-layer run.

    python3 perfbench/run.py --workload rho-auto --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from `src/`.
The benchmark writes seeded fixtures under `.perfbench_work/`, then drives
`genrank.cli.main(argv)` in-process as a closed loop (one client, one
thread; each solve starts after the previous one returns) over the
workload's instance set, pass after pass, for `--seconds` seconds of solve
time.  `gc.collect()` runs untimed between solves.  After timing, every
solve's output is checked against an independent path on unwrapped code.

With `--trace 0` the last line reports the end-to-end metrics:
  solves_per_s  solves per second of solve time, from each solve's median
                time over at least 3 passes
  peak_rss_mb   peak resident memory of this process, read after timing
  setup_s       median of 11 set-ups: a fresh import of genrank.cli (its
                modules dropped from sys.modules first), plus fixture
                generation and writes
With `--trace 1` it reports the per-layer metrics of a traced run (see
spans.py): half the time untraced, then at least two traced passes whose
exact counts must agree.

The last line is one JSON object with keys correct, attempted, failed and
metrics.  The exit code is 1 if any solve failed its check, 2 if the
benchmark cannot run (no `src/genrank` next to it).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 11
MIN_PASSES = 3
P61 = (1 << 61) - 1
# Median time of probe_kernel() on the machine the bounds were set on: a
# 2-core Intel Xeon virtual machine running Python 3.11.7.
REFERENCE_PROBE_S = 0.007

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import BUILDERS, CHECKS  # noqa: E402


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_genrank() -> None:
    """First import of the checkout's genrank, which also compiles it."""
    if not (SRC / "genrank" / "cli.py").is_file():
        fail(f"no genrank sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import genrank.cli

    if Path(genrank.cli.__file__).resolve().parent != SRC / "genrank":
        fail(f"imported genrank from {genrank.cli.__file__}, not from {SRC}")


def probe_kernel() -> None:
    """Fixed pure-Python work: Gauss-Jordan elimination over Q and over F_p.

    Timed next to every solve, it measures how fast this machine runs
    interpreted exact arithmetic at that moment.
    """
    rng = random.Random(7)
    q_rows = [[Fraction(rng.randint(-5, 5)) for _ in range(7)] for _ in range(6)]
    p_rows = [[rng.randrange(P61) for _ in range(14)] for _ in range(12)]
    for _ in range(3):
        for rows, inverse, reduce in ((q_rows, lambda a: 1 / a, lambda a: a),
                                      (p_rows, lambda a: pow(a, -1, P61), lambda a: a % P61)):
            work = [list(r) for r in rows]
            for col in range(len(work)):
                pivot = next((r for r in range(col, len(work)) if work[r][col]), None)
                if pivot is None:
                    continue
                work[col], work[pivot] = work[pivot], work[col]
                inv = inverse(work[col][col])
                work[col] = [reduce(a * inv) for a in work[col]]
                for r, row in enumerate(work):
                    if r != col and row[col]:
                        factor = row[col]
                        work[r] = [reduce(a - factor * b) for a, b in zip(row, work[col])]


def probe() -> float:
    start = time.perf_counter()
    probe_kernel()
    return time.perf_counter() - start


def scaled(measure):
    """Run measure(); return its wall time, that time at the reference speed,
    and what measure() returned.

    The probe runs before and after, and the wall time is scaled by
    REFERENCE_PROBE_S over their mean.  A shared machine drifts in speed by
    20-30% over minutes; the scaled time cancels that drift to first order,
    while a change to genrank still moves it in full.
    """
    before = probe()
    start = time.perf_counter()
    result = measure()
    elapsed = time.perf_counter() - start
    after = probe()
    return elapsed, elapsed * REFERENCE_PROBE_S * 2 / (before + after), result


def fresh_import():
    """Import genrank.cli anew from its compiled files; returns the module."""
    for name in [n for n in sys.modules if n == "genrank" or n.startswith("genrank.")]:
        del sys.modules[name]
    return importlib.import_module("genrank.cli")


def time_setup(workload: str, seed: int, workdir: str):
    """Median scaled set-up time over SETUP_REPEATS.

    Returns it with the solve list and the genrank.cli module of the last
    set-up, which the timed loop and the tracer then use.
    """
    times = []
    for rep in range(SETUP_REPEATS):
        directory = os.path.join(workdir, f"setup{rep}")

        def set_up():
            cli = fresh_import()
            os.mkdir(directory)
            return BUILDERS[workload](directory, random.Random(seed)), cli

        _, at_reference, (solves, cli) = scaled(set_up)
        times.append(at_reference)
    return statistics.median(times), solves, cli


def run_pass(main, solves: list[dict], results: list[tuple[int, int, str]]) -> tuple[float, list[float]]:
    """One closed-loop pass over the instance set.

    Returns the pass's wall time and each solve's scaled time.
    """
    busy = 0.0
    times = []
    for i, solve in enumerate(solves):
        out, err = io.StringIO(), io.StringIO()

        def solve_once():
            try:
                return main(list(solve["argv"]))
            except (Exception, SystemExit):
                traceback.print_exc()
                return -1

        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            elapsed, at_reference, code = scaled(solve_once)
        busy += elapsed
        times.append(at_reference)
        if code != 0:
            print(f"perfbench: {' '.join(solve['argv'])} exited {code}: {err.getvalue()}",
                  file=sys.stderr)
        results.append((i, code, out.getvalue()))
        gc.collect()
    return busy, times


def solves_per_s(passes: list[list[float]]) -> float:
    """Solves per second of a pass made of each solve's median scaled time.

    Taking the median per solve rather than per pass keeps one disturbed
    stretch of a noisy machine from moving a whole pass.
    """
    per_solve = [statistics.median(times) for times in zip(*passes)]
    return len(per_solve) / sum(per_solve)


def run_for(main, solves: list[dict], seconds: float, min_passes: int,
            results: list) -> list[list[float]]:
    """Whole passes until `seconds` of solve time and at least `min_passes`."""
    passes = []
    busy = 0.0
    while len(passes) < min_passes or busy < seconds:
        elapsed, times = run_pass(main, solves, results)
        busy += elapsed
        passes.append(times)
    return passes


def count_failures(workload: str, solves: list[dict], results: list) -> int:
    """Solves that exited nonzero, changed output between passes, or fail the check."""
    first: dict[int, str] = {}
    for i, code, text in results:
        if code == 0:
            first.setdefault(i, text)
    parsed = []
    for i in range(len(solves)):
        try:
            parsed.append(json.loads(first[i]))
        except (KeyError, json.JSONDecodeError):
            parsed.append(None)
    bad = set()
    for i, (solve, out) in enumerate(zip(solves, parsed)):
        try:
            if out is None or not CHECKS[workload](solve, out, parsed):
                bad.add(i)
        except Exception:
            traceback.print_exc()
            bad.add(i)
    if bad:
        print(f"perfbench: wrong answers from solves {sorted(bad)}", file=sys.stderr)
    return sum(1 for i, code, text in results if code != 0 or i in bad or text != first.get(i))


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(main, solves, seconds, setup_s, results) -> dict:
    passes = run_for(main, solves, seconds, MIN_PASSES, results)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "solves_per_s": metric(solves_per_s(passes), "1/s"),
        "peak_rss_mb": metric(peak_kb / 1024, "MB"),
        "setup_s": metric(setup_s, "s"),
    }


def per_layer(main, solves, seconds, results) -> dict:
    from spans import TIMED_LAYERS, Tracer

    untraced = solves_per_s(run_for(main, solves, seconds / 2, 2, results))
    tracer = Tracer()
    tracer.install()
    try:
        traced_main = tracer.span("cli.main", main)
        counts = None
        self_s = dict.fromkeys(TIMED_LAYERS, 0.0)
        passes = []
        busy = 0.0
        while len(passes) < 2 or busy < seconds / 2:
            tracer.reset()
            elapsed, times = run_pass(traced_main, solves, results)
            busy += elapsed
            passes.append(times)
            pass_counts = tracer.exact_counts()
            if counts is not None and pass_counts != counts:
                diff = {k: (counts[k], pass_counts[k]) for k in counts if counts[k] != pass_counts[k]}
                raise RuntimeError(f"exact counts differ between traced passes: {diff}")
            counts = pass_counts
            for layer in TIMED_LAYERS:
                self_s[layer] += tracer.self_s[layer]
    finally:
        tracer.restore()
    total = sum(self_s.values())
    out = {}
    for name, value in counts.items():
        unit = "ratio" if name.endswith("reuse_ratio") else "count"
        out[name] = metric(value, unit)
    for layer in TIMED_LAYERS:
        out[f"{layer}.self_s"] = metric(self_s[layer] / len(passes), "s")
        out[f"{layer}.share"] = metric(self_s[layer] / total, "ratio")
    out["trace.overhead"] = metric(solves_per_s(passes) / untraced, "ratio")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import_genrank()
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=str(WORK))
    try:
        setup_s, solves, cli = time_setup(args.workload, args.seed, workdir)
        results: list[tuple[int, int, str]] = []
        if args.trace:
            metrics = per_layer(cli.main, solves, args.seconds, results)
        else:
            metrics = end_to_end(cli.main, solves, args.seconds, setup_s, results)
        failed = count_failures(args.workload, solves, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
