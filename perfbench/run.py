#!/usr/bin/env python3
"""Benchmark of genosc verification campaigns, run the way users run them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's argv cycle is generated from --seed (see `cycle`), and each
argv is passed to `genosc.cli.main` in this process, with every CLI default,
including `--workers 1`.  Whole cycles run until --seconds have passed and
at least 11 invocations were timed, so that a tail percentile with 10 samples
beyond it exists.  Every report is checked (check.py).

Times are scaled by the machine's speed, measured in the same run (see
REFERENCE_S).  --trace 0 reports the end-to-end metrics of BENCHMARK.json.
--trace 1 runs each cycle once untraced and once under tracer.Tracer,
requires the two stdouts to be byte-identical and the exact counts to repeat
in every traced cycle, and reports the per-layer metrics of BENCHMARK.json
per cycle.

Standard output ends with one JSON line: correct, attempted, failed, metrics.
The lines before it give provenance, the unscaled values and each metric in
words.  Runs from a checkout that holds the genosc sources under src/;
elsewhere it exits 2.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from math import comb
from pathlib import Path
from time import perf_counter

import numpy as np

import check
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_INVOCATIONS = 11
MIN_TRACED_CYCLES = 2
# Stop starting cycles after this long, so a run ends within 180 s.
MAX_SECONDS = 150.0
SETUP_REPEATS = 7
# A shared machine's speed drifts by tens of percent over minutes.  Each run
# times reference_kernel before every invocation and scales its times by
# REFERENCE_S over the kernel's median time.  On a 2-core x86-64 VM this cut
# the run-to-run spread of the metrics by about half; the kernel tracks the
# machine's speed only roughly.  REFERENCE_S is the kernel's median time on
# that VM with Python 3.11 and numpy 2.4.
REFERENCE_S = 0.0090

# dirac --m 4 --l 3, the slowest command, runs twice a cycle so that the
# median and the tail fall inside one command's spread of times rather than
# on the gap between two commands.
EXACT_MIX = (
    ["dirac", "--m", "4", "--l", "3"],
    ["dirac", "--m", "4", "--l", "3"],
    ["dirac", "--m", "3", "--l", "4"],
    ["spectrum", "--m", "4", "--lmax", "12"],
    ["spectrum", "--m", "6", "--lmax", "6"],
)


def cycle(workload: str, seed: int) -> list[list[str]]:
    """The argvs one cycle of the workload runs; a pure function of the seed.

    The seed draws the `verify --seed` values.  exact-algebra has no random
    input: every run executes the same commands in the same order."""
    rng = random.Random(seed)
    if workload == "verify-points":
        return [
            ["verify", "--m", "2", "--a", "1", "--samples", "10", "--seed", str(rng.randrange(2**31))]
            for _ in range(4)
        ]
    if workload == "exact-algebra":
        return [list(argv) for argv in EXACT_MIX]
    raise ValueError(f"unknown workload {workload!r}")


def work(argv: list[str]) -> dict[str, int]:
    """Units of work one successful invocation verifies.

    samples: sample points (verify) or degree blocks (dirac: one, spectrum:
    lmax+1).  pairs: basis pairs whose bracket was checked, numerically
    (verify, m^4 per point) or exactly (dirac, m^4).  states: degree-l states
    whose Q(H) eigenvalue was verified (spectrum), or (field, point) pairs of
    the polarization check (verify: m^2 basis fields, 3 polynomials and the
    control per point).
    """
    opts = check.options(argv)
    m = int(opts["--m"])
    if argv[0] == "verify":
        n = int(opts["--samples"])
        return {"samples": n, "pairs": m**4 * n, "states": (m * m + 4) * n}
    if argv[0] == "dirac":
        return {"samples": 1, "pairs": m**4, "states": 0}
    lmax = int(opts["--lmax"])
    states = sum(comb(l + m - 1, m - 1) for l in range(lmax + 1))
    return {"samples": lmax + 1, "pairs": 0, "states": states}


def load_cli():
    """Import genosc.cli from this checkout's src/, or exit 2."""
    if not (SRC / "genosc" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no genosc sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import genosc.cli

    if Path(genosc.cli.__file__).resolve().parent != SRC / "genosc":
        sys.stderr.write(f"perfbench: imported genosc from {genosc.cli.__file__}, not {SRC}\n")
        sys.exit(2)
    return genosc.cli


def invoke(cli, argv: list[str]):
    """Run one CLI invocation in-process: (exit code or None if it raised,
    stdout, seconds)."""
    out = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            error = traceback.format_exc()
    elapsed = perf_counter() - start
    if rc is None:
        sys.stderr.write(f"perfbench: {' '.join(argv)} raised\n{error}")
    return rc, out.getvalue(), elapsed


def setup_seconds() -> float:
    """Wall time for a fresh interpreter to import genosc.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import genosc.cli"],
        cwd=ROOT,
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return perf_counter() - start


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(times)
    k = len(ordered) - 10
    if k < 1:
        raise ValueError(f"{len(ordered)} samples leave no percentile with 10 beyond it")
    return ordered[k - 1], 100.0 * k / len(ordered)


def reference_kernel():
    """Fixed work that does not touch genosc, of the kinds genosc does:
    exact rationals, dicts keyed by tuples, complex floats and small numpy
    linear algebra.  Its time says how fast the machine runs at the moment."""
    table = {}
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i, i + 1) * Fraction(1, 3)
        table[(i, i % 7)] = total
    z = 0j
    for i in range(6000):
        z = z * 0.999 + complex(i, -i) * (1 + 1j)
    a = np.eye(3) * 2.0
    for i in range(300):
        np.linalg.inv(a + i)
    return total, z, len(table)


class Run:
    """Counts and checks the invocations of one benchmark run, and times the
    reference kernel before each of them."""

    def __init__(self, cli):
        self.cli = cli
        self.checker = check.ReportChecker()
        self.attempted = 0
        self.failed = 0
        self.counts_repeat = True
        self.reference_s: list[float] = []

    def speed_factor(self) -> float:
        """REFERENCE_S over the median reference-kernel time of this run.
        Times are multiplied by it, rates divided, so that they read as on a
        machine running the kernel in REFERENCE_S."""
        return REFERENCE_S / statistics.median(self.reference_s)

    def call(self, argv: list[str]):
        """Invoke and check argv: (stdout, seconds, passed).  The checker
        also requires an argv seen before in the run, traced or not, to
        print the same bytes again.  Garbage left by earlier invocations is
        collected before the clock starts."""
        gc.collect()
        start = perf_counter()
        reference_kernel()
        self.reference_s.append(perf_counter() - start)
        gc.collect()
        rc, stdout, elapsed = invoke(self.cli, argv)
        problems = self.checker.check(argv, rc, stdout)
        self.attempted += 1
        if problems:
            self.failed += 1
            sys.stderr.write(f"perfbench: {' '.join(argv)}: {'; '.join(problems)}\n")
        return stdout, elapsed, not problems


def measure(run: Run, argvs: list[list[str]], seconds: float) -> dict:
    """End-to-end metrics of whole cycles of argvs, untraced.

    The speed of a shared machine drifts over tens of seconds, so set-up is
    timed between cycles, spread over the run, and each rate divides an
    argv's work by the median time of its invocations.
    """
    times = []
    by_argv: dict[tuple, list[float]] = {tuple(argv): [] for argv in argvs}
    passes = dict.fromkeys(by_argv, 0)
    setups = []
    start = perf_counter()
    while True:
        spent = perf_counter() - start
        if len(setups) <= min(SETUP_REPEATS - 1, SETUP_REPEATS * spent / seconds):
            setups.append(setup_seconds())
        for argv in argvs:
            _, elapsed, passed = run.call(argv)
            times.append(elapsed)
            by_argv[tuple(argv)].append(elapsed)
            passes[tuple(argv)] += passed
        spent = perf_counter() - start
        if spent >= MAX_SECONDS or (spent >= seconds and len(times) >= MIN_INVOCATIONS):
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_seconds())
    tail_value, tail_pct = tail(times)
    print(f"verdict_s.tail is p{tail_pct:.1f} of {len(times)} invocations (10 beyond it)")
    seconds_metrics = {
        "setup_s": statistics.median(setups),
        "verdict_s.p50": statistics.median(times),
        "verdict_s.tail": tail_value,
    }
    rates = {}
    for unit in ("samples", "pairs", "states"):
        done = busy = 0.0
        for argv in argvs:
            key = tuple(argv)
            count = work(argv)[unit]
            if count:
                done += count * passes[key] / len(by_argv[key])
                busy += statistics.median(by_argv[key])
        rates[f"{unit}_per_s"] = done / busy if busy else 0.0
    print_unscaled(run, {**seconds_metrics, **rates})
    factor = run.speed_factor()
    metrics = {name: value * factor for name, value in seconds_metrics.items()}
    metrics.update({name: value / factor for name, value in rates.items()})
    return metrics


def print_unscaled(run: Run, values: dict):
    print(
        f"reference kernel median {statistics.median(run.reference_s) * 1e3:.3f} ms"
        f" against {REFERENCE_S * 1e3:g} ms: speed factor {run.speed_factor():.4f}"
    )
    print("unscaled: " + ", ".join(f"{name} = {value:.6g}" for name, value in values.items()))


def exact_counts(values: dict) -> dict:
    """The per-layer values that are counts and must repeat exactly."""
    return {
        name: value
        for name, value in values.items()
        if name.endswith((".calls", ".calls_per_sample", ".unique_frac", ".errors", "_ops"))
    }


def measure_traced(run: Run, argvs: list[list[str]], seconds: float, names: list[str]) -> dict:
    """Per-layer metrics per cycle: each cycle runs untraced, then traced."""
    untraced_s = traced_s = 0.0
    cycles = []
    samples = sum(work(argv)["samples"] for argv in argvs if argv[0] == "verify")
    start = perf_counter()
    while True:
        for argv in argvs:
            _, elapsed, _ = run.call(argv)
            untraced_s += elapsed
        # The checker compares each traced stdout with the untraced one.
        with tracer.Tracer() as traced:
            for argv in argvs:
                _, elapsed, _ = run.call(argv)
                traced_s += elapsed
        cycles.append({name: traced.metric(name, samples) for name in names})
        spent = perf_counter() - start
        if spent >= MAX_SECONDS or (spent >= seconds and len(cycles) >= MIN_TRACED_CYCLES):
            break
    first = exact_counts(cycles[0])
    for i, values in enumerate(cycles[1:], 2):
        if exact_counts(values) != first:
            run.counts_repeat = False
            sys.stderr.write(f"perfbench: exact counts of traced cycle {i} differ from cycle 1\n")
    print(f"exact counts per cycle (repeated in {len(cycles)} cycles): {json.dumps(first)}")
    times = {
        name: statistics.fmean(c[name] for c in cycles)
        for name in cycles[0]
        if name.endswith((".s", ".self_s"))
    }
    print_unscaled(run, times)
    factor = run.speed_factor()
    metrics = {name: value * factor for name, value in times.items()}
    metrics.update(first)
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return metrics


def git_sha() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(why))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    import numpy

    argvs = cycle(args.workload, args.seed)
    provenance = {
        "workload": args.workload,
        "why": why[args.workload],
        "seed": args.seed,
        "cycle": [" ".join(a) for a in argvs],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
    }
    print(json.dumps(provenance))

    run = Run(cli)
    if args.trace:
        declared = spec["per_layer"]
        names = [m["name"] for m in declared if m["name"] != "trace.overhead_frac"]
        values = measure_traced(run, argvs, args.seconds, names)
    else:
        declared = spec["end_to_end"]
        values = measure(run, argvs, args.seconds)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(f"failed_frac = {run.failed / run.attempted:.4g} ({run.failed} of {run.attempted})")
    result = {
        "correct": run.failed == 0 and run.counts_repeat,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
