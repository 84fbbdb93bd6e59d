"""Tests of the benchmark's checker and tracer:  python3 -m pytest perfbench"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

VERIFY = ["verify", "--m", "2", "--a", "1", "--samples", "1", "--seed", "5"]
DIRAC = ["dirac", "--m", "2", "--l", "2"]
SPECTRUM = ["spectrum", "--m", "3", "--lmax", "3"]
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in SPEC["per_layer"] if m["name"] != "trace.overhead_frac"]


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


def outputs(cli, argv):
    rc, stdout, _ = run.invoke(cli, argv)
    return rc, stdout


@pytest.mark.parametrize("argv", [VERIFY, DIRAC, SPECTRUM])
def test_checker_accepts_genuine_reports(cli, argv):
    assert check.ReportChecker().check(argv, *outputs(cli, argv)) == []


def test_checker_flags_flipped_pass(cli):
    rc, stdout = outputs(cli, VERIFY)
    tampered = stdout[: stdout.rindex('"pass": true')] + '"pass": false}\n'
    assert check.ReportChecker().check(VERIFY, rc, tampered)


def test_checker_flags_wrong_multiplicity(cli):
    rc, stdout = outputs(cli, SPECTRUM)
    report = json.loads(stdout)
    report["rows"][2]["multiplicity"] += 1
    assert check.ReportChecker().check(SPECTRUM, rc, json.dumps(report))


def test_checker_flags_changed_byte_on_repeat(cli):
    rc, stdout = outputs(cli, VERIFY)
    checker = check.ReportChecker()
    assert checker.check(VERIFY, rc, stdout) == []
    i = stdout.index("e-")
    tampered = stdout[: i - 1] + str((int(stdout[i - 1]) + 1) % 10) + stdout[i:]
    assert checker.check(VERIFY, rc, tampered) == [
        "stdout differs from an earlier run of the same argv"
    ]


def traced(cli, argvs):
    with tracer.Tracer() as t:
        stdouts = [outputs(cli, argv)[1] for argv in argvs]
    samples = sum(run.work(argv)["samples"] for argv in argvs if argv[0] == "verify")
    return stdouts, {name: t.metric(name, samples) for name in PER_LAYER}


@pytest.mark.parametrize(
    "argvs, layers",
    [
        ([VERIFY], ("cli.", "campaigns.", "geometry.", "symplectic.", "observables.")),
        ([DIRAC, SPECTRUM], ("cli.", "quantization.", "exact.")),
    ],
)
def test_traced_run_matches_untraced_and_counts_repeat(cli, argvs, layers):
    plain = [outputs(cli, argv)[1] for argv in argvs]
    first, values = traced(cli, argvs)
    second, again = traced(cli, argvs)
    assert first == plain == second
    assert run.exact_counts(values) == run.exact_counts(again)
    exercised = [n for n in PER_LAYER if n.startswith(layers) and n != "geometry.errors"]
    assert exercised and [n for n in exercised if not values[n]] == []


def test_tracer_restores_every_binding(cli):
    import genosc.campaigns
    import genosc.exact

    before = (cli.main, genosc.campaigns.metric_at, genosc.exact.ComplexRational.__add__)
    with tracer.Tracer():
        assert genosc.campaigns.metric_at.__wrapped__ is before[1]
        assert cli.main.__wrapped__ is before[0]
    assert (cli.main, genosc.campaigns.metric_at, genosc.exact.ComplexRational.__add__) == before


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(1, 31)]) == (20.0, 100.0 * 20 / 30)
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def test_cycle_is_a_function_of_the_seed():
    for workload in SPEC["workloads"]:
        assert run.cycle(workload["name"], 3) == run.cycle(workload["name"], 3)
    assert run.cycle("verify-points", 3) != run.cycle("verify-points", 4)
