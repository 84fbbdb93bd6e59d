"""Correctness checks for the reports of benchmarked genosc CLI invocations.

A benchmark invocation counts as failed when it raised, exited non-zero, or
printed a report these checks reject.
"""
from __future__ import annotations

import json
from fractions import Fraction
from math import comb

VERIFY_CHECKS = (
    "det",
    "inverse",
    "ricci",
    "hamiltonian_field_closed_form",
    "bracket_consistency",
    "polarization",
    "polarization_negative_control",
)


def options(argv: list[str]) -> dict[str, str]:
    """The `--flag value` pairs of a subcommand argv."""
    return dict(zip(argv[1::2], argv[2::2]))


class ReportChecker:
    """Checks each report on its own, and that an argv repeated within one
    benchmark run prints byte-identical stdout."""

    def __init__(self):
        self._first_stdout: dict[tuple, str] = {}

    def check(self, argv: list[str], rc, stdout: str) -> list[str]:
        """Problems found in one invocation's exit code and stdout; empty if correct."""
        problems = []
        first = self._first_stdout.setdefault(tuple(argv), stdout)
        if stdout != first:
            problems.append("stdout differs from an earlier run of the same argv")
        if rc != 0:
            problems.append(f"exit code {rc!r}, expected 0")
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return problems + [f"stdout is not a JSON report: {exc}"]
        if not isinstance(report, dict):
            return problems + ["stdout is not a JSON object"]
        check_subcommand = {
            "verify": _check_verify,
            "dirac": _check_dirac,
            "spectrum": _check_spectrum,
        }[argv[0]]
        try:
            problems += check_subcommand(options(argv), report)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            problems.append(f"malformed report: {type(exc).__name__}: {exc}")
        return problems


def _check_verify(opts: dict, report: dict) -> list[str]:
    problems = []
    if report["pass"] is not True:
        problems.append('"pass" is not true')
    names = [c["name"] for c in report["checks"]]
    if sorted(names) != sorted(VERIFY_CHECKS):
        problems.append(f"checks are {names}, expected {list(VERIFY_CHECKS)}")
    problems += [f"check {c['name']} did not pass" for c in report["checks"] if c["pass"] is not True]
    control = report["residuals"]["polarization_negative_control"]
    if not control >= 1.0:
        problems.append(f"negative-control residual {control!r} < 1")
    if report["n_samples"] != int(opts["--samples"]):
        problems.append(f"n_samples {report['n_samples']!r} != --samples {opts['--samples']}")
    return problems


def _check_dirac(opts: dict, report: dict) -> list[str]:
    m = int(opts["--m"])
    problems = []
    if report["pass"] is not True:
        problems.append('"pass" is not true')
    if report["pairs_checked"] != m**4:
        problems.append(f"pairs_checked {report['pairs_checked']!r} != m**4 = {m**4}")
    if report["nonzero_residuals"] != 0:
        problems.append(f"nonzero_residuals {report['nonzero_residuals']!r} != 0")
    return problems


def _check_spectrum(opts: dict, report: dict) -> list[str]:
    m, lmax = int(opts["--m"]), int(opts["--lmax"])
    rows = report["rows"]
    if [row["l"] for row in rows] != list(range(lmax + 1)):
        return [f"rows cover l = {[row['l'] for row in rows]}, expected 0..{lmax}"]
    problems = []
    for row in rows:
        l = row["l"]
        if Fraction(row["eigenvalue"]) != Fraction(2 * l + m, 2):
            problems.append(f"l={l}: eigenvalue {row['eigenvalue']!r} != ({2 * l + m})/2")
        if row["eigenvalue_float"] != (2 * l + m) / 2:
            problems.append(f"l={l}: eigenvalue_float {row['eigenvalue_float']!r}")
        if row["multiplicity"] != comb(l + m - 1, m - 1):
            problems.append(
                f"l={l}: multiplicity {row['multiplicity']!r} != C({l + m - 1}, {m - 1})"
            )
    return problems
