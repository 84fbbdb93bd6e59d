"""End-to-end acceptance suite.

One test per criterion, each at its pinned tolerance, printing a pass/fail
line (visible with ``pytest -s`` or on failure).  Run with
``pytest tests/test_acceptance.py -v``.
"""
import itertools
import json
import subprocess
import sys
from fractions import Fraction
from math import comb

import numpy as np

from genosc import (
    AlgebraElement,
    OscillatorParams,
    dirac_nonzero,
    metric_at,
    ricci_at,
    sample_points,
    spectrum_of_H,
    structure_bracket,
)
from genosc.campaigns import (
    bracket_residual,
    field_residual,
    polarization_residuals,
)


def report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_ricci_flatness():
    worst_det = 0.0
    worst_ricci = 0.0
    for m, a in itertools.product((2, 4), (0.0, 0.5, 1.0, 2.0)):
        params = OscillatorParams(m=m, a=a)
        points = sample_points(params, 1000, seed=1000 * m + int(10 * a))
        worst_det = max(
            worst_det, max(abs(metric_at(params, p).det_g - 1.0) for p in points)
        )
        worst_ricci = max(
            worst_ricci,
            max(float(np.max(np.abs(ricci_at(params, p)))) for p in points[:100]),
        )
    ok = worst_det <= 1e-10 and worst_ricci <= 1e-5
    report(
        "criterion 1 (Ricci-flatness)",
        ok,
        f"max |det g - 1| = {worst_det:.3e} (tol 1e-10), "
        f"max |Ricci| = {worst_ricci:.3e} (tol 1e-5)",
    )


def test_criterion_2_closed_form_fields():
    worst = 0.0
    for m, a in itertools.product((2, 4), (0.0, 1.0)):
        params = OscillatorParams(m=m, a=a)
        points = sample_points(params, 200, seed=2000 + m + int(a))
        worst = max(worst, field_residual(params, points))
    report(
        "criterion 2 (closed-form Hamiltonian fields)",
        worst <= 1e-7,
        f"max residual = {worst:.3e} (tol 1e-7)",
    )


def test_criterion_3_structure_constants():
    worst = 0.0
    for a in (0.0, 1.0):
        params = OscillatorParams(m=2, a=a)
        points = sample_points(params, 100, seed=3000 + int(a))
        worst = max(worst, bracket_residual(params, points))
    report(
        "criterion 3 (structure constants)",
        worst <= 1e-7,
        f"max numeric-vs-exact bracket residual = {worst:.3e} (tol 1e-7)",
    )


def test_criterion_4_algebra_exactness():
    for m in (2, 3):
        basis = [AlgebraElement.basis(m, a, b) for a in range(m) for b in range(m)]
        for e1, e2 in itertools.product(basis, repeat=2):
            assert structure_bracket(e1, e2) == (-1) * structure_bracket(e2, e1)
        for e1, e2, e3 in itertools.product(basis, repeat=3):
            total = (
                structure_bracket(structure_bracket(e1, e2), e3)
                + structure_bracket(structure_bracket(e2, e3), e1)
                + structure_bracket(structure_bracket(e3, e1), e2)
            )
            assert total == AlgebraElement(m)
    for m in (2, 3, 4):
        h = AlgebraElement.hamiltonian(m)
        for a in range(m):
            for b in range(m):
                assert structure_bracket(h, AlgebraElement.basis(m, a, b)) == AlgebraElement(m)
    report(
        "criterion 4 (algebra exactness)",
        True,
        "antisymmetry + Jacobi exhaustive for m <= 3, H central for m <= 4, all exact",
    )


def test_criterion_5_polarization():
    worst_pass = 0.0
    worst_control = float("inf")
    for a in (0.0, 1.0):
        params = OscillatorParams(m=2, a=a)
        points = sample_points(params, 50, seed=5000 + int(a))
        preserved, control = polarization_residuals(params, points, poly_seed=5)
        worst_pass = max(worst_pass, preserved)
        worst_control = min(worst_control, control)
    ok = worst_pass <= 1e-5 and worst_control >= 1.0
    report(
        "criterion 5 (polarization)",
        ok,
        f"max preserving residual = {worst_pass:.3e} (tol 1e-5), "
        f"min control residual = {worst_control:.3e} (required >= 1)",
    )


def test_criterion_6_dirac_condition_exact():
    checked = 0
    for m in (2, 3):
        for l in range(5):
            assert dirac_nonzero(m, l) == 0
            checked += m**4
    report(
        "criterion 6 (Dirac condition, exact)",
        True,
        f"{checked} (pair, degree) combinations, all residuals exactly zero",
    )


def test_criterion_7_spectrum():
    for m in (2, 4):
        for l in range(7):
            line = spectrum_of_H(OscillatorParams(m=m), l)
            assert line.eigenvalue == Fraction(2 * l + m, 2)
            assert line.multiplicity == comb(l + m - 1, m - 1)
    # flat-oscillator ladder: spacing hbar, ground state m/2, for every a
    for a in (0.0, 0.5, 2.0):
        eigs = [
            spectrum_of_H(OscillatorParams(m=2, a=a), l).eigenvalue for l in range(7)
        ]
        assert eigs[0] == Fraction(1)
        assert all(hi - lo == 1 for lo, hi in zip(eigs, eigs[1:]))
    report(
        "criterion 7 (spectrum)",
        True,
        "Q(H) = (l + m/2) hbar x identity verified by assembly, m in {2, 4}, l <= 6; "
        "ladder spacing hbar, independent of a",
    )


def test_criterion_8_reproducibility():
    args = [
        sys.executable, "-m", "genosc", "verify",
        "--m", "2", "--a", "1", "--samples", "25", "--seed", "99",
    ]
    first = subprocess.run(args, capture_output=True, check=True).stdout
    second = subprocess.run(args, capture_output=True, check=True).stdout
    ok = first == second
    assert json.loads(first)["pass"] is True
    report(
        "criterion 8 (reproducibility)",
        ok,
        "verify output byte-identical across two runs",
    )
