"""Sampled verification campaigns tying the exact algebra to the geometry.

Each campaign returns a max-over-samples residual, so the report does not
depend on the order in which the samples are visited.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .geometry import (
    OscillatorParams,
    PhasePoint,
    metric_at,
    ricci_at,
)
from .observables import (
    AlgebraElement,
    closed_form_field,
    evaluate,
    preserves_polarization,
    structure_bracket,
)
from .symplectic import hamiltonian_field, poisson_bracket


def max_over_points(
    per_point: Callable[[PhasePoint], float], points: Sequence[PhasePoint]
) -> float:
    """Max of a per-point residual over the samples (0 when there are none)."""
    return float(max((per_point(p) for p in points), default=0.0))


def det_residual(params: OscillatorParams, points: Sequence[PhasePoint]) -> float:
    """max |det g - 1|, the Ricci-flatness witness."""
    return max_over_points(lambda p: abs(metric_at(params, p).det_g - 1.0), points)


def inverse_residual(params: OscillatorParams, points: Sequence[PhasePoint]) -> float:
    """max entrywise |closed-form inverse - direct numerical inverse|."""

    def per_point(p: PhasePoint) -> float:
        md = metric_at(params, p)
        return float(np.max(np.abs(md.g_inv - np.linalg.inv(md.g))))

    return max_over_points(per_point, points)


def ricci_residual(params: OscillatorParams, points: Sequence[PhasePoint]) -> float:
    """max entrywise |R_{ab'}| by nested finite differencing of log det g."""
    return max_over_points(lambda p: float(np.max(np.abs(ricci_at(params, p)))), points)


def field_residual(params: OscillatorParams, points: Sequence[PhasePoint]) -> float:
    """max deviation of the numeric Hamiltonian field of every N^{ab'} from
    the closed form i (z^a d_b - zbar^b d_abar)."""
    m = params.m
    fields = [
        (AlgebraElement.basis(m, a, b).as_field(params), a, b)
        for a in range(m)
        for b in range(m)
    ]

    def per_point(p: PhasePoint) -> float:
        worst = 0.0
        for f, a, b in fields:
            num = hamiltonian_field(f, params, p)
            ref = closed_form_field(a, b, p)
            dev = max(
                max(abs(x - y) for x, y in zip(num.holo, ref.holo)),
                max(abs(x - y) for x, y in zip(num.anti, ref.anti)),
            )
            worst = max(worst, float(dev))
        return worst

    return max_over_points(per_point, points)


def bracket_residual(params: OscillatorParams, points: Sequence[PhasePoint]) -> float:
    """max over all basis 4-tuples of |numeric Poisson bracket - exact
    structure bracket evaluated pointwise|."""
    m = params.m
    basis = [(AlgebraElement.basis(m, a, b), a, b) for a in range(m) for b in range(m)]
    pairs = []
    for e1, *_ in basis:
        for e2, *_ in basis:
            pairs.append((e1.as_field(params), e2.as_field(params), structure_bracket(e1, e2)))

    def per_point(p: PhasePoint) -> float:
        worst = 0.0
        for f1, f2, exact in pairs:
            num = poisson_bracket(f1, f2, params, p)
            ref = evaluate(exact, params, p)
            worst = max(worst, float(abs(num - ref)))
        return worst

    return max_over_points(per_point, points)


def random_holomorphic_polynomials(m: int, count: int, seed: int, max_degree: int = 3):
    """Deterministic holomorphic polynomial fields for polarization tests."""
    rng = np.random.default_rng(seed)
    polys = []
    for _ in range(count):
        terms = {}
        for _ in range(3):
            k = tuple(int(x) for x in rng.integers(0, max_degree + 1, size=m))
            while sum(k) > max_degree:
                k = tuple(int(x) for x in rng.integers(0, max_degree + 1, size=m))
            terms[k] = complex(rng.standard_normal(), rng.standard_normal())

        def field(p, terms=terms):
            total = 0j
            for k, c in terms.items():
                term = c
                for a, e in enumerate(k):
                    term *= p.z[a] ** e
                total += term
            return total

        polys.append(field)
    return polys


def polarization_residuals(
    params: OscillatorParams,
    points: Sequence[PhasePoint],
    tol: float,
    poly_seed: int = 0,
    n_polys: int = 3,
) -> tuple[float, float]:
    """(max residual over polarization-preserving fields, negative-control
    residual).  Preserving fields: every N^{ab'} plus seeded random
    holomorphic polynomials; the control is (zbar^1)^2, which must fail."""
    m = params.m
    fields = [
        AlgebraElement.basis(m, a, b).as_field(params) for a in range(m) for b in range(m)
    ]
    fields += random_holomorphic_polynomials(m, n_polys, poly_seed)
    worst = 0.0
    for f in fields:
        rep = preserves_polarization(f, params, list(points), tol)
        worst = max(worst, rep.max_residual)
    control = lambda p: p.z[0].conjugate() ** 2
    control_rep = preserves_polarization(control, params, list(points), tol)
    return worst, control_rep.max_residual
