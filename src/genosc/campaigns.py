"""Sampled verification campaigns tying the exact algebra to the geometry.

Each campaign returns a max-over-samples residual, so the report does not
depend on the order in which the samples are visited.
"""
from __future__ import annotations

from functools import partial
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
    moment_map,
    preserves_polarization,
    structure_bracket,
)
from .quantization import monomial_basis
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
    N = lambda q: moment_map(params, q)

    def per_point(p: PhasePoint) -> float:
        num = hamiltonian_field(N, params, p)
        worst = 0.0
        for a in range(m):
            for b in range(m):
                ref = closed_form_field(a, b, p)
                dev = max(
                    np.max(np.abs(num.holo[:, a, b] - ref.holo)),
                    np.max(np.abs(num.anti[:, a, b] - ref.anti)),
                )
                worst = max(worst, float(dev))
        return worst

    return max_over_points(per_point, points)


def bracket_residual(params: OscillatorParams, points: Sequence[PhasePoint]) -> float:
    """max over all basis 4-tuples of |numeric Poisson bracket - exact
    structure bracket evaluated pointwise|."""
    m = params.m
    basis = [AlgebraElement.basis(m, a, b) for a in range(m) for b in range(m)]
    exact = [structure_bracket(e1, e2) for e1 in basis for e2 in basis]
    N = lambda q: moment_map(params, q)

    def per_point(p: PhasePoint) -> float:
        num = poisson_bracket(N, N, params, p)
        ref = np.reshape([evaluate(e, params, p) for e in exact], num.shape)
        return float(np.max(np.abs(num - ref)))

    return max_over_points(per_point, points)


#: Random holomorphic polynomials in the polarization check, and their degree.
POLARIZATION_POLYNOMIALS = 3
POLYNOMIAL_MAX_DEGREE = 3


def random_holomorphic_polynomials(m: int, count: int, seed: int):
    """Deterministic holomorphic polynomial fields for polarization tests.

    Each of a polynomial's three terms takes an exponent vector drawn
    uniformly from those of degree <= POLYNOMIAL_MAX_DEGREE, one index per
    draw, and a standard complex normal coefficient."""
    rng = np.random.default_rng(seed)
    exponents = [
        k for l in range(POLYNOMIAL_MAX_DEGREE + 1) for k in monomial_basis(m, l).indices
    ]
    polys = []
    for _ in range(count):
        terms = {}
        for _ in range(3):
            k = exponents[rng.integers(len(exponents))]
            terms[k] = complex(rng.standard_normal(), rng.standard_normal())
        polys.append(partial(_polynomial, terms=terms))
    return polys


def _polynomial(z, terms):
    """sum_k c_k z^k at points z (..., m), for terms {k: c_k}."""
    total = 0j
    for k, c in terms.items():
        term = c
        for a, e in enumerate(k):
            term = term * z[..., a] ** e
        total = total + term
    return total


def polarization_residuals(
    params: OscillatorParams, points: Sequence[PhasePoint], poly_seed: int = 0
) -> tuple[float, float]:
    """(max residual over polarization-preserving fields, negative-control
    residual).  Preserving fields: every N^{ab'} plus seeded random
    holomorphic polynomials, tested as one array field; the control is
    (zbar^1)^2, which must fail."""
    polys = random_holomorphic_polynomials(params.m, POLARIZATION_POLYNOMIALS, poly_seed)
    preserving = lambda z: np.concatenate(
        [
            moment_map(params, z).reshape(z.shape[:-1] + (-1,)),
            np.stack([poly(z) for poly in polys], axis=-1),
        ],
        axis=-1,
    )
    control = lambda z: np.conj(z[..., 0]) ** 2
    return (
        preserves_polarization(preserving, params, list(points)),
        preserves_polarization(control, params, list(points)),
    )
