"""Sampled verification campaigns tying the exact algebra to the geometry.

Each campaign returns a max-over-samples residual, so the report does not
depend on the order in which the samples are visited.  Apart from inverse,
which reads metric_at point by point, a campaign evaluates all its points as
one (n, m) array in one kernel call; the caller bounds n.
"""
from __future__ import annotations

from functools import partial
from typing import Sequence

import numpy as np

from .geometry import (
    OscillatorParams,
    PhasePoint,
    _metric_parts,
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


def det_residual(params: OscillatorParams, points: Sequence[PhasePoint]) -> float:
    """max |det g - 1|, the Ricci-flatness witness, from the closed-form g of
    every point and one stacked determinant: per point, the det_g of
    metric_at bit for bit."""
    g = _metric_parts(params, points)[0]
    return _worst(np.linalg.det(g).real - 1.0)


def inverse_residual(params: OscillatorParams, points: Sequence[PhasePoint]) -> float:
    """max entrywise |closed-form inverse - direct numerical inverse|, as
    metric_at measures it for its own cross-check (0 when there are no points)."""
    return float(max((metric_at(params, p).inverse_deviation for p in points), default=0.0))


def _worst(deviation: np.ndarray) -> float:
    """max |deviation| over every entry."""
    return float(np.max(np.abs(deviation)))


def ricci_residual(params: OscillatorParams, points: Sequence[PhasePoint]) -> float:
    """max entrywise |R_{ab'}| by nested finite differencing of log det g."""
    return _worst(ricci_at(params, np.asarray(points, dtype=complex)))


def field_residual(params: OscillatorParams, points: Sequence[PhasePoint]) -> float:
    """max deviation of the numeric Hamiltonian field of every N^{ab'} from
    the closed form i (z^a d_b - zbar^b d_abar)."""
    z = np.asarray(points, dtype=complex)
    num = hamiltonian_field(lambda q: moment_map(params, q), params, z)
    ref = closed_form_field(z)
    return max(_worst(num.holo - ref.holo), _worst(num.anti - ref.anti))


def bracket_residual(params: OscillatorParams, points: Sequence[PhasePoint]) -> float:
    """max over all basis 4-tuples of |numeric Poisson bracket - exact
    structure bracket evaluated on the moment map of the points|."""
    m = params.m
    z = np.asarray(points, dtype=complex)
    basis = [AlgebraElement.basis(m, a, b) for a in range(m) for b in range(m)]
    N = lambda q: moment_map(params, q)
    num = poisson_bracket(N, N, params, z)
    values = moment_map(params, z)
    ref = np.stack(
        [evaluate(structure_bracket(e1, e2), values) for e1 in basis for e2 in basis], axis=-1
    )
    return _worst(num - ref.reshape(num.shape))


#: Random holomorphic polynomials in the polarization check, and their degree.
POLARIZATION_POLYNOMIALS = 3
POLYNOMIAL_MAX_DEGREE = 3


def random_holomorphic_polynomials(m: int, seed: int):
    """POLARIZATION_POLYNOMIALS deterministic holomorphic polynomial fields
    for the polarization check.

    Each of a polynomial's three terms takes an exponent vector drawn
    uniformly from those of degree <= POLYNOMIAL_MAX_DEGREE, one index per
    draw, and a standard complex normal coefficient."""
    rng = np.random.default_rng(seed)
    exponents = [
        k for l in range(POLYNOMIAL_MAX_DEGREE + 1) for k in monomial_basis(m, l).indices
    ]
    polys = []
    for _ in range(POLARIZATION_POLYNOMIALS):
        terms = {}
        for _ in range(3):
            k = exponents[rng.integers(len(exponents))]
            terms[k] = complex(rng.standard_normal(), rng.standard_normal())
        polys.append(partial(_polynomial, terms=terms))
    return polys


def _polynomial(z, terms):
    """sum_k c_k z^k at points z (..., m), for terms {k: c_k}, of shape (...)
    also for a constant.  Coordinates with exponent 0 are skipped: their power
    is exactly 1."""
    total = np.zeros(z.shape[:-1], dtype=complex)
    for k, c in terms.items():
        term = c
        for a, e in enumerate(k):
            if e:
                # Named, so that numpy cannot write the product into the
                # power's buffer: it does so only for arrays of 256 KiB or
                # more, and the product's last bit would then depend on how
                # many points share z.
                power = z[..., a] ** e
                term = term * power
        total = total + term
    return total


def stencil_values_per_point(m: int) -> int:
    """Complex values in the largest array verify builds per point: the
    nested polarization stencil, (8 m)^2 points, of each of the m^2 basis
    fields, the POLARIZATION_POLYNOMIALS polynomials and the control."""
    return 64 * m**2 * (m**2 + POLARIZATION_POLYNOMIALS + 1)


def polarization_residuals(
    params: OscillatorParams, points: Sequence[PhasePoint], poly_seed: int = 0
) -> tuple[float, float]:
    """(max residual over polarization-preserving fields, negative-control
    residual).  Preserving fields: every N^{ab'} plus seeded random
    holomorphic polynomials; the control is (zbar^1)^2, which must fail.
    All m^2 + 4 fields are tested as one array field, the control last."""
    polys = random_holomorphic_polynomials(params.m, poly_seed)
    fields = lambda z: np.concatenate(
        [
            moment_map(params, z).reshape(z.shape[:-1] + (-1,)),
            np.stack([poly(z) for poly in polys] + [np.conj(z[..., 0]) ** 2], axis=-1),
        ],
        axis=-1,
    )
    residuals = preserves_polarization(fields, params, np.asarray(points, dtype=complex))
    return float(np.max(residuals[:-1])), float(residuals[-1])
