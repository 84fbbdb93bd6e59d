"""The observable algebra F(m): exact structure constants, evaluation and
polarization checks.

Elements are complex-rational combinations of the moment-map functions
N^{ab'} = u' z^a zbar^b plus a constant, with the exact bracket
{N^{ab'}, N^{cd'}} = i (delta_bc N^{ad'} - delta_ad N^{cb'}).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .exact import I, ComplexRational, ZERO, _coerce
from .geometry import (
    ANTIHOLOMORPHIC,
    OscillatorParams,
    PhasePoint,
    ScalarField,
    _metric,
    _profile,
    wirtinger,
)
from .symplectic import TangentVector, _holo_part


@dataclass(frozen=True)
class AlgebraElement:
    """sum_ab coeff[a][b] N^{ab'} + constant, coefficients exact."""

    coeff: tuple
    constant: ComplexRational = ZERO

    def __init__(self, coeff, constant=ZERO):
        rows = tuple(tuple(_coerce(c) for c in row) for row in coeff)
        m = len(rows)
        if any(len(row) != m for row in rows):
            raise ValueError("coefficient matrix must be square")
        object.__setattr__(self, "coeff", rows)
        object.__setattr__(self, "constant", _coerce(constant))

    @property
    def m(self) -> int:
        return len(self.coeff)

    @classmethod
    def zero(cls, m: int) -> "AlgebraElement":
        return cls([[ZERO] * m for _ in range(m)])

    @classmethod
    def basis(cls, m: int, alpha: int, beta: int) -> "AlgebraElement":
        """N^{alpha beta'} (indices 0-based)."""
        if not (0 <= alpha < m and 0 <= beta < m):
            raise IndexError(f"basis indices ({alpha}, {beta}) out of range for m = {m}")
        coeff = [[ZERO] * m for _ in range(m)]
        coeff[alpha][beta] = ComplexRational.of(1)
        return cls(coeff)

    @classmethod
    def hamiltonian(cls, m: int) -> "AlgebraElement":
        """H = sum_a N^{aa'}, the generalized-oscillator energy."""
        coeff = [[ComplexRational.of(1 if i == j else 0) for j in range(m)] for i in range(m)]
        return cls(coeff)

    @classmethod
    def const(cls, m: int, value) -> "AlgebraElement":
        return cls([[ZERO] * m for _ in range(m)], _coerce(value))

    @property
    def is_real(self) -> bool:
        """True iff the element represents a real-valued function."""
        if self.constant.im:
            return False
        return all(
            self.coeff[i][j] == self.coeff[j][i].conjugate()
            for i in range(self.m)
            for j in range(self.m)
        )

    @property
    def is_zero(self) -> bool:
        return not self.constant and not any(c for row in self.coeff for c in row)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(
            [
                [self.coeff[i][j] + other.coeff[i][j] for j in range(self.m)]
                for i in range(self.m)
            ],
            self.constant + other.constant,
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "AlgebraElement":
        s = _coerce(scalar)
        return AlgebraElement(
            [[s * c for c in row] for row in self.coeff], s * self.constant
        )

    def _check(self, other: "AlgebraElement"):
        if self.m != other.m:
            raise DimensionMismatch(f"elements over m = {self.m} and m = {other.m}")

    def as_field(self, params: OscillatorParams) -> ScalarField:
        return lambda p: evaluate(self, params, p)


def moment_map(params: OscillatorParams, p) -> np.ndarray:
    """The basis observables at points p (..., m), N[..., a, b] = u' z^a zbar^b,
    of shape (..., m, m)."""
    z, prof = _profile(params, p)
    return prof.u_prime * z[..., :, None] * np.conj(z)[..., None, :]


def evaluate(e: AlgebraElement, params: OscillatorParams, p) -> complex | np.ndarray:
    """Pointwise value constant + sum c[a][b] N[a, b] of the moment map N at
    points p (..., m), of shape (...)."""
    if e.m != params.m:
        raise DimensionMismatch(f"element over m = {e.m}, params have m = {params.m}")
    N = moment_map(params, p)
    total = np.full(N.shape[:-2], complex(e.constant))
    for a, row in enumerate(e.coeff):
        for b, c in enumerate(row):
            if c:
                total = total + complex(c) * N[..., a, b]
    return total[()]


def structure_bracket(e1: AlgebraElement, e2: AlgebraElement) -> AlgebraElement:
    """Exact Poisson bracket on F(m).

    Bilinear extension of {N^{ab'}, N^{cd'}} = i(delta_bc N^{ad'} - delta_ad N^{cb'}),
    which collapses to i (C1 C2 - C2 C1) on coefficient matrices; constants are
    central.  Only products of nonzero coefficients are formed, so the bracket
    of two basis elements costs a few exact operations at any m.
    """
    e1._check(e2)
    forward, backward = _sparse_product(e1, e2), _sparse_product(e2, e1)
    out = [[ZERO] * e1.m for _ in range(e1.m)]
    for a, d in forward.keys() | backward.keys():
        out[a][d] = I * (forward.get((a, d), ZERO) - backward.get((a, d), ZERO))
    return AlgebraElement(out)


def _sparse_product(x: AlgebraElement, y: AlgebraElement) -> dict:
    """The coefficient matrix product X Y as {(a, d): value}, summed over the
    nonzero pairs x[a][b] y[b][d] only."""
    rows = [[(d, c) for d, c in enumerate(row) if c] for row in y.coeff]
    out: dict = {}
    for a, row in enumerate(x.coeff):
        for b, c1 in enumerate(row):
            if c1:
                for d, c2 in rows[b]:
                    out[a, d] = out.get((a, d), ZERO) + c1 * c2
    return out


def closed_form_field(alpha: int, beta: int, p) -> TangentVector:
    """The Hamiltonian field of N^{alpha beta'} in closed form at points p:
    i (z^alpha d_beta - zbar^beta d_alphabar).  Independent of a."""
    z = np.asarray(p, dtype=complex)
    m = z.shape[-1]
    if not (0 <= alpha < m and 0 <= beta < m):
        raise IndexError(f"indices ({alpha}, {beta}) out of range for m = {m}")
    holo = np.zeros_like(z)
    anti = np.zeros_like(z)
    holo[..., beta] = 1j * z[..., alpha]
    anti[..., alpha] = -1j * np.conj(z[..., beta])
    return TangentVector(holo, anti)


def preserves_polarization(
    f: ScalarField, params: OscillatorParams, samples: list[PhasePoint]
) -> float:
    """Residual of the test whether f preserves the antiholomorphic polarization.

    At each sample the holomorphic components of X_f must be antiholomorphically
    constant; the residual is max over samples, components and directions of
    |dbar_b (X_f)^a_holo|.  An array-valued f is tested entry by entry.
    """
    holo = lambda q: _holo_part(f, _metric(params, q)[1], q)
    return max(
        (float(np.max(np.abs(wirtinger(holo, p, ANTIHOLOMORPHIC)))) for p in samples),
        default=0.0,
    )
