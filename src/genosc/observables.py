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
from .exact import I, ONE, ComplexRational, ZERO, _coerce
from .geometry import OscillatorParams, ScalarField, _profile, wirtinger
from .symplectic import TangentVector, hamiltonian_field


@dataclass(frozen=True)
class AlgebraElement:
    """sum over terms c N^{ab'} + constant, coefficients exact.

    ``terms`` maps (a, b) to its coefficient; only nonzero coefficients are
    kept, in ascending (a, b) order.
    """

    m: int
    terms: dict
    constant: ComplexRational = ZERO

    def __init__(self, m: int, terms=None, constant=ZERO):
        kept = []
        for (a, b), c in (terms or {}).items():
            if not (0 <= a < m and 0 <= b < m):
                raise IndexError(f"indices ({a}, {b}) out of range for m = {m}")
            c = _coerce(c)
            if c:
                kept.append(((a, b), c))
        self._fill(m, dict(sorted(kept)), _coerce(constant))

    def _fill(self, m: int, terms: dict, constant: ComplexRational):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "constant", constant)

    @classmethod
    def basis(cls, m: int, alpha: int, beta: int) -> "AlgebraElement":
        """N^{alpha beta'} (indices 0-based)."""
        return cls(m, {(alpha, beta): 1})

    @classmethod
    def hamiltonian(cls, m: int) -> "AlgebraElement":
        """H = sum_a N^{aa'}, the generalized-oscillator energy; its m unit
        coefficients are one shared ComplexRational.  Its terms are in range,
        nonzero and ascending as built, so they skip the per-term checks."""
        h = object.__new__(cls)
        h._fill(m, {(a, a): ONE for a in range(m)}, ZERO)
        return h

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, ZERO) + c
        return AlgebraElement(self.m, terms, self.constant + other.constant)

    def __rmul__(self, scalar) -> "AlgebraElement":
        s = _coerce(scalar)
        return AlgebraElement(
            self.m, {key: s * c for key, c in self.terms.items()}, s * self.constant
        )

    def _check(self, other: "AlgebraElement"):
        if self.m != other.m:
            raise DimensionMismatch(f"elements over m = {self.m} and m = {other.m}")


def moment_map(params: OscillatorParams, p) -> np.ndarray:
    """The basis observables at points p (..., m), N[..., a, b] = u' z^a zbar^b,
    of shape (..., m, m)."""
    z, prof = _profile(params, p)
    return prof.u_prime * z[..., :, None] * np.conj(z)[..., None, :]


def evaluate(e: AlgebraElement, N: np.ndarray) -> complex | np.ndarray:
    """Value constant + sum over terms c N[..., a, b] of e on moment-map values
    N (..., m, m), as moment_map returns them, of shape (...)."""
    if (e.m, e.m) != N.shape[-2:]:
        raise DimensionMismatch(f"element over m = {e.m}, moment map of shape {N.shape}")
    total = np.full(N.shape[:-2], complex(e.constant))
    for (a, b), c in e.terms.items():
        total = total + complex(c) * N[..., a, b]
    return total[()]


def structure_bracket(e1: AlgebraElement, e2: AlgebraElement) -> AlgebraElement:
    """Exact Poisson bracket on F(m).

    Bilinear extension of {N^{ab'}, N^{cd'}} = i(delta_bc N^{ad'} - delta_ad N^{cb'})
    over pairs of terms; constants are central.  The bracket of two basis
    elements costs a few exact operations at any m.
    """
    e1._check(e2)
    out: dict = {}
    for (a, b), x in e1.terms.items():
        for (c, d), y in e2.terms.items():
            if b == c:
                out[a, d] = out.get((a, d), ZERO) + I * x * y
            if a == d:
                out[c, b] = out.get((c, b), ZERO) - I * x * y
    return AlgebraElement(e1.m, out)


def closed_form_field(p) -> TangentVector:
    """The Hamiltonian fields of every N^{ab'} in closed form at points p
    (..., m), i (z^a d_b - zbar^b d_abar), independent of a.

    Laid out as hamiltonian_field of the moment map lays them out: component c
    of the field of N^{ab'} is at [..., c, a, b], so holo[..., c, a, b] =
    i delta_cb z^a and anti[..., c, a, b] = -i delta_ca zbar^b.
    """
    z = np.asarray(p, dtype=complex)
    eye = np.eye(z.shape[-1])
    holo = 1j * z[..., None, :, None] * eye[:, None, :]
    anti = -1j * np.conj(z)[..., None, None, :] * eye[:, :, None]
    return TangentVector(holo, anti)


def preserves_polarization(f: ScalarField, params: OscillatorParams, p) -> float | np.ndarray:
    """Residual of the test whether f preserves the antiholomorphic polarization.

    At points p (..., m), an array of points or a sequence of PhasePoints,
    the holomorphic components of X_f must be antiholomorphically constant;
    the residual is max over points, components and directions of
    |dbar_b (X_f)^a_holo|, from one nested stencil over all the points.  A
    scalar f gets a float; an array-valued f gets one residual per entry,
    an array of f's value shape.
    """
    holo = lambda q: hamiltonian_field(f, params, q).holo
    worst = np.max(np.abs(wirtinger(holo, p)[1]), axis=tuple(range(np.ndim(p) + 1)))
    return float(worst) if worst.ndim == 0 else worst
