"""Closed-form Kähler geometry of the generalized oscillator.

The metric on C^m is g_{ab'} = u'' zbar^a z^b + u' delta_ab with radial
profile u' = (r^m - a^m)^(1/m) / r, r = sum_a |z^a|^2.  Its determinant is
identically 1 on the admissible domain r^m > a^m, which is the witness for
Ricci-flatness; this module evaluates the metric in closed form and provides
the numerical differentiation machinery (Wirtinger derivatives, curvature)
used to cross-check it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import ConditioningError, DomainError

#: Relative step for Wirtinger differencing, scaled per coordinate.
WIRTINGER_STEP = 1e-4

#: Entrywise tolerance between the closed-form and direct numerical inverse.
INVERSE_CONSISTENCY_TOL = 1e-8

# 4th-order central differences, f'(x) ~ sum_k w_k f(x + c_k h) / (12 h), taken
# along x and y and combined as d/dz = (d_x - i d_y) / 2, d/dzbar = (d_x + i d_y) / 2.
# The 8 displacements, c_k or i c_k in units of h, serve both kinds; each kind
# weighs them by w_k or -+i w_k, and its weighted sum of field values is 24 h
# times the derivative.  The integer weights stay exact and opposite offsets are
# adjacent, so a constant field sums to exactly 0.
_STENCIL = ((-2.0, 1.0), (2.0, -1.0), (-1.0, -8.0), (1.0, 8.0))
_WIRTINGER_SHIFTS = tuple(c * axis for axis in (1.0, 1j) for c, _ in _STENCIL)
#: The weights of d/dz^a and of d/dzbar^a, in the order of _WIRTINGER_SHIFTS.
_WIRTINGER_WEIGHTS = tuple(
    tuple(w * coef for coef in (1.0, ycoef) for _, w in _STENCIL) for ycoef in (-1j, 1j)
)

#: sample_points draws rho = (r^m - max(a^m, 0)) / c^m log-uniformly from
#: curved_zone(m), with c = max(1, |a|).  For |a| >= 1 the curved term
#: u'' zbar z of g is then 1/rho times the flat term u', so the samples test
#: the metric where it is curved.  c is at least 1 because the stencil step
#: never falls below WIRTINGER_STEP: with c = |a| the zone would shrink with
#: |a| towards the step, and verify failed polarization at a = 0.01 and
#: left the domain at a = 1e-6.
CURVED_ZONE = (0.1, 10.0)

#: Least distance, as a fraction of r, from a sample down to the
#: degeneration radius r = |a|.  A nested stencil moves a coordinate by up
#: to 4 WIRTINGER_STEP max(1, |z^a|), so r by up to about 8e-4 r when one
#: coordinate holds most of r, and the stencils' error grows about like the
#: inverse 5th power of this distance.  rho = 0.1 leaves 1 - 1.1^(-1/m) of r,
#: 4.7 % at m = 2 but 0.8 % at m = 12.  On points with all of r in one
#: coordinate, polarization (tolerance 1e-5) read 1e-4 at m = 12 there, and
#: 1.1e-7 at every m from 4 to 16 at this distance.  A rho range of
#: [0.01, 100] failed field, bracket and polarization at m = 4.
BOUNDARY_GAP = 0.03


@dataclass(frozen=True)
class OscillatorParams:
    """Global configuration: complex dimension m >= 1 and deformation a.

    hbar is not a parameter: quantization carries it as a symbolic unit.
    """

    m: int
    a: float = 0.0

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m!r}")


@dataclass(frozen=True)
class PhasePoint:
    """A point z in C^m with its radial invariant r = sum |z^a|^2.

    numpy sees it as its (m,) coordinate array, so every function of points
    takes a PhasePoint or an array of points alike.
    """

    z: tuple

    def __init__(self, z: Iterable[complex]):
        object.__setattr__(self, "z", tuple(complex(c) for c in z))

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.z, dtype=complex if dtype is None else dtype)

    @property
    def r(self) -> float:
        # Always recomputed from the coordinates, never cached or trusted.
        return sum((c * c.conjugate()).real for c in self.z)


@dataclass(frozen=True)
class PotentialProfile:
    """Radial profile scalars of the Kähler potential at r (floats, or arrays
    shaped like r)."""

    u_prime: float | np.ndarray
    u_double_prime: float | np.ndarray
    s: float | np.ndarray
    s_prime: float | np.ndarray


@dataclass(frozen=True)
class MetricData:
    """Metric matrix g[a][b] = g_{ab'}, its closed-form inverse, its
    determinant, and the inverse's largest entrywise deviation from the
    direct numerical inverse of g."""

    g: np.ndarray
    g_inv: np.ndarray
    det_g: float
    inverse_deviation: float


def _pow(x, y):
    """x ** y elementwise through Python floats, which call the C library's pow.

    radial_profile needs it once, for the m-th root.  numpy's own float pow is
    vectorized on some CPUs (SVML on AVX-512) and then differs in the last bit
    for about 5 % of arguments, so reports would depend on the machine.
    """
    return np.asarray(np.asarray(x, dtype=float).astype(object) ** y, dtype=float)[()]


def _power(x, n: int):
    """x ** n for an integer n >= 0 as the float product 1 * x * ... * x,
    multiplied left to right: IEEE multiplication gives the same bits on
    every machine, where the C library's pow does not."""
    out = 1.0
    for _ in range(n):
        out = out * x
    return out


def radial_profile(params: OscillatorParams, r) -> PotentialProfile:
    """Evaluate u', u'' and the auxiliary scalars s = r u', s' = u' + r u''
    at r, a float or an array of radii.

    The integer powers a^m, r^m, r^2 and s^(m-1) are float products and the
    root s = (r^m - a^m)^(1/m) is one _pow call.  Raises DomainError if any r
    is at or below 0 or the degeneration radius r^m = a^m, naming the first
    such r and which bound it breaks, and FloatingPointError if a power
    overflows a float.
    """
    m = params.m
    r = np.asarray(r, dtype=float)
    with np.errstate(over="raise"):
        a_m = _power(np.float64(params.a), m)
        dom = _power(r, m) - a_m
        bad = (r <= 0) | (dom <= 0)
        if np.count_nonzero(bad):
            i = np.argmax(bad)
            r_i, dom_i = np.ravel(r)[i], np.ravel(dom)[i]
            if r_i <= 0:
                raise DomainError(f"r = {r_i:g} <= 0")
            raise DomainError(f"r^m - a^m = {dom_i:g} <= 0 at r = {r_i:g}")
        s = _pow(dom, 1.0 / m)
        u_prime = s / r
        u_double_prime = a_m / (r * r * _power(s, m - 1))
        return PotentialProfile(u_prime, u_double_prime, s, u_prime + r * u_double_prime)


def _profile(params: OscillatorParams, p) -> tuple[np.ndarray, PotentialProfile]:
    """The points p as an array z (..., m) and the radial profile at each,
    shaped (..., 1, 1) to scale (m, m) blocks.  r is summed in coordinate
    order (accumulate, unlike sum, never pairs terms), as PhasePoint.r sums it.
    Raises DomainError unless each point has m coordinates."""
    z = np.asarray(p, dtype=complex)
    if z.shape[-1:] != (params.m,):
        raise DomainError(f"points of shape {z.shape} need {params.m} coordinates")
    r = np.add.accumulate(z.real * z.real + z.imag * z.imag, axis=-1)[..., -1:, None]
    return z, radial_profile(params, r)


def _metric_parts(params: OscillatorParams, p):
    """The metric g[..., a, b] = g_{ab'} = u'' zbar^a z^b + u' delta_ab at
    points p (..., m), with the points as an array z, the outer products
    zbar^a z^b and the radial profile it is built from."""
    z, prof = _profile(params, p)
    outer = np.conj(z)[..., :, None] * z[..., None, :]
    return prof.u_double_prime * outer + prof.u_prime * np.eye(params.m), z, outer, prof


def _metric(params: OscillatorParams, p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The metric g at points p (..., m), its Sherman-Morrison inverse and, per
    point, the inverse's largest entrywise deviation from direct numerical
    inversion, which must stay within INVERSE_CONSISTENCY_TOL."""
    g, z, outer, prof = _metric_parts(params, p)
    # Sherman-Morrison form of the inverse; satisfies g @ g_inv = I.
    g_inv = (np.eye(params.m) - (prof.u_double_prime / prof.s_prime) * outer) / prof.u_prime
    try:
        direct = np.linalg.inv(g)
    except np.linalg.LinAlgError:
        # Cancellation in u' + r u'' near r = 0 can leave an exactly singular g.
        raise ConditioningError("the closed-form metric is singular in floats") from None
    deviation = np.max(np.abs(g_inv - direct), axis=(-2, -1))
    worst = np.argmax(deviation)
    # Written so that a nan deviation fails too; argmax finds the first nan.
    if not np.ravel(deviation)[worst] <= INVERSE_CONSISTENCY_TOL:
        raise ConditioningError(
            f"closed-form and direct inverse disagree by {np.ravel(deviation)[worst]:.3e}"
            f" at z = {z.reshape(-1, params.m)[worst]}"
        )
    return g, g_inv, deviation


def metric_at(params: OscillatorParams, p: PhasePoint) -> MetricData:
    """The metric at p, its closed-form inverse, its determinant and the
    inverse's deviation from direct numerical inversion."""
    g, g_inv, deviation = _metric(params, p)
    return MetricData(g, g_inv, np.linalg.det(g).real, float(deviation))


#: A field on phase space: a function of points z of shape (..., m) whose
#: values have shape (..., *shape), complex scalars or arrays per point.
ScalarField = Callable[[np.ndarray], np.ndarray]


def wirtinger(field: ScalarField, p) -> tuple[np.ndarray, np.ndarray]:
    """Numerical Wirtinger derivatives of a field along every coordinate.

    Returns (d, dbar): d/dz^a = (d_x - i d_y)/2 and d/dzbar^a = (d_x + i d_y)/2
    for all m coordinates, each of shape (..., m, *shape).  Uses 4th-order
    central differences on the real and imaginary parts: the stencil of points
    p (..., m) has shape (..., m, 8, m), the field is called on it once, and
    the two kinds are two weightings of the same values.
    """
    z = np.asarray(p, dtype=complex)
    h = WIRTINGER_STEP * np.maximum(1.0, np.abs(z))
    # Coordinate a of the stencil's row a moves by shift * h[a]; the others stay.
    shifts = np.array(_WIRTINGER_SHIFTS)
    moves = (h[..., :, None] * shifts)[..., None] * np.eye(z.shape[-1])[:, None, :]
    values = np.moveaxis(field(z[..., None, None, :] + moves), z.ndim, 0)
    scale = 24.0 * h.reshape(h.shape + (1,) * (values.ndim - 1 - h.ndim))
    # Summed in table order, so a constant field gives exactly 0.
    d, dbar = (sum(w * v for w, v in zip(weights, values)) for weights in _WIRTINGER_WEIGHTS)
    return d / scale, dbar / scale


def _log_det(params: OscillatorParams, p) -> np.ndarray:
    """log det g at points p (..., m), from the closed-form g alone: Ricci
    differentiates it at 64 m^2 nested stencil points per sample, so the
    inverse cross-check is left to metric_at and the Hamiltonian fields."""
    sign, logdet = np.linalg.slogdet(_metric_parts(params, p)[0])
    if np.any(sign.real <= 0):
        raise ConditioningError("metric lost positive definiteness on the stencil")
    return logdet


def ricci_at(params: OscillatorParams, p) -> np.ndarray:
    """Ricci tensor R_{ab'} = -d_a d_b' log det g by nested Wirtinger
    differencing; expected to vanish to the finite-difference noise floor."""
    dbar_log_det = lambda q: wirtinger(lambda x: _log_det(params, x), q)[1]
    return -wirtinger(dbar_log_det, p)[0]


def curved_zone(m: int) -> tuple[float, float]:
    """The range of rho that sample_points draws from at dimension m:
    CURVED_ZONE, with its lower edge raised where needed to keep the
    boundary BOUNDARY_GAP r below r, that is to (1 - BOUNDARY_GAP)^-m - 1
    (from m = 4 on)."""
    lo, hi = CURVED_ZONE
    return max(lo, 1.0 / _power(1.0 - BOUNDARY_GAP, m) - 1.0), hi


def sample_points(params: OscillatorParams, count: int, seed: int) -> list[PhasePoint]:
    """Draw count points deterministically where the metric is curved.

    PRNG: numpy default_rng (PCG64).  Per point, one uniform U and then 2m
    standard normals u are drawn.  rho = lo (hi/lo)^U spans curved_zone(m)
    log-uniformly, r = (max(a^m, 0) + rho c^m)^(1/m) with c = max(1, |a|),
    and z = sqrt(r / |u|^2) u with coordinate b = u[2b] + i u[2b+1].
    Every draw is kept, so the output is a pure function of (seed, count,
    params), and the first k points do not depend on count.  Raises
    FloatingPointError if a^m or r^m overflows a float.
    """
    m = params.m
    lo, hi = curved_zone(m)
    rng = np.random.default_rng(seed)
    out: list[PhasePoint] = []
    # Powers as float products and the root through _pow, as radial_profile
    # takes them, and |u|^2 summed in order, as PhasePoint.r sums it.
    with np.errstate(over="raise"):
        a_m = max(_power(np.float64(params.a), m), 0.0)
        c_m = _power(np.float64(max(1.0, abs(params.a))), m)
        for _ in range(count):
            rho = lo * (hi / lo) ** float(rng.random())
            r = float(_pow(a_m + rho * c_m, 1.0 / m))
            u = rng.standard_normal(2 * m).tolist()
            scale = math.sqrt(r / sum(x * x for x in u))
            out.append(PhasePoint(complex(scale * x, scale * y) for x, y in zip(u[0::2], u[1::2])))
    return out
