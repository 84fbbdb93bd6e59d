"""Closed-form Kähler geometry of the generalized oscillator.

The metric on C^m is g_{ab'} = u'' zbar^a z^b + u' delta_ab with radial
profile u' = (r^m - a^m)^(1/m) / r, r = sum_a |z^a|^2.  Its determinant is
identically 1 on the admissible domain r^m > a^m, which is the witness for
Ricci-flatness; this module evaluates the metric in closed form and provides
the numerical differentiation machinery (Wirtinger derivatives, curvature)
used to cross-check it.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import ConditioningError, DomainError, ExhaustionError

#: Relative step for Wirtinger differencing, scaled per coordinate.
WIRTINGER_STEP = 1e-4

#: Entrywise tolerance between the closed-form and direct numerical inverse.
INVERSE_CONSISTENCY_TOL = 1e-8

HOLOMORPHIC = "holomorphic"
ANTIHOLOMORPHIC = "antiholomorphic"

# 4th-order central differences, f'(x) ~ sum_k w_k f(x + c_k h) / (12 h), taken
# along x and y and combined as d/dz = (d_x - i d_y) / 2, d/dzbar = (d_x + i d_y) / 2.
# Per kind: (displacement, weight) pairs, the displacement c_k or i c_k in units
# of h and the weight w_k or -+i w_k, whose weighted sum of field values is 24 h
# times the derivative.  The integer weights stay exact and opposite offsets are
# adjacent, so a constant field sums to exactly 0.
_STENCIL = ((-2.0, 1.0), (2.0, -1.0), (-1.0, -8.0), (1.0, 8.0))
_WIRTINGER_STENCIL = {
    kind: tuple(
        (c * axis, w * coef)
        for axis, coef in ((1.0, 1.0), (1j, ycoef))
        for c, w in _STENCIL
    )
    for kind, ycoef in ((HOLOMORPHIC, -1j), (ANTIHOLOMORPHIC, 1j))
}

_MAX_REJECTIONS = 10_000


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
    """A point z in C^m with its radial invariant r = sum |z^a|^2."""

    z: tuple

    def __init__(self, z: Iterable[complex]):
        object.__setattr__(self, "z", tuple(complex(c) for c in z))

    @property
    def m(self) -> int:
        return len(self.z)

    @property
    def r(self) -> float:
        # Always recomputed from the coordinates, never cached or trusted.
        return sum((c * c.conjugate()).real for c in self.z)

    def shifted(self, index: int, dz: complex) -> "PhasePoint":
        z = list(self.z)
        z[index] += dz
        return PhasePoint(z)

    def admissible(self, params: OscillatorParams) -> bool:
        return self.r ** params.m - params.a ** params.m > 0

    def require_admissible(self, params: OscillatorParams):
        if len(self.z) != params.m:
            raise DomainError(f"point has {len(self.z)} coordinates, expected {params.m}")
        if not self.admissible(params):
            raise DomainError(
                f"inadmissible point: r^m - a^m = {self.r ** params.m - params.a ** params.m:g}"
                " (need > 0)"
            )


@dataclass(frozen=True)
class PotentialProfile:
    """Radial profile scalars of the Kähler potential at a given r."""

    u_prime: float
    u_double_prime: float
    s: float
    s_prime: float


@dataclass(frozen=True)
class MetricData:
    """Metric matrix g[a][b] = g_{ab'}, its inverse, and determinant."""

    g: np.ndarray
    g_inv: np.ndarray
    det_g: float


def radial_profile(params: OscillatorParams, r: float) -> PotentialProfile:
    """Evaluate u', u'' and the auxiliary scalars s = r u', s' = u' + r u''.

    Raises DomainError at or below the degeneration radius r^m = a^m.
    """
    m, a = params.m, params.a
    if r <= 0 or r**m - a**m <= 0:
        raise DomainError(f"r^m - a^m = {r**m - a**m:g} <= 0 at r = {r:g}")
    s = (r**m - a**m) ** (1.0 / m)
    u_prime = s / r
    u_double_prime = a**m / (r**2 * s ** (m - 1))
    return PotentialProfile(u_prime, u_double_prime, s, u_prime + r * u_double_prime)


def metric_at(params: OscillatorParams, p: PhasePoint) -> MetricData:
    """Assemble the metric at p, with the rank-one closed-form inverse
    cross-checked against direct numerical inversion.
    """
    p.require_admissible(params)
    prof = radial_profile(params, p.r)
    z = np.asarray(p.z, dtype=complex)
    outer = np.conj(z)[:, None] * z[None, :]
    g = prof.u_double_prime * outer + prof.u_prime * np.eye(params.m)
    # Sherman-Morrison form of the inverse; satisfies g @ g_inv = I.
    g_inv = (np.eye(params.m) - (prof.u_double_prime / prof.s_prime) * outer) / prof.u_prime
    direct = np.linalg.inv(g)
    deviation = np.max(np.abs(g_inv - direct))
    if deviation > INVERSE_CONSISTENCY_TOL:
        raise ConditioningError(
            f"closed-form and direct inverse disagree by {deviation:.3e} at r = {p.r:g}"
        )
    det = np.linalg.det(g).real
    return MetricData(g=g, g_inv=g_inv, det_g=det)


#: A field on phase space: complex-valued, or a numpy array of complex values
#: that the differencing below treats componentwise.
ScalarField = Callable[[PhasePoint], complex | np.ndarray]


def _step(z: complex) -> float:
    return WIRTINGER_STEP * max(1.0, abs(z))


def wirtinger(
    field: ScalarField,
    p: PhasePoint,
    index: int,
    kind: str,
    params: OscillatorParams | None = None,
) -> complex | np.ndarray:
    """Numerical Wirtinger derivative of a field at p.

    kind selects d/dz^index (``holomorphic``, = (d_x - i d_y)/2) or
    d/dzbar^index (``antiholomorphic``, = (d_x + i d_y)/2).  Uses 4th-order
    central differences on the real and imaginary parts.  An array-valued
    field is differentiated componentwise.  When params is given, every
    stencil point is checked for admissibility.
    """
    if kind not in (HOLOMORPHIC, ANTIHOLOMORPHIC):
        raise ValueError(f"kind must be {HOLOMORPHIC!r} or {ANTIHOLOMORPHIC!r}, got {kind!r}")
    if not 0 <= index < len(p.z):
        raise IndexError(f"coordinate index {index} out of range for m = {len(p.z)}")
    h = _step(p.z[index])
    total = 0j
    for shift, weight in _WIRTINGER_STENCIL[kind]:
        q = p.shifted(index, shift * h)
        if params is not None:
            q.require_admissible(params)
        total += weight * field(q)
    return total / (24.0 * h)


def _log_det_batch(params: OscillatorParams, Z: np.ndarray) -> np.ndarray:
    """log det g at a batch of points, Z of shape (k, m).

    Same metric assembly as metric_at, vectorized for stencil evaluation.
    """
    m, a = params.m, params.a
    r = np.sum(np.abs(Z) ** 2, axis=1)
    dom = r**m - a**m
    if np.any(dom <= 0):
        raise DomainError("differencing stencil leaves the admissible domain")
    s = dom ** (1.0 / m)
    u_prime = s / r
    u_double_prime = a**m / (r**2 * s ** (m - 1))
    G = u_double_prime[:, None, None] * (np.conj(Z)[:, :, None] * Z[:, None, :])
    G += u_prime[:, None, None] * np.eye(m)
    sign, logdet = np.linalg.slogdet(G)
    if np.any(sign.real <= 0):
        raise ConditioningError("metric lost positive definiteness on the stencil")
    return logdet


def ricci_at(params: OscillatorParams, p: PhasePoint) -> np.ndarray:
    """Ricci tensor R_{ab'} = -d_a d_b' log det g by nested Wirtinger
    differencing; expected to vanish to the finite-difference noise floor.
    """
    p.require_admissible(params)
    m = params.m
    z = np.asarray(p.z, dtype=complex)
    h = np.array([_step(c) for c in p.z])
    nested = [
        (si, sj, wi * wj)
        for si, wi in _WIRTINGER_STENCIL[HOLOMORPHIC]
        for sj, wj in _WIRTINGER_STENCIL[ANTIHOLOMORPHIC]
    ]
    points = []
    for i in range(m):
        for j in range(m):
            for si, sj, _ in nested:
                q = z.copy()
                q[i] += si * h[i]
                q[j] += sj * h[j]
                points.append(q)
    logdet = _log_det_batch(params, np.asarray(points)).reshape(m, m, len(nested))
    weights = np.array([w for _, _, w in nested])
    return -(logdet @ weights) / (576.0 * np.outer(h, h))


def sample_points(
    params: OscillatorParams,
    count: int,
    seed: int,
    margin: float = 0.1,
) -> list[PhasePoint]:
    """Draw admissible points deterministically.

    PRNG: numpy default_rng (PCG64).  Per attempt, 2m standard normals are
    drawn in one call; coordinate a is scale*(x[2a] + i x[2a+1]) with
    scale = max(1, |a|).  A draw is kept when r^m >= a^m + margin; rejected
    draws are simply redrawn, so the output is a pure function of
    (seed, count, params, margin).
    """
    if margin <= 0:
        raise ValueError(f"margin must be positive, got {margin}")
    m, a = params.m, params.a
    rng = np.random.default_rng(seed)
    scale = max(1.0, abs(a))
    out: list[PhasePoint] = []
    while len(out) < count:
        for attempt in range(_MAX_REJECTIONS + 1):
            if attempt == _MAX_REJECTIONS:
                raise ExhaustionError(
                    f"{_MAX_REJECTIONS} consecutive rejections (m={m}, a={a}, margin={margin})"
                )
            x = rng.standard_normal(2 * m)
            zs = scale * (x[0::2] + 1j * x[1::2])
            r = float(np.sum(np.abs(zs) ** 2))
            if r**m >= a**m + margin:
                out.append(PhasePoint(zs))
                break
    return out
