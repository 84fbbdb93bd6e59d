"""Symplectic structure, Hamiltonian vector fields, and Poisson brackets.

Conventions (pinned; flipping any one breaks the bracket identities):
  Omega = i g_{ab'} dz^a ^ dzbar^b,  i_{X_f} Omega = -df,  {f, g} = X_f(g).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import (
    ANTIHOLOMORPHIC,
    HOLOMORPHIC,
    OscillatorParams,
    PhasePoint,
    ScalarField,
    metric_at,
    wirtinger,
)


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Complexified tangent vector: holo[a] along d/dz^a, anti[a] along d/dzbar^a.

    The components are complex arrays whose first axis is the coordinate a; a
    further axis per axis of an array-valued function holds one field each.
    """

    holo: np.ndarray
    anti: np.ndarray

    def __init__(self, holo, anti):
        object.__setattr__(self, "holo", np.asarray(holo, dtype=complex))
        object.__setattr__(self, "anti", np.asarray(anti, dtype=complex))

    @property
    def m(self) -> int:
        return len(self.holo)


VectorField = Callable[[PhasePoint], TangentVector]


def omega_at(
    params: OscillatorParams, p: PhasePoint, X: TangentVector, Y: TangentVector
) -> complex:
    """Fundamental 2-form Omega(X, Y) = i g_{ab'} (X^a Ybar^b - Y^a Xbar^b)."""
    g = metric_at(params, p).g
    return 1j * (X.holo @ g @ Y.anti - Y.holo @ g @ X.anti)


def _derivatives(f: ScalarField, p: PhasePoint, kind: str) -> np.ndarray:
    """The Wirtinger derivatives of f of one kind along each coordinate,
    stacked on the first axis (further axes for an array-valued f)."""
    return np.array([wirtinger(f, p, a, kind) for a in range(len(p.z))])


def _holo_part(f: ScalarField, g_inv: np.ndarray, p: PhasePoint) -> np.ndarray:
    """The holomorphic components holo[a] = i ginv[b][a] dbar_b f of X_f at p,
    which need only the antiholomorphic derivatives of f."""
    return 1j * np.tensordot(g_inv.T, _derivatives(f, p, ANTIHOLOMORPHIC), axes=1)


def hamiltonian_field(
    f: ScalarField, params: OscillatorParams, p: PhasePoint
) -> TangentVector:
    """Hamiltonian vector field of f at p, from i_{X_f} Omega = -df.

    Componentwise: holo[a] = i ginv[b][a] dbar_b f, anti[b] = -i ginv[b][a] d_a f,
    with the Wirtinger derivatives taken numerically.  For an array-valued f
    the components have shape (m, *f.shape): one field per entry of f.
    """
    g_inv = metric_at(params, p).g_inv
    d = _derivatives(f, p, HOLOMORPHIC)
    return TangentVector(_holo_part(f, g_inv, p), -1j * np.tensordot(g_inv, d, axes=1))


def poisson_bracket(
    f: ScalarField, g: ScalarField, params: OscillatorParams, p: PhasePoint
) -> complex | np.ndarray:
    """{f, g}(p) = X_f(g)(p) = i ginv[b][a] (dbar_b f d_a g - d_a f dbar_b g),
    of shape f.shape + g.shape for array-valued f and g."""
    return apply_field(lambda q: hamiltonian_field(f, params, q), g, p)


def apply_field(X: VectorField, h: ScalarField, p: PhasePoint) -> complex | np.ndarray:
    """Directional derivative X(h)(p) = X^a d_a h + Xbar^b dbar_b h, contracted
    on the coordinate axis: of shape X.shape + h.shape, where X.shape is that
    of X's components after the coordinate axis."""
    Xp = X(p)
    d = _derivatives(h, p, HOLOMORPHIC)
    dbar = _derivatives(h, p, ANTIHOLOMORPHIC)
    return np.tensordot(Xp.holo, d, axes=(0, 0)) + np.tensordot(Xp.anti, dbar, axes=(0, 0))


def _stacked(V: VectorField) -> ScalarField:
    """The components (holo, anti) of V as one array-valued field."""

    def components(q: PhasePoint) -> np.ndarray:
        v = V(q)
        return np.concatenate([v.holo, v.anti])

    return components


def lie_bracket_fields(X: VectorField, Y: VectorField, p: PhasePoint) -> TangentVector:
    """Commutator [X, Y] at p, componentwise X(Y^k) - Y(X^k) by numerical
    directional differentiation of the component functions."""
    m = len(p.z)
    c = apply_field(X, _stacked(Y), p) - apply_field(Y, _stacked(X), p)
    return TangentVector(c[:m], c[m:])
