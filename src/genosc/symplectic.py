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


@dataclass(frozen=True)
class TangentVector:
    """Complexified tangent vector: holo[a] along d/dz^a, anti[a] along d/dzbar^a."""

    holo: tuple
    anti: tuple

    def __init__(self, holo, anti):
        object.__setattr__(self, "holo", tuple(complex(c) for c in holo))
        object.__setattr__(self, "anti", tuple(complex(c) for c in anti))

    @property
    def m(self) -> int:
        return len(self.holo)


VectorField = Callable[[PhasePoint], TangentVector]


def omega_at(
    params: OscillatorParams, p: PhasePoint, X: TangentVector, Y: TangentVector
) -> complex:
    """Fundamental 2-form Omega(X, Y) = i g_{ab'} (X^a Ybar^b - Y^a Xbar^b)."""
    g = metric_at(params, p).g
    Xh = np.asarray(X.holo)
    Yh = np.asarray(Y.holo)
    Xa = np.asarray(X.anti)
    Ya = np.asarray(Y.anti)
    return 1j * (Xh @ g @ Ya - Yh @ g @ Xa)


def _gradient(f: ScalarField, p: PhasePoint) -> tuple[np.ndarray, np.ndarray]:
    """(d f, dbar f) at p: the Wirtinger derivatives along each coordinate,
    stacked on the first axis (a further axis for an array-valued f)."""
    m = len(p.z)
    d = np.array([wirtinger(f, p, a, HOLOMORPHIC) for a in range(m)])
    dbar = np.array([wirtinger(f, p, a, ANTIHOLOMORPHIC) for a in range(m)])
    return d, dbar


def hamiltonian_field(
    f: ScalarField, params: OscillatorParams, p: PhasePoint
) -> TangentVector:
    """Hamiltonian vector field of f at p, from i_{X_f} Omega = -df.

    Componentwise: holo[a] = i ginv[b][a] dbar_b f, anti[b] = -i ginv[b][a] d_a f,
    with the Wirtinger derivatives taken numerically.
    """
    g_inv = metric_at(params, p).g_inv
    d, dbar = _gradient(f, p)
    return TangentVector(1j * (g_inv.T @ dbar), -1j * (g_inv @ d))


def poisson_bracket(
    f: ScalarField, g: ScalarField, params: OscillatorParams, p: PhasePoint
) -> complex:
    """{f, g}(p) = X_f(g)(p) = i ginv[b][a] (dbar_b f d_a g - d_a f dbar_b g)."""
    return apply_field(lambda q: hamiltonian_field(f, params, q), g, p)


def apply_field(X: VectorField, h: ScalarField, p: PhasePoint) -> complex | np.ndarray:
    """Directional derivative X(h)(p) = X^a d_a h + Xbar^b dbar_b h; an
    array-valued h is differentiated componentwise."""
    Xp = X(p)
    d, dbar = _gradient(h, p)
    return np.asarray(Xp.holo) @ d + np.asarray(Xp.anti) @ dbar


def _stacked(V: VectorField) -> ScalarField:
    """The components (holo, anti) of V as one array-valued field."""

    def components(q: PhasePoint) -> np.ndarray:
        v = V(q)
        return np.array(v.holo + v.anti)

    return components


def lie_bracket_fields(X: VectorField, Y: VectorField, p: PhasePoint) -> TangentVector:
    """Commutator [X, Y] at p, componentwise X(Y^k) - Y(X^k) by numerical
    directional differentiation of the component functions."""
    m = len(p.z)
    c = apply_field(X, _stacked(Y), p) - apply_field(Y, _stacked(X), p)
    return TangentVector(c[:m], c[m:])
