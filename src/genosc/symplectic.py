"""Symplectic structure, Hamiltonian vector fields, and Poisson brackets.

Conventions (pinned; flipping any one breaks the bracket identities):
  Omega = i g_{ab'} dz^a ^ dzbar^b,  i_{X_f} Omega = -df,  {f, g} = X_f(g).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import OscillatorParams, ScalarField, _metric, wirtinger


@dataclass(frozen=True, eq=False)
class TangentVector:
    """Complexified tangent vector: holo[a] along d/dz^a, anti[a] along d/dzbar^a.

    The components are complex arrays of shape (..., m, *shape): one leading
    axis per batch axis of the points, the coordinate a, then one axis per
    axis of an array-valued function, which holds one field each.
    """

    holo: np.ndarray
    anti: np.ndarray

    def __init__(self, holo, anti):
        object.__setattr__(self, "holo", np.asarray(holo, dtype=complex))
        object.__setattr__(self, "anti", np.asarray(anti, dtype=complex))


VectorField = Callable[[np.ndarray], TangentVector]


def _contract(x: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
    """sum_a x[..., a, *xs] y[..., a, *ys], of shape (..., *xs, *ys), where
    the coordinate axis a comes after `axis` batch axes."""
    batch, m = x.shape[:axis], x.shape[axis]
    out = np.swapaxes(x.reshape(batch + (m, -1)), -1, -2) @ y.reshape(batch + (m, -1))
    return out.reshape(batch + x.shape[axis + 1 :] + y.shape[axis + 1 :])


def _holo_part(f: ScalarField, g_inv: np.ndarray, p) -> np.ndarray:
    """The holomorphic components holo[a] = i ginv[b][a] dbar_b f of X_f at p,
    which need only the antiholomorphic derivatives of f."""
    return 1j * _contract(g_inv, wirtinger(f, p)[1], g_inv.ndim - 2)


def hamiltonian_field(f: ScalarField, params: OscillatorParams, p) -> TangentVector:
    """Hamiltonian vector field of f at points p (..., m), from i_{X_f} Omega = -df.

    Componentwise: holo[a] = i ginv[b][a] dbar_b f, anti[b] = -i ginv[b][a] d_a f,
    with both kinds of Wirtinger derivative taken numerically from one
    evaluation of f on the stencil.  For an array-valued f the components
    have shape (..., m, *f.shape): one field per entry of f.
    """
    g_inv = _metric(params, p)[1]
    d, dbar = wirtinger(f, p)
    axis = g_inv.ndim - 2
    return TangentVector(
        1j * _contract(g_inv, dbar, axis), -1j * _contract(np.swapaxes(g_inv, -1, -2), d, axis)
    )


def poisson_bracket(f: ScalarField, g: ScalarField, params: OscillatorParams, p) -> np.ndarray:
    """{f, g}(p) = X_f(g)(p) = i ginv[b][a] (dbar_b f d_a g - d_a f dbar_b g),
    of shape f.shape + g.shape per point for array-valued f and g."""
    return apply_field(lambda q: hamiltonian_field(f, params, q), g, p)


def apply_field(X: VectorField, h: ScalarField, p) -> np.ndarray:
    """Directional derivative X(h)(p) = X^a d_a h + Xbar^b dbar_b h, contracted
    on the coordinate axis: of shape X.shape + h.shape per point, where
    X.shape is that of X's components after the coordinate axis.  h is
    evaluated once on the stencil for both kinds of derivative."""
    Xp, axis = X(p), np.ndim(p) - 1
    d, dbar = wirtinger(h, p)
    return _contract(Xp.holo, d, axis) + _contract(Xp.anti, dbar, axis)


def _stacked(V: VectorField) -> ScalarField:
    """The components (holo, anti) of V as one array-valued field."""

    def components(q: np.ndarray) -> np.ndarray:
        v = V(q)
        return np.concatenate([v.holo, v.anti], axis=q.ndim - 1)

    return components


def lie_bracket_fields(X: VectorField, Y: VectorField, p) -> TangentVector:
    """Commutator [X, Y] at p, componentwise X(Y^k) - Y(X^k) by numerical
    directional differentiation of the component functions."""
    c = apply_field(X, _stacked(Y), p) - apply_field(Y, _stacked(X), p)
    return TangentVector(*np.split(c, 2, axis=np.ndim(p) - 1))
