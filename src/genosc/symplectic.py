"""Symplectic structure, Hamiltonian vector fields, and Poisson brackets.

Conventions (pinned; flipping any one breaks the bracket identities):
  Omega = i g_{ab'} dz^a ^ dzbar^b,  i_{X_f} Omega = -df,  {f, g} = X_f(g).
"""
from __future__ import annotations

from dataclasses import dataclass

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


def _field(g_inv: np.ndarray, d: np.ndarray, dbar: np.ndarray) -> TangentVector:
    """X_f from the inverse metric and the Wirtinger derivatives (d, dbar) of f:
    holo[a] = i ginv[b][a] dbar_b f, anti[b] = -i ginv[b][a] d_a f."""
    axis = g_inv.ndim - 2
    return TangentVector(
        1j * _contract(g_inv, dbar, axis), -1j * _contract(np.swapaxes(g_inv, -1, -2), d, axis)
    )


def hamiltonian_field(f: ScalarField, params: OscillatorParams, p) -> TangentVector:
    """Hamiltonian vector field of f at points p (..., m), from i_{X_f} Omega = -df.

    Componentwise: holo[a] = i ginv[b][a] dbar_b f, anti[b] = -i ginv[b][a] d_a f,
    with both kinds of Wirtinger derivative taken numerically from one
    evaluation of f on the stencil.  For an array-valued f the components
    have shape (..., m, *f.shape): one field per entry of f.
    """
    return _field(_metric(params, p)[1], *wirtinger(f, p))


def poisson_bracket(f: ScalarField, g: ScalarField, params: OscillatorParams, p) -> np.ndarray:
    """{f, g}(p) = X_f(g)(p) = X_f^a d_a g + Xbar_f^b dbar_b g
    = i ginv[b][a] (dbar_b f d_a g - d_a f dbar_b g), contracted on the
    coordinate axis: of shape f.shape + g.shape per point for array-valued f
    and g.  Each of f and g is evaluated once on the stencil for both kinds
    of derivative, and only once in all when g is f."""
    g_inv, df = _metric(params, p)[1], wirtinger(f, p)
    d, dbar = df if g is f else wirtinger(g, p)
    X, axis = _field(g_inv, *df), np.ndim(p) - 1
    return _contract(X.holo, d, axis) + _contract(X.anti, dbar, axis)
