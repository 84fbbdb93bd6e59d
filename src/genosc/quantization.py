"""Exact quantization of F(m) on homogeneous holomorphic polynomials.

The quantization map sends N^{ab'} to hbar (z^a d/dz^b + delta_ab / 2) and
constants to themselves; it preserves polynomial degree, so operators are
built blockwise on the degree-l monomial basis.  On a monomial z^k,
2 Q(N^{ab'}) / hbar gives the integer (2 k_b + delta_ab) times the monomial
z^{k - e_b + e_a}: a weighted partial permutation of the basis.  Operators
are sums of such permutations with exact complex-rational coefficients and a
symbolic power of hbar, and every matrix entry is read out exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

import numpy as np

from .errors import DimensionMismatch
from .exact import I, ComplexRational, _coerce
from .geometry import OscillatorParams
from .observables import AlgebraElement, structure_bracket

_HALF = ComplexRational(Fraction(1, 2))


@dataclass(frozen=True)
class MonomialBasis:
    """Monomials of total degree l in m variables, in graded reverse
    lexicographic order (fixed; for equal degree, ascending lex on the
    reversed exponent tuples)."""

    m: int
    l: int
    indices: tuple

    @property
    def size(self) -> int:
        return len(self.indices)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=128)
def monomial_basis(m: int, l: int) -> MonomialBasis:
    """Enumerate the degree-l monomial multi-indices; size binom(l+m-1, m-1).

    Cached per (m, l); the result is immutable, so callers share it."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if l < 0:
        raise ValueError(f"degree must be >= 0, got {l}")
    indices = sorted(_compositions(l, m), key=lambda k: tuple(reversed(k)))
    return MonomialBasis(m=m, l=l, indices=tuple(indices))


@lru_cache(maxsize=128)
def _basis_tables(m: int, l: int):
    """The degree-l basis with the arrays quantize reads, cached per (m, l):
    exponents k (dim x m), the mixed-radix place values (l+1)^i, the keys
    sum_i k_i (l+1)^i and the identity permutation.  The object arrays hold
    Python ints, so keys cannot wrap; every array is read-only because
    callers share it."""
    basis = monomial_basis(m, l)
    k = np.array(basis.indices, dtype=object).reshape(basis.size, m)
    radix = np.array([(l + 1) ** i for i in range(m)], dtype=object)
    keys = k.dot(radix)
    identity = np.arange(basis.size)
    for array in (k, radix, keys, identity):
        array.flags.writeable = False
    return basis, k, radix, keys, identity


@dataclass(frozen=True, eq=False)
class QuantumOperator:
    """Exact operator on a degree-l monomial basis, as a sum of terms.

    A term ``(power, coeff, target, weight)`` is hbar^power coeff P, where the
    weighted partial permutation P sends basis vector j to weight[j] times
    basis vector target[j]; ``weight`` holds Python ints, so it never wraps.
    Products of such P are again such P:
    (P1 P2) e_j = weight2[j] weight1[target2[j]] e_{target1[target2[j]]},
    so sums, scalar multiples and products need no per-entry arithmetic.
    """

    dim: int
    terms: tuple

    def matrix(self, power: int) -> dict:
        """The hbar^power part as {(row, col): value}, exact zeros dropped.

        The integer numerators of the coefficients are brought to their
        common denominator, so entries are summed in integers.
        """
        terms = [(c.as_gaussian_ratio(), t, w) for p, c, t, w in self.terms if p == power]
        den = lcm(*(d for (_, _, d), _, _ in terms))
        re: dict = {}
        im: dict = {}
        for (c_re, c_im, d), target, weight in terms:
            c_re, c_im = c_re * (den // d), c_im * (den // d)
            for col, (row, w) in enumerate(zip(target.tolist(), weight.tolist())):
                if w:
                    re[row, col] = re.get((row, col), 0) + w * c_re
                    im[row, col] = im.get((row, col), 0) + w * c_im
        return {
            rc: ComplexRational.from_gaussian_ratio(x, im[rc], den)
            for rc, x in re.items()
            if x or im[rc]
        }

    @property
    def is_zero(self) -> bool:
        return not any(self.matrix(p) for p in {t[0] for t in self.terms})

    def __add__(self, other: "QuantumOperator") -> "QuantumOperator":
        self._check(other)
        return QuantumOperator(self.dim, self.terms + other.terms)

    def __sub__(self, other: "QuantumOperator") -> "QuantumOperator":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "QuantumOperator":
        s = _coerce(scalar)
        terms = tuple((p, s * c, t, w) for p, c, t, w in self.terms) if s else ()
        return QuantumOperator(self.dim, terms)

    def shift_hbar(self, by: int) -> "QuantumOperator":
        return QuantumOperator(self.dim, tuple((p + by, c, t, w) for p, c, t, w in self.terms))

    def __matmul__(self, other: "QuantumOperator") -> "QuantumOperator":
        self._check(other)
        return QuantumOperator(
            self.dim,
            tuple(
                (p1 + p2, c1 * c2, t1[t2], w2 * w1[t2])
                for p1, c1, t1, w1 in self.terms
                for p2, c2, t2, w2 in other.terms
            ),
        )

    def commutator(self, other: "QuantumOperator") -> "QuantumOperator":
        return self @ other - other @ self

    def _check(self, other: "QuantumOperator"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"operators of dim {self.dim} and {other.dim}")


def quantize(e: AlgebraElement, l: int) -> QuantumOperator:
    """Build the exact operator of e on the degree-l monomial basis.

    On a monomial z^k the (a, b) coefficient contributes
    hbar (k_b + delta_ab / 2) to z^{k - e_b + e_a}, one term per nonzero
    coefficient; the constant term is a multiple of the identity at hbar
    power 0.  Targets are found by binary search on the mixed-radix key
    sum_i k_i (l+1)^i, in which the graded reverse-lex basis is ascending.
    """
    if l < 0:
        raise ValueError(f"degree must be >= 0, got {l}")
    basis, k, radix, keys, identity = _basis_tables(e.m, l)
    terms = []
    if e.constant:
        terms.append((0, e.constant, identity, np.ones(basis.size, dtype=object)))
    for (a, b), c in e.terms.items():
        if a == b:
            target = identity
        else:
            moved = np.searchsorted(keys, keys - radix[b] + radix[a])
            target = np.where(k[:, b] > 0, moved, identity)
        terms.append((1, c * _HALF, target, 2 * k[:, b] + (a == b)))
    return QuantumOperator(basis.size, tuple(terms))


def dirac_residual(e1: AlgebraElement, e2: AlgebraElement, l: int) -> QuantumOperator:
    """[Q(e1), Q(e2)] + i hbar Q({e1, e2}), expected to be exactly zero."""
    e1._check(e2)
    q1 = quantize(e1, l)
    q2 = quantize(e2, l)
    qb = quantize(structure_bracket(e1, e2), l)
    return q1.commutator(q2) + (I * qb).shift_hbar(1)


@dataclass(frozen=True)
class SpectralLine:
    """One degree-l eigenspace of Q(H): eigenvalue in hbar-units, exact."""

    l: int
    eigenvalue: Fraction
    multiplicity: int


def spectrum_of_H(params: OscillatorParams, l: int) -> SpectralLine:
    """Assemble Q(H) on degree l and verify it is exactly
    (l + m/2) hbar x identity; returns the eigenvalue and multiplicity."""
    m = params.m
    op = quantize(AlgebraElement.hamiltonian(m), l)
    expected = ComplexRational.of(Fraction(2 * l + m, 2))
    dim = comb(l + m - 1, m - 1)
    mat = op.matrix(1)
    want = {(i, i): expected for i in range(dim)}
    if mat != want:
        r, c = min(rc for rc in mat.keys() | want.keys() if mat.get(rc) != want.get(rc))
        raise AssertionError(f"Q(H) is not (l + m/2) hbar x identity at entry ({r}, {c})")
    if any(op.matrix(p) for p in {t[0] for t in op.terms} - {1}):
        raise AssertionError("Q(H) has terms at unexpected hbar powers")
    return SpectralLine(l=l, eigenvalue=Fraction(2 * l + m, 2), multiplicity=dim)
