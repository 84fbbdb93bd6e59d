"""Exact quantization of F(m) on homogeneous holomorphic polynomials.

The quantization map sends N^{ab'} to hbar (z^a d/dz^b + delta_ab / 2) and
constants to themselves; it preserves polynomial degree, so operators are
built blockwise on the degree-l monomial basis.  On a monomial z^k,
2 Q(N^{ab'}) / hbar gives the integer (2 k_b + delta_ab) times the monomial
z^{k - e_b + e_a}: a weighted partial permutation of the basis.  Operators
are sums of such permutations with exact complex-rational coefficients and a
symbolic power of hbar.  All diagonal coefficients that are equal make one
identity-target term, so Q(H) is one term at any m.  Matrix entries are read
out exactly: terms with equal targets are summed as integer arrays first, and
only the nonzero entries of those sums are visited one by one.  The Dirac
check quantizes each of the m^2 basis elements once per command; each of the
m^4 pairs then costs one structure bracket, one quantize of the bracket, one
commutator and the exact zero test.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from .errors import DimensionMismatch, GenoscError
from .exact import I, ComplexRational, _coerce
from .geometry import OscillatorParams
from .observables import AlgebraElement, structure_bracket

_HALF = ComplexRational(Fraction(1, 2))


@dataclass(frozen=True, eq=False)
class MonomialBasis:
    """Monomials of total degree l in m variables, in graded reverse
    lexicographic order (fixed; for equal degree, ascending lex on the
    reversed exponent tuples), with the read-only arrays quantize reads:
    exponents (size x m), place values (l+1)^i, keys sum_i k_i (l+1)^i,
    ascending in basis order, and the identity permutation.  The object
    arrays hold Python ints, so keys cannot wrap."""

    m: int
    l: int
    indices: tuple
    exponents: np.ndarray
    place_values: np.ndarray
    keys: np.ndarray
    identity: np.ndarray

    @property
    def size(self) -> int:
        return len(self.indices)


@lru_cache(maxsize=128)
def monomial_basis(m: int, l: int) -> MonomialBasis:
    """Enumerate the degree-l monomial multi-indices; size binom(l+m-1, m-1).

    Each exponent vector follows from the one before: with p its first
    nonzero coordinate, the next one has k_{p+1} one larger, k_0 = k_p - 1
    and zeros in between, so the keys ascend with no sort.  Cached per
    (m, l); the result is immutable, so callers share it."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if l < 0:
        raise ValueError(f"degree must be >= 0, got {l}")
    k = [l] + [0] * (m - 1)
    indices = [tuple(k)]
    p = 0 if l else m - 1
    while p < m - 1:
        head = k[p]
        k[p] = 0
        k[p + 1] += 1
        k[0] = head - 1
        indices.append(tuple(k))
        p = 0 if head > 1 else p + 1
    exponents = np.array(indices, dtype=object)
    place_values = np.array([(l + 1) ** i for i in range(m)], dtype=object)
    keys = exponents.dot(place_values)
    identity = np.arange(len(indices))
    for array in (exponents, place_values, keys, identity):
        array.flags.writeable = False
    return MonomialBasis(m, l, tuple(indices), exponents, place_values, keys, identity)


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
        common denominator.  Terms with equal targets are first summed as
        integer weight arrays, real and imaginary parts apart, and only the
        nonzero columns of each such sum are visited entry by entry.
        """
        groups: dict = {}
        for p, c, t, w in self.terms:
            if p == power:
                groups.setdefault(t.tobytes(), (t, []))[1].append((c.as_gaussian_ratio(), w))
        den = lcm(*(d for _, group in groups.values() for (_, _, d), _ in group))
        re: dict = {}
        im: dict = {}
        for target, group in groups.values():
            for part, out in enumerate((re, im)):
                scaled = [w * (c[part] * (den // c[2])) for c, w in group if c[part]]
                if not scaled:
                    continue
                total = sum(scaled[1:], scaled[0])
                cols = total.nonzero()[0]
                rows = target[cols].tolist()
                for rc, x in zip(zip(rows, cols.tolist()), total[cols].tolist()):
                    out[rc] = out.get(rc, 0) + x
        return {
            rc: ComplexRational.from_gaussian_ratio(re.get(rc, 0), im.get(rc, 0), den)
            for rc in {**re, **im}
            if re.get(rc) or im.get(rc)
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
    hbar (k_b + delta_ab / 2) to z^{k - e_b + e_a}: one term per nonzero
    off-diagonal coefficient, and one identity-target term per distinct
    diagonal coefficient c, of weight sum_b (2 k_b + 1) over the coordinates
    b with c_bb = c, summed over those columns at once; the constant term is
    a multiple of the identity at hbar power 0.  Targets are found by binary
    search on the mixed-radix key sum_i k_i (l+1)^i, in which the graded
    reverse-lex basis is ascending.
    """
    if l < 0:
        raise ValueError(f"degree must be >= 0, got {l}")
    basis = monomial_basis(e.m, l)
    k, radix, keys, identity = basis.exponents, basis.place_values, basis.keys, basis.identity
    terms = []
    if e.constant:
        terms.append((0, e.constant, identity, np.ones(basis.size, dtype=object)))
    diagonal: dict = {}
    for (a, b), c in e.terms.items():
        if a == b:
            diagonal.setdefault(c, []).append(a)
            continue
        moved = np.searchsorted(keys, keys - radix[b] + radix[a])
        target = np.where(k[:, b] > 0, moved, identity)
        terms.append((1, c * _HALF, target, 2 * k[:, b]))
    for c, cols in diagonal.items():
        terms.append((1, c * _HALF, identity, 2 * k.take(cols, axis=1).sum(axis=1) + len(cols)))
    return QuantumOperator(basis.size, tuple(terms))


def dirac_residual(
    q1: QuantumOperator, q2: QuantumOperator, qb: QuantumOperator
) -> QuantumOperator:
    """[q1, q2] + i hbar qb, expected to be exactly zero when q1 = Q(e1),
    q2 = Q(e2) and qb = Q({e1, e2}).  `dirac_nonzero` quantizes each basis
    element once per command and passes the operators in, so a pair costs one
    structure_bracket, one quantize of the bracket, one commutator and the
    exact zero test."""
    return q1.commutator(q2) + (I * qb).shift_hbar(1)


def dirac_nonzero(m: int, l: int) -> int:
    """The number of basis pairs (N^{ab'}, N^{cd'}) whose Dirac residual on
    degree l is not exactly zero; each of the m^2 basis elements is quantized
    once, so a run makes m^2 + m^4 quantize calls."""
    basis = [AlgebraElement.basis(m, a, b) for a in range(m) for b in range(m)]
    quantized = [(e, quantize(e, l)) for e in basis]
    return sum(
        not dirac_residual(q1, q2, quantize(structure_bracket(e1, e2), l)).is_zero
        for e1, q1 in quantized
        for e2, q2 in quantized
    )


@dataclass(frozen=True)
class SpectralLine:
    """One degree-l eigenspace of Q(H): eigenvalue in hbar-units, exact."""

    l: int
    eigenvalue: Fraction
    multiplicity: int


def spectrum_of_H(params: OscillatorParams, l: int) -> SpectralLine:
    """Verify that Q(H) is exactly (l + m/2) hbar x identity on degree l, by
    the exact zero test of Q(H) - hbar Q(l + m/2) at every power of hbar;
    returns the eigenvalue and multiplicity."""
    m = params.m
    eigenvalue = Fraction(2 * l + m, 2)
    op = quantize(AlgebraElement.hamiltonian(m), l)
    shift = quantize(AlgebraElement(m, constant=-eigenvalue), l).shift_hbar(1)
    if not (op + shift).is_zero:
        raise GenoscError(f"Q(H) on degree {l} is not {eigenvalue} hbar x identity")
    return SpectralLine(l=l, eigenvalue=eigenvalue, multiplicity=op.dim)
