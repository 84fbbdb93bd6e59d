"""Exact quantization of F(m) on homogeneous holomorphic polynomials.

The quantization map sends N^{ab'} to hbar (z^a d/dz^b + delta_ab / 2) and
constants to themselves; it preserves polynomial degree, so operators are
built blockwise on the degree-l monomial basis.  On a monomial z^k,
2 Q(N^{ab'}) / hbar gives the integer (2 k_b + delta_ab) times the monomial
z^{k - e_b + e_a}: a weighted partial permutation of the basis.  Operators
are sums of such permutations with exact complex-rational coefficients and a
symbolic power of hbar.  All diagonal coefficients that are equal make one
identity-target term, so Q(H) is one term at any m.

Integer arrays are native int64 wherever int64 holds every value they can
take; each operator carries a Python-int bound on its weights for that.
`quantize` knows the bound, a product multiplies the two bounds and a sum
takes the larger.  An array whose bound passes 2^63 - 1 is computed by the
same expressions on Python ints (object arrays) instead, so no value ever
wraps.  The same rule sizes the basis keys and the scaled sums of a readout.

Matrix entries are read out exactly: terms with equal targets are summed as
integer arrays first, and only the nonzero entries of those sums are visited
one by one.  The Dirac check quantizes each of the m^2 basis elements once
per command; each of the m^4 pairs then costs one structure bracket, one
quantize of the bracket, one commutator and the exact zero test.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import lcm
from operator import mul

import numpy as np

from .errors import DimensionMismatch, GenoscError
from .exact import I, ComplexRational, _coerce
from .geometry import OscillatorParams
from .observables import AlgebraElement, structure_bracket

_HALF = ComplexRational(Fraction(1, 2))
_INT64_MAX = int(np.iinfo(np.int64).max)


def _ints(bound: int):
    """The dtype of integer arrays whose values and partial results stay
    within +-bound: int64 while it holds them, else Python ints."""
    return np.int64 if bound <= _INT64_MAX else object


@dataclass(frozen=True, eq=False)
class MonomialBasis:
    """Monomials of total degree l in m variables, in graded reverse
    lexicographic order (fixed; for equal degree, ascending lex on the
    reversed exponent tuples), with the read-only arrays quantize reads:
    exponents (size x m), place values (l+1)^i, keys sum_i k_i (l+1)^i,
    ascending in basis order, and the identity permutation.  Exponents are
    int64 for l < 2^63.  The keys, and the keys quantize shifts by one place
    value, stay below 2 (l+1)^m: place values and keys are int64 while that
    fits, and Python ints beyond (from m = 62 at l = 1), so no key wraps."""

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
    exponents = np.array(indices, dtype=_ints(l))
    powers = accumulate(repeat(l + 1, m - 1), mul, initial=1)
    place_values = np.array(list(powers), dtype=_ints(2 * (l + 1) ** m))
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
    basis vector target[j].  ``bound`` is a Python int with |weight| <= bound
    in every term.  Each weight array is computed in int64 while the bound of
    the operator it is made for is at most 2^63 - 1, and in Python ints
    beyond, so none wraps.  Products of such P are again such P:
    (P1 P2) e_j = weight2[j] weight1[target2[j]] e_{target1[target2[j]]},
    so sums, scalar multiples and products need no per-entry arithmetic.
    """

    dim: int
    terms: tuple
    bound: int

    def _sums(self, power: int) -> tuple[dict, dict, int]:
        """The hbar^power part as integer numerators over a common
        denominator: (re, im, den), re and im mapping (row, col) to a
        Python int that may be 0.

        Terms with equal targets are first summed as integer weight arrays,
        real and imaginary parts apart, and only the nonzero columns of each
        such sum are visited entry by entry.  A sum is bounded by the sum of
        its scaled numerators' sizes times ``bound``, and computed in the
        dtype that bound allows.
        """
        groups: dict = {}
        den = 1
        for p, c, t, w in self.terms:
            if p == power:
                ratio = c.as_gaussian_ratio()
                den = lcm(den, ratio[2])
                groups.setdefault(t.tobytes(), (t, []))[1].append((ratio, w))
        re: dict = {}
        im: dict = {}
        for target, group in groups.values():
            for part, out in enumerate((re, im)):
                scales = [c[part] * (den // c[2]) for c, _ in group]
                if not any(scales):
                    continue
                dtype = _ints(sum(map(abs, scales)) * self.bound)
                total = np.array(scales, dtype=dtype) @ np.array([w for _, w in group], dtype=dtype)
                cols = total.nonzero()[0]
                if not cols.size:
                    continue
                rows = target[cols].tolist()
                for rc, x in zip(zip(rows, cols.tolist()), total[cols].tolist()):
                    out[rc] = out.get(rc, 0) + x
        return re, im, den

    def matrix(self, power: int) -> dict:
        """The hbar^power part as {(row, col): value}, exact zeros dropped."""
        re, im, den = self._sums(power)
        return {
            rc: ComplexRational.from_gaussian_ratio(re.get(rc, 0), im.get(rc, 0), den)
            for rc in {**re, **im}
            if re.get(rc) or im.get(rc)
        }

    @property
    def is_zero(self) -> bool:
        """Whether every matrix(power) is empty, read off the integer sums
        without building an entry."""
        for power in {t[0] for t in self.terms}:
            re, im, _ = self._sums(power)
            if any(re.values()) or any(im.values()):
                return False
        return True

    def __add__(self, other: "QuantumOperator") -> "QuantumOperator":
        self._check(other)
        return QuantumOperator(self.dim, self.terms + other.terms, max(self.bound, other.bound))

    def __sub__(self, other: "QuantumOperator") -> "QuantumOperator":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "QuantumOperator":
        s = _coerce(scalar)
        terms = tuple((p, s * c, t, w) for p, c, t, w in self.terms) if s else ()
        return QuantumOperator(self.dim, terms, self.bound)

    def shift_hbar(self, by: int) -> "QuantumOperator":
        terms = tuple((p + by, c, t, w) for p, c, t, w in self.terms)
        return QuantumOperator(self.dim, terms, self.bound)

    def __matmul__(self, other: "QuantumOperator") -> "QuantumOperator":
        self._check(other)
        bound = self.bound * other.bound
        dtype = _ints(bound)
        return QuantumOperator(
            self.dim,
            tuple(
                (p1 + p2, c1 * c2, t1[t2], w2.astype(dtype, copy=False) * w1[t2])
                for p1, c1, t1, w1 in self.terms
                for p2, c2, t2, w2 in other.terms
            ),
            bound,
        )

    def commutator(self, other: "QuantumOperator") -> "QuantumOperator":
        """self @ other - other @ self, both products formed per pair of
        terms in one pass, with one coefficient product per pair."""
        self._check(other)
        bound = self.bound * other.bound
        dtype = _ints(bound)
        return QuantumOperator(
            self.dim,
            tuple(
                term
                for p1, c1, t1, w1 in self.terms
                for p2, c2, t2, w2 in other.terms
                for c in [c1 * c2]
                for term in (
                    (p1 + p2, c, t1[t2], w2.astype(dtype, copy=False) * w1[t2]),
                    (p1 + p2, -c, t2[t1], w1.astype(dtype, copy=False) * w2[t1]),
                )
            ),
            bound,
        )

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
    reverse-lex basis is ascending.  The weight bound is 2l + 1 for an
    off-diagonal term, 2l + (number of columns) for a diagonal one and 1
    for the constant; weights are computed in int64 while 2l + m fits.
    """
    if l < 0:
        raise ValueError(f"degree must be >= 0, got {l}")
    basis = monomial_basis(e.m, l)
    radix, keys, identity = basis.place_values, basis.keys, basis.identity
    k = basis.exponents.astype(_ints(2 * l + e.m), copy=False)
    terms = []
    bounds = []
    if e.constant:
        terms.append((0, e.constant, identity, np.ones(basis.size, dtype=np.int64)))
        bounds.append(1)
    diagonal: dict = {}
    for (a, b), c in e.terms.items():
        if a == b:
            diagonal.setdefault(c, []).append(a)
            continue
        kb = k[:, b]
        moved = np.searchsorted(keys, keys + (radix[a] - radix[b]))
        terms.append((1, c * _HALF, np.where(kb > 0, moved, identity), 2 * kb))
        bounds.append(2 * l + 1)
    for c, cols in diagonal.items():
        terms.append((1, c * _HALF, identity, 2 * k.take(cols, axis=1).sum(axis=1) + len(cols)))
        bounds.append(2 * l + len(cols))
    return QuantumOperator(basis.size, tuple(terms), max(bounds, default=0))


def dirac_residual(
    q1: QuantumOperator, q2: QuantumOperator, qb: QuantumOperator
) -> QuantumOperator:
    """[q1, q2] + i hbar qb, expected to be exactly zero when q1 = Q(e1),
    q2 = Q(e2) and qb = Q({e1, e2}).  `dirac_nonzero` quantizes each basis
    element once per command and passes the operators in, so a pair costs one
    structure_bracket, one quantize of the bracket, one commutator and the
    exact zero test; qb's terms are appended to the commutator's, each
    multiplied by i and raised one power of hbar."""
    comm = q1.commutator(q2)
    comm._check(qb)
    terms = comm.terms + tuple((p + 1, I * c, t, w) for p, c, t, w in qb.terms)
    return QuantumOperator(comm.dim, terms, max(comm.bound, qb.bound))


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
