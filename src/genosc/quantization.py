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

Every term also carries its net key shift: the change of the mixed-radix
key sum_i k_i (l+1)^i from a column to its target, one Python int that is
the same on every column of nonzero weight, since a term moves each monomial
by one exponent vector.  Entries of terms with different shifts never share
a (row, col), so matrix entries are read out exactly per (power, shift):
each group of terms is summed as one integer array, the zero test is whether
every such sum is zero, with no entry visited, and `matrix` reads each
nonzero column of a sum as one entry.  The Dirac check quantizes each of the
m^2 basis elements once per command, and each distinct bracket once: the
m^4 basis brackets take only 3m(m-1) + 1 values, so a command makes
m^2 + 3m(m-1) + 1 quantize calls.  Each pair still costs one structure
bracket, one commutator and the exact zero test.  Quantized operators are
shared between pairs, so their arrays are read-only.
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

    A term ``(power, coeff, target, weight, shift)`` is hbar^power coeff P,
    where the weighted partial permutation P sends basis vector j to
    weight[j] times basis vector target[j], and ``shift`` is a Python int
    equal to keys[target[j]] - keys[j] on every column j with weight[j] != 0
    (on zero-weight columns target is arbitrary).  ``bound`` is a Python int
    with |weight| <= bound in every term.  Each weight array is computed in
    int64 while the bound of the operator it is made for is at most
    2^63 - 1, and in Python ints beyond, so none wraps.  Products of such P
    are again such P:
    (P1 P2) e_j = weight2[j] weight1[target2[j]] e_{target1[target2[j]]},
    with shift1 + shift2, so sums, scalar multiples and products need no
    per-entry arithmetic.
    """

    dim: int
    terms: tuple
    bound: int

    def _groups(self) -> dict:
        """The terms keyed by (power, shift).  Two terms with different keys
        never share an entry, so each group is summed on its own."""
        groups: dict = {}
        for term in self.terms:
            groups.setdefault((term[0], term[4]), []).append(term)
        return groups

    def _sum(self, group: list) -> tuple:
        """(den, sums, weights) of one group: rows 0 and 1 of the integer
        array ``sums`` hold the real and imaginary numerators, over den, of
        each column's one entry, in the row that every term of nonzero
        weight there targets; ``weights`` stacks the group's weights.

        The sum is one integer matmul of the coefficients' numerators,
        scaled to den, and the stacked weights.  It is bounded by the larger
        part's sum of scaled numerator sizes times ``bound``, and computed
        in the dtype that bound allows.
        """
        ratios = [term[1].as_gaussian_ratio() for term in group]
        den = lcm(*(d for _, _, d in ratios))
        parts = [[r[i] * (den // r[2]) for r in ratios] for i in (0, 1)]
        dtype = _ints(max(sum(map(abs, part)) for part in parts) * self.bound)
        weights = np.array([term[3] for term in group], dtype=dtype)
        return den, np.array(parts, dtype=dtype) @ weights, weights

    def matrix(self, power: int) -> dict:
        """The hbar^power part as {(row, col): value}, exact zeros dropped."""
        out = {}
        for (p, _), group in self._groups().items():
            if p != power:
                continue
            den, sums, weights = self._sum(group)
            cols = (sums != 0).any(axis=0).nonzero()[0]
            first = (weights[:, cols] != 0).argmax(axis=0)
            rows = np.array([term[2] for term in group])[first, cols]
            for r, c, a, b in zip(rows.tolist(), cols.tolist(), *sums[:, cols].tolist()):
                out[r, c] = ComplexRational.from_gaussian_ratio(a, b, den)
        return out

    @property
    def is_zero(self) -> bool:
        """Whether every matrix(power) is empty: whether every group's
        integer sum is zero, with no entry visited."""
        return not any(np.count_nonzero(self._sum(group)[1]) for group in self._groups().values())

    def __add__(self, other: "QuantumOperator") -> "QuantumOperator":
        self._check(other)
        return QuantumOperator(self.dim, self.terms + other.terms, max(self.bound, other.bound))

    def __sub__(self, other: "QuantumOperator") -> "QuantumOperator":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "QuantumOperator":
        s = _coerce(scalar)
        terms = tuple((p, s * c, t, w, d) for p, c, t, w, d in self.terms) if s else ()
        return QuantumOperator(self.dim, terms, self.bound)

    def shift_hbar(self, by: int) -> "QuantumOperator":
        terms = tuple((p + by, c, t, w, d) for p, c, t, w, d in self.terms)
        return QuantumOperator(self.dim, terms, self.bound)

    def __matmul__(self, other: "QuantumOperator") -> "QuantumOperator":
        self._check(other)
        bound = self.bound * other.bound
        dtype = _ints(bound)
        return QuantumOperator(
            self.dim,
            tuple(
                (p1 + p2, c1 * c2, t1[t2], w2.astype(dtype, copy=False) * w1[t2], d1 + d2)
                for p1, c1, t1, w1, d1 in self.terms
                for p2, c2, t2, w2, d2 in other.terms
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
                for p1, c1, t1, w1, d1 in self.terms
                for p2, c2, t2, w2, d2 in other.terms
                for c, d in [(c1 * c2, d1 + d2)]
                for term in (
                    (p1 + p2, c, t1[t2], w2.astype(dtype, copy=False) * w1[t2], d),
                    (p1 + p2, -c, t2[t1], w1.astype(dtype, copy=False) * w2[t1], d),
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
    reverse-lex basis is ascending; an off-diagonal term's net key shift is
    place_values[a] - place_values[b], as a Python int, and every other
    term's is 0.  The weight bound is 2l + 1 for an off-diagonal term,
    2l + (number of columns) for a diagonal one and 1 for the constant;
    weights are computed in int64 while 2l + m fits.  Every target and
    weight array of the result is read-only, so operators can be shared.
    """
    basis = monomial_basis(e.m, l)
    radix, keys, identity = basis.place_values, basis.keys, basis.identity
    k = basis.exponents.astype(_ints(2 * l + e.m), copy=False)
    terms = []
    bounds = []
    if e.constant:
        terms.append((0, e.constant, identity, np.ones(basis.size, dtype=np.int64), 0))
        bounds.append(1)
    diagonal: dict = {}
    for (a, b), c in e.terms.items():
        if a == b:
            diagonal.setdefault(c, []).append(a)
            continue
        kb = k[:, b]
        shift = int(radix[a] - radix[b])
        moved = np.searchsorted(keys, keys + shift)
        terms.append((1, c * _HALF, np.where(kb > 0, moved, identity), 2 * kb, shift))
        bounds.append(2 * l + 1)
    for c, cols in diagonal.items():
        terms.append((1, c * _HALF, identity, 2 * k.take(cols, axis=1).sum(axis=1) + len(cols), 0))
        bounds.append(2 * l + len(cols))
    for _, _, target, weight, _ in terms:
        target.setflags(write=False)
        weight.setflags(write=False)
    return QuantumOperator(basis.size, tuple(terms), max(bounds, default=0))


def dirac_residual(
    q1: QuantumOperator, q2: QuantumOperator, qb: QuantumOperator
) -> QuantumOperator:
    """[q1, q2] + i hbar qb, expected to be exactly zero when q1 = Q(e1),
    q2 = Q(e2) and qb = Q({e1, e2}).  `dirac_nonzero` quantizes each basis
    element and each distinct bracket once per command and passes the
    operators in, so a pair costs one structure_bracket, one commutator and
    the exact zero test; qb's terms are appended to the commutator's, each
    multiplied by i and raised one power of hbar."""
    comm = q1.commutator(q2)
    comm._check(qb)
    terms = comm.terms + tuple((p + 1, I * c, t, w, d) for p, c, t, w, d in qb.terms)
    return QuantumOperator(comm.dim, terms, max(comm.bound, qb.bound))


def dirac_nonzero(m: int, l: int) -> int:
    """The number of basis pairs (N^{ab'}, N^{cd'}) whose Dirac residual on
    degree l is not exactly zero.

    Each of the m^2 basis elements is quantized once, and so is each distinct
    bracket, keyed by its exact terms and constant in a dict local to the
    call: quantize is a pure function of (e, l), so a reused operator is the
    one a fresh call builds.  The brackets i(delta_bc N^{ad'} - delta_ad N^{cb'})
    are 0 (b != c and a != d, or a = b = c = d), i N^{ad'} (b = c, a != d),
    -i N^{cb'} (a = d, b != c) or i(N^{aa'} - N^{bb'}) (the pairs (a, b),
    (b, a) with a != b): 3m(m-1) + 1 values, so a run makes
    m^2 + 3m(m-1) + 1 quantize calls where one per pair made m^2 + m^4.
    """
    basis = [AlgebraElement.basis(m, a, b) for a in range(m) for b in range(m)]
    quantized = [(e, quantize(e, l)) for e in basis]
    brackets: dict = {}
    nonzero = 0
    for e1, q1 in quantized:
        for e2, q2 in quantized:
            b = structure_bracket(e1, e2)
            key = (tuple(b.terms.items()), b.constant)
            if key not in brackets:
                brackets[key] = quantize(b, l)
            nonzero += not dirac_residual(q1, q2, brackets[key]).is_zero
    return nonzero


@dataclass(frozen=True)
class SpectralLine:
    """One degree-l eigenspace of Q(H): eigenvalue in hbar-units, exact."""

    l: int
    eigenvalue: Fraction
    multiplicity: int


def spectrum_of_H(m: int, l: int) -> SpectralLine:
    """Verify that Q(H) is exactly (l + m/2) hbar x identity on degree l in m
    coordinates, by the exact zero test of Q(H) - hbar Q(l + m/2) at every
    power of hbar; returns the eigenvalue and multiplicity."""
    eigenvalue = Fraction(2 * l + m, 2)
    op = quantize(AlgebraElement.hamiltonian(m), l)
    shift = quantize(AlgebraElement(m, constant=-eigenvalue), l).shift_hbar(1)
    if not (op + shift).is_zero:
        raise GenoscError(f"Q(H) on degree {l} is not {eigenvalue} hbar x identity")
    return SpectralLine(l=l, eigenvalue=eigenvalue, multiplicity=op.dim)
