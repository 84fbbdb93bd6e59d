"""Exact quantization of F(m) on homogeneous holomorphic polynomials.

The quantization map sends N^{ab'} to hbar (z^a d/dz^b + delta_ab / 2) and
constants to themselves; it preserves polynomial degree, so operators are
built blockwise on the degree-l monomial basis.  All arithmetic is exact
complex-rational with hbar tracked as a symbolic unit.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import DimensionMismatch
from .exact import ComplexRational, ZERO, _coerce
from .geometry import OscillatorParams
from .observables import AlgebraElement, structure_bracket


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


def monomial_basis(m: int, l: int) -> MonomialBasis:
    """Enumerate the degree-l monomial multi-indices; size binom(l+m-1, m-1)."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if l < 0:
        raise ValueError(f"degree must be >= 0, got {l}")
    indices = sorted(_compositions(l, m), key=lambda k: tuple(reversed(k)))
    return MonomialBasis(m=m, l=l, indices=tuple(indices))


@dataclass(frozen=True)
class QuantumOperator:
    """Sparse exact operator on a degree-l monomial basis.

    ``terms`` maps an hbar power to a sparse matrix {(row, col): value}; the
    operator is sum_p hbar^p terms[p].  Operators arising from quantization of
    a single algebra element are homogeneous of power 0 (constants) or 1
    (N-span); commutators and Dirac residuals live at power 2.
    """

    dim: int
    terms: dict

    @property
    def is_zero(self) -> bool:
        return all(not any(m.values()) for m in self.terms.values())

    def entry(self, row: int, col: int, power: int) -> ComplexRational:
        return self.terms.get(power, {}).get((row, col), ZERO)

    def __add__(self, other: "QuantumOperator") -> "QuantumOperator":
        self._check(other)
        terms = {p: dict(m) for p, m in self.terms.items()}
        for p, mat in other.terms.items():
            dst = terms.setdefault(p, {})
            for rc, v in mat.items():
                dst[rc] = dst.get(rc, ZERO) + v
        return QuantumOperator(self.dim, _prune(terms))

    def __sub__(self, other: "QuantumOperator") -> "QuantumOperator":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "QuantumOperator":
        s = _coerce(scalar)
        return QuantumOperator(
            self.dim,
            _prune({p: {rc: s * v for rc, v in m.items()} for p, m in self.terms.items()}),
        )

    def shift_hbar(self, by: int) -> "QuantumOperator":
        return QuantumOperator(self.dim, {p + by: dict(m) for p, m in self.terms.items()})

    def __matmul__(self, other: "QuantumOperator") -> "QuantumOperator":
        self._check(other)
        out: dict = {}
        grouped = {p: _by_row(mat) for p, mat in other.terms.items()}
        for p1, m1 in self.terms.items():
            for p2, rows in grouped.items():
                dst = out.setdefault(p1 + p2, {})
                for (r, c), v in m1.items():
                    for c2, v2 in rows.get(c, {}).items():
                        dst[(r, c2)] = dst.get((r, c2), ZERO) + v * v2
        return QuantumOperator(self.dim, _prune(out))

    def commutator(self, other: "QuantumOperator") -> "QuantumOperator":
        return self @ other - other @ self

    def trace(self, power: int) -> ComplexRational:
        total = ZERO
        for (r, c), v in self.terms.get(power, {}).items():
            if r == c:
                total = total + v
        return total

    def _check(self, other: "QuantumOperator"):
        if self.dim != other.dim:
            raise DimensionMismatch(f"operators of dim {self.dim} and {other.dim}")


def _by_row(mat: dict) -> dict:
    rows: dict = {}
    for (r, c), v in mat.items():
        rows.setdefault(r, {})[c] = v
    return rows


def _prune(terms: dict) -> dict:
    out = {}
    for p in sorted(terms):
        mat = {rc: v for rc, v in terms[p].items() if v}
        if mat:
            out[p] = mat
    return out


def quantize(e: AlgebraElement, l: int) -> QuantumOperator:
    """Build the exact operator of e on the degree-l monomial basis.

    On a monomial z^k the (a, b) coefficient contributes
    hbar (k_b + delta_ab / 2) to z^{k - e_b + e_a}; the constant term is a
    multiple of the identity at hbar power 0.
    """
    if l < 0:
        raise ValueError(f"degree must be >= 0, got {l}")
    basis = monomial_basis(e.m, l)
    pos = {k: i for i, k in enumerate(basis.indices)}
    half = Fraction(1, 2)
    mat1: dict = {}
    for col, k in enumerate(basis.indices):
        for a in range(e.m):
            for b in range(e.m):
                c = e.coeff[a][b]
                if not c:
                    continue
                factor = Fraction(k[b]) + (half if a == b else 0)
                if factor == 0:
                    continue
                if a == b:
                    target = k
                else:
                    if k[b] == 0:
                        continue
                    kk = list(k)
                    kk[b] -= 1
                    kk[a] += 1
                    target = tuple(kk)
                row = pos[target]
                mat1[(row, col)] = mat1.get((row, col), ZERO) + factor * c
    terms: dict = {}
    if any(mat1.values()):
        terms[1] = mat1
    if e.constant:
        terms[0] = {(i, i): e.constant for i in range(basis.size)}
    return QuantumOperator(basis.size, _prune(terms))


def dirac_residual(e1: AlgebraElement, e2: AlgebraElement, l: int) -> QuantumOperator:
    """[Q(e1), Q(e2)] + i hbar Q({e1, e2}), expected to be exactly zero."""
    e1._check(e2)
    q1 = quantize(e1, l)
    q2 = quantize(e2, l)
    qb = quantize(structure_bracket(e1, e2), l)
    return q1.commutator(q2) + (ComplexRational.of(0, 1) * qb).shift_hbar(1)


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
    mat = op.terms.get(1, {})
    for r in range(dim):
        for c in range(dim):
            want = expected if r == c else ZERO
            if mat.get((r, c), ZERO) != want:
                raise AssertionError(
                    f"Q(H) is not (l + m/2) hbar x identity at entry ({r}, {c})"
                )
    if set(op.terms) != {1}:
        raise AssertionError("Q(H) has terms at unexpected hbar powers")
    return SpectralLine(l=l, eigenvalue=Fraction(2 * l + m, 2), multiplicity=dim)
