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
key sum_i k_i (l+1)^i from a column to its target, a Python int that is the
same on every column of nonzero weight, since a term moves each monomial by
one exponent vector.  Entries of terms with different shifts never share a
(row, col), so matrix entries are read out exactly per (power, shift): each
group of terms is summed as one integer array, the zero test is whether
every such sum is zero, with no entry visited, and `matrix` reads each
nonzero column of a sum as one entry.

A QuantumOperator may also hold a stack of operators on one basis, through
a single code path: each term's target and weight arrays get leading batch
axes (*batch, dim), and its shift becomes an array of Python ints over the
batch; an unstacked operator, such as `quantize` returns, is a stack of
shape ().  Sums, products, commutators, `dirac_residual` and the zero test
broadcast over the batch, and the zero test gives one verdict per member,
summing on each the terms of one (power, shift) under a per-member mask.
The Dirac check stacks the m^2 quantized basis elements and the quantized
distinct brackets once per command: the m^4 basis brackets take only
3m(m-1) + 1 values, so a command makes m^2 + 3m(m-1) + 1 quantize calls.
Each pair still gets its own structure bracket, but the flattened pairs are
checked in chunks of at most DIRAC_CHUNK_ENTRIES entries, each with one
`dirac_residual` and one zero test.  Stacks are shared between chunks, so
their arrays are read-only.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, repeat
from math import lcm, prod
from operator import mul

import numpy as np

from .errors import DimensionMismatch, GenoscError
from .exact import I, ComplexRational, _coerce
from .observables import AlgebraElement, structure_bracket

_HALF = ComplexRational(Fraction(1, 2))
_INT64_MAX = int(np.iinfo(np.int64).max)

#: Most entries (pairs x basis states) that each array of one dirac_nonzero
#: chunk holds; a chunk holds at least one pair.  A chunk keeps about a dozen
#: such int64 arrays alive, 0.75 MiB at 8 192 entries, inside a 2 MiB L2
#: cache.  dirac_nonzero alone against the per-pair loop it replaced, best
#: of 3 in one process on a 2-core x86-64 VM with Python 3.11, two runs, at
#: 4 096 / 8 192 / 16 384 entries: (6, 6) 0.68-0.69 / 0.55-0.57 / 1.00-1.05
#: of its time, (8, 4) 0.56-0.57 / 0.45 / 0.75-0.77, (8, 8) 0.95-0.98 /
#: 0.95-0.98 / 0.88-0.92, (4, 3) 0.37-0.38 / 0.35 / 0.35-0.36, (3, 139) and
#: (2, 9999) 0.89-0.99 at all three; chunks of 2^18 and 2^20 entries ran
#: (8, 8) 2.5-4 times slower than 16 384.
DIRAC_CHUNK_ENTRIES = 8192


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


def _take(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    """a[b, index[b, j]] for every member b and column j, with the batch axes
    of a and index broadcast: one flat take, with each member's offset added
    only when a has more than one member."""
    dim = a.shape[-1]
    if a.size == dim:
        return a.reshape(dim)[index]
    offsets = np.arange(0, a.size, dim).reshape(a.shape[:-1] + (1,))
    return a.reshape(-1)[index + offsets]


def _product(t1, w1, t2, w2, dtype) -> tuple:
    """The target and weight of P1 P2, member by member; the weight in dtype."""
    return _take(t1, t2), w2.astype(dtype, copy=False) * _take(w1, t2)


def _shift_classes(group: list) -> list:
    """The classes of equal shift among one power's terms, as (terms,
    masks): the terms in the class on some member and, per term, a bool
    array over the batch set on the members where it is, or masks None
    when the class holds every term on every member.  That is the one class
    when each term's shift is the first term's on every member where the
    term has a nonzero weight (elsewhere it adds zero), as at a stack's
    members without the term.  Otherwise a class is labelled by the first
    term of its shift on each member, found with one dict per member."""
    first = group[0][4]
    if all(
        d is first or np.all(d == first) or np.all((d == first) | ~(w != 0).any(axis=-1))
        for _, _, _, w, d in group
    ):
        return [(group, None)]
    shifts = [term[4] for term in group]
    batch = np.broadcast_shapes(*map(np.shape, shifts))
    seen: list = [{} for _ in range(prod(batch))]
    labels = []
    for i, d in enumerate(shifts):
        values = np.broadcast_to(np.asarray(d, dtype=object), batch).ravel().tolist()
        labels.append([member.setdefault(v, i) for member, v in zip(seen, values)])
    classes: dict = {}
    for j, row in enumerate(labels):
        for label in set(row):
            classes.setdefault(label, []).append(j)
    labels = np.array(labels).reshape((len(shifts),) + batch)
    return [
        ([group[j] for j in js], [labels[j] == label for j in js])
        for label, js in classes.items()
    ]


@dataclass(frozen=True, eq=False)
class QuantumOperator:
    """Exact operator on a degree-l monomial basis, or a stack of such
    operators on one basis, as a sum of terms.

    A term ``(power, coeff, target, weight, shift)`` is hbar^power coeff P,
    where the weighted partial permutation P sends basis vector j of member
    b to weight[b, j] times basis vector target[b, j].  target and weight
    are integer arrays of shape (*batch, dim) whose batch axes broadcast
    across the terms; an operator without batch axes is a stack of shape ().
    ``shift`` equals keys[target[b, j]] - keys[j] on every column j with
    weight[b, j] != 0 (on zero-weight columns target is arbitrary): a Python
    int for a term without batch axes, else an object array of Python ints
    over the batch, so no shift wraps.  ``bound`` is a Python int with
    |weight| <= bound in every term.  Each weight array is computed in
    int64 while the bound of the operator it is made for is at most
    2^63 - 1, and in Python ints beyond, so none wraps.  Products of such P
    are again such P, member by member:
    (P1 P2) e_j = weight2[j] weight1[target2[j]] e_{target1[target2[j]]},
    with shift1 + shift2, so sums, scalar multiples and products need no
    per-entry arithmetic.
    """

    dim: int
    terms: tuple
    bound: int

    @classmethod
    def stack(cls, operators, size: int) -> "QuantumOperator":
        """The size operators of one basis, none with batch axes, as one
        stack of shape (size,).  They are taken one at a time, so only one
        of them is held beside the stack.

        A member's terms fill slots keyed by (power, coefficient, k), k
        counting the member's terms of that power and coefficient.  A
        coefficient is taken up to sign, the sign going into the weight, and
        a member's terms of one power, coefficient, target array and shift
        are first merged into one by summing their weights: so c and -c
        share a slot, and so do the two identity-target terms of
        Q(i(N^{aa'} - N^{bb'})).  A member without a slot's term has zero
        weight, target 0 and shift 0 there.  The bound is the largest
        member bound times the most terms merged into one, and every array
        is read-only, so that the stack can be shared.
        """
        slots: dict = {}
        dim, bound = None, 0
        for member, op in enumerate(operators):
            if dim is None:
                dim = op.dim
            elif op.dim != dim:
                raise DimensionMismatch(f"operators of dim {dim} and {op.dim}")
            merged: dict = {}
            for p, c, t, w, d in op.terms:
                if c.as_gaussian_ratio()[:2] < (0, 0):
                    c, w = -c, -w
                merged.setdefault((p, c, id(t), d), (t, []))[1].append(w)
            seen: dict = {}
            for (p, c, _, d), (t, weights) in merged.items():
                k = seen[p, c] = seen.get((p, c), -1) + 1
                first = weights[0].astype(_ints(len(weights) * op.bound), copy=False)
                w = sum(weights[1:], first)
                bound = max(bound, len(weights) * op.bound)
                slot = slots.get((p, c, k))
                if slot is None:
                    slot = slots[p, c, k] = [
                        np.zeros((size, dim), dtype=np.intp),
                        np.zeros((size, dim), dtype=w.dtype),
                        np.zeros(size, dtype=object),
                    ]
                elif w.dtype == object:
                    slot[1] = slot[1].astype(object, copy=False)
                slot[0][member], slot[1][member], slot[2][member] = t, w, d
        if dim is None:
            raise ValueError("cannot stack no operators")
        for arrays in slots.values():
            for array in arrays:
                array.flags.writeable = False
        terms = tuple((p, c, t, w, d) for (p, c, _), (t, w, d) in slots.items())
        return cls(dim, terms, bound)

    @cached_property
    def _weighted(self) -> list:
        """Per term, the members with some nonzero weight, or None if all."""
        has = [(term[3] != 0).any(axis=-1) for term in self.terms]
        return [None if h.all() else h for h in has]

    def __getitem__(self, index) -> "QuantumOperator":
        """The members at index (an int, a slice or an integer array) of a
        stack's batch axis, leaving out each term that is zero on all of
        them.  A slice gives views of the stack's arrays."""
        return QuantumOperator(
            self.dim,
            tuple(
                (p, c, t[index], w[index], d[index])
                for (p, c, t, w, d), has in zip(self.terms, self._weighted)
                if has is None or has[index].any()
            ),
            self.bound,
        )

    def _groups(self) -> dict:
        """The terms of an operator without batch axes, keyed by (power,
        shift).  Two terms with different keys never share an entry, so
        each group is summed on its own."""
        groups: dict = {}
        for term in self.terms:
            groups.setdefault((term[0], term[4]), []).append(term)
        return groups

    def _sums(self, group: list, masks: list) -> tuple:
        """(den, [re, im]): the real and imaginary numerators, over den, of
        each column's one entry in the row that every term of group with
        nonzero weight there targets, each term counted on the members where
        its mask (a bool array over the batch) is set, or on all with masks
        None.  A part is None where no term adds to it.

        Each part is summed in place, coefficient numerator (scaled to den,
        and masked per member) times weight, in the dtype that the larger
        part's sum of scaled numerator sizes times ``bound`` allows.
        """
        ratios = [term[1].as_gaussian_ratio() for term in group]
        den = lcm(*(d for _, _, d in ratios))
        parts = [[r[i] * (den // r[2]) for r in ratios] for i in (0, 1)]
        dtype = _ints(max(sum(map(abs, part)) for part in parts) * max(self.bound, 1))
        sums = []
        for part in parts:
            total = None
            for c, mask, term in zip(part, masks or repeat(None), group):
                if not c:
                    continue
                if mask is not None:
                    if not mask.any():
                        continue
                    if not mask.all():
                        c = (mask.astype(dtype) * c)[..., None]
                w = term[3].astype(dtype, copy=False)
                if total is None:
                    total = w * c
                elif type(c) is int and abs(c) == 1 and w.shape == total.shape:
                    (np.add if c == 1 else np.subtract)(total, w, out=total)
                else:
                    product = w * c
                    if product.shape == total.shape:
                        total += product
                    else:
                        total = total + product
            sums.append(total)
        return den, sums

    def matrix(self, power: int) -> dict:
        """The hbar^power part of an operator without batch axes as
        {(row, col): value}, exact zeros dropped."""
        out = {}
        for (p, _), group in self._groups().items():
            if p != power:
                continue
            den, parts = self._sums(group, None)
            re, im = (np.zeros(self.dim, dtype=int) if s is None else s for s in parts)
            cols = ((re != 0) | (im != 0)).nonzero()[0]
            weights = np.array([term[3] for term in group])
            first = (weights[:, cols] != 0).argmax(axis=0)
            rows = np.array([term[2] for term in group])[first, cols]
            entries = zip(rows.tolist(), cols.tolist(), re[cols].tolist(), im[cols].tolist())
            for r, c, a, b in entries:
                out[r, c] = ComplexRational.from_gaussian_ratio(a, b, den)
        return out

    @property
    def is_zero(self):
        """Per member, whether every matrix(power) is empty, with no entry
        visited: a bool array of the shape the terms' batch axes broadcast
        to (a numpy bool without batch axes, or without terms).  Each
        power's terms are split into classes of equal shift on each member
        (see _shift_classes); each class is one integer sum and must be
        zero."""
        zero = np.True_
        powers: dict = {}
        for term in self.terms:
            powers.setdefault(term[0], []).append(term)
        for group in powers.values():
            for terms, masks in _shift_classes(group):
                for total in self._sums(terms, masks)[1]:
                    if total is None:
                        continue
                    if total.ndim > 1:
                        zero = zero & ~total.any(axis=-1)
                    elif np.count_nonzero(total):  # one operator: one verdict
                        return np.False_
        return zero

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
                (p1 + p2, c1 * c2, *_product(t1, w1, t2, w2, dtype), d1 + d2)
                for p1, c1, t1, w1, d1 in self.terms
                for p2, c2, t2, w2, d2 in other.terms
            ),
            bound,
        )

    def commutator(self, other: "QuantumOperator") -> "QuantumOperator":
        """self @ other - other @ self, member by member, both products
        formed per pair of terms in one pass, with one coefficient product
        per pair."""
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
                    (p1 + p2, c, *_product(t1, w1, t2, w2, dtype), d),
                    (p1 + p2, -c, *_product(t2, w2, t1, w1, dtype), d),
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
    """[q1, q2] + i hbar qb, member by member, expected to be exactly zero
    when q1 = Q(e1), q2 = Q(e2) and qb = Q({e1, e2}); the batch axes of the
    three broadcast.  qb's terms are appended to the commutator's, each
    multiplied by i and raised one power of hbar.  `dirac_nonzero` passes
    stacks of pairs, so one call and one zero test check a chunk of them."""
    comm = q1.commutator(q2)
    comm._check(qb)
    terms = comm.terms + tuple((p + 1, I * c, t, w, d) for p, c, t, w, d in qb.terms)
    return QuantumOperator(comm.dim, terms, max(comm.bound, qb.bound))


def dirac_nonzero(m: int, l: int) -> int:
    """The number of basis pairs (N^{ab'}, N^{cd'}) whose Dirac residual on
    degree l is not exactly zero.

    The m^2 basis elements are quantized once and stacked.  Each pair gets
    its own structure_bracket; each distinct bracket, keyed by its exact
    terms and constant in a dict local to the call, is quantized once
    (quantize is a pure function of (e, l)) and stacked.  The brackets
    i(delta_bc N^{ad'} - delta_ad N^{cb'}) are 0 (b != c and a != d, or
    a = b = c = d), i N^{ad'} (b = c, a != d), -i N^{cb'} (a = d, b != c) or
    i(N^{aa'} - N^{bb'}) (the pairs (a, b), (b, a) with a != b): 3m(m-1) + 1
    values, so a run makes m^2 + 3m(m-1) + 1 quantize calls.  The m^4 pairs,
    first element major, are then checked in chunks of at most
    DIRAC_CHUNK_ENTRIES entries (pairs times basis states, at least one
    pair), each by one dirac_residual of the chunk's members of the stacks
    and one zero test.  A chunk within one first element reads that member
    and a run of second elements as views of the stack.
    """
    basis = [AlgebraElement.basis(m, a, b) for a in range(m) for b in range(m)]
    n = len(basis)
    q = QuantumOperator.stack((quantize(e, l) for e in basis), n)
    ids: dict = {}
    brackets = []
    member = []
    for e1 in basis:
        for e2 in basis:
            b = structure_bracket(e1, e2)
            key = (tuple(b.terms.items()), b.constant)
            if key not in ids:
                ids[key] = len(brackets)
                brackets.append(b)
            member.append(ids[key])
    qb = QuantumOperator.stack((quantize(b, l) for b in brackets), len(brackets))
    member = np.array(member)
    size = max(1, DIRAC_CHUNK_ENTRIES // q.dim)
    nonzero = 0
    for lo in range(0, n * n, size):
        hi = min(lo + size, n * n)
        (i, j), (last_i, last_j) = divmod(lo, n), divmod(hi - 1, n)
        if i == last_i:
            first, second = slice(i, i + 1), slice(j, last_j + 1)
        else:
            pairs = np.arange(lo, hi)
            first, second = pairs // n, pairs % n
        bracket = slice(member[lo], member[lo] + 1) if hi - lo == 1 else member[lo:hi]
        zero = dirac_residual(q[first], q[second], qb[bracket]).is_zero
        nonzero += hi - lo - np.count_nonzero(np.broadcast_to(zero, hi - lo))
    return int(nonzero)


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
