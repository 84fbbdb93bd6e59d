import itertools
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genosc.quantization
from genosc import (
    AlgebraElement,
    ComplexRational,
    DimensionMismatch,
    dirac_nonzero,
    dirac_residual,
    monomial_basis,
    quantize,
    spectrum_of_H,
    structure_bracket,
)
from genosc.exact import ZERO

HALF = Fraction(1, 2)


class TestMonomialBasis:
    def test_degree_two_ordering(self):
        assert monomial_basis(2, 2).indices == ((2, 0), (1, 1), (0, 2))

    def test_degree_zero(self):
        assert monomial_basis(3, 0).indices == ((0, 0, 0),)

    def test_size_formula(self):
        basis = monomial_basis(4, 3)
        assert basis.size == 20
        # brute-force enumeration oracle
        brute = {
            k
            for k in itertools.product(range(4), repeat=4)
            if sum(k) == 3
        }
        assert set(basis.indices) == brute

    @given(st.integers(1, 5), st.integers(0, 6))
    def test_complete_and_duplicate_free(self, m, l):
        basis = monomial_basis(m, l)
        assert len(set(basis.indices)) == basis.size == comb(l + m - 1, m - 1)
        assert all(sum(k) == l and min(k) >= 0 for k in basis.indices)

    @given(st.integers(1, 5), st.integers(0, 6))
    def test_order_is_ascending_on_reversed_exponents(self, m, l):
        # the definition: every exponent tuple of sum l, sorted ascending on
        # the reversed tuple
        brute = [k for k in itertools.product(range(l + 1), repeat=m) if sum(k) == l]
        basis = monomial_basis(m, l)
        assert basis.indices == tuple(sorted(brute, key=lambda k: k[::-1]))
        keys = basis.keys.tolist()
        assert all(a < b for a, b in zip(keys, keys[1:]))

    @pytest.mark.parametrize("m, l", [(5000, 0), (1200, 1)])
    def test_many_coordinates(self, m, l):
        # far more coordinates than Python's default recursion limit
        basis = monomial_basis(m, l)
        assert basis.size == comb(l + m - 1, m - 1)
        assert basis.indices[0] == (l,) + (0,) * (m - 1)
        assert basis.indices[-1] == (0,) * (m - 1) + (l,)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            monomial_basis(0, 1)
        with pytest.raises(ValueError):
            monomial_basis(2, -1)
        # quantize builds its basis here, so it refuses a negative degree too.
        with pytest.raises(ValueError, match="degree must be >= 0"):
            quantize(AlgebraElement.basis(2, 0, 0), -1)

    def test_cached_per_shape(self):
        assert monomial_basis(3, 4) is monomial_basis(3, 4)

    def test_cached_tables_are_read_only(self):
        basis = monomial_basis(3, 2)
        for array in (basis.exponents, basis.place_values, basis.keys, basis.identity):
            with pytest.raises(ValueError):
                array[0] = 7
        assert basis.exponents.tolist() == [list(k) for k in basis.indices]
        assert basis.place_values.tolist() == [1, 3, 9]
        assert basis.identity.tolist() == list(range(basis.size))


class TestQuantize:
    def test_diagonal_basis_element(self):
        op = quantize(AlgebraElement.basis(2, 0, 0), 1)
        # basis [(1,0), (0,1)]: z^0 d_0 + 1/2 acts as diag(3/2, 1/2) hbar
        assert op.matrix(1) == {
            (0, 0): ComplexRational(Fraction(3, 2)),
            (1, 1): ComplexRational(HALF),
        }

    def test_off_diagonal_basis_element(self):
        op = quantize(AlgebraElement.basis(2, 0, 1), 1)
        # z^0 d_1 maps (0,1) to (1,0) with unit coefficient
        assert op.matrix(1) == {(0, 1): ComplexRational(1)}
        assert op.matrix(0) == {}

    def test_constant_is_identity(self):
        op = quantize(AlgebraElement(2, constant=7), 2)
        assert op.matrix(0) == {(i, i): ComplexRational(7) for i in range(3)}
        assert op.matrix(1) == {}

    def test_degree_preservation(self):
        # every entry connects same-degree monomials by construction; the
        # operator must live on the degree-l block alone
        for m, l in [(2, 3), (3, 2)]:
            basis = monomial_basis(m, l)
            for a in range(m):
                for b in range(m):
                    op = quantize(AlgebraElement.basis(m, a, b), l)
                    assert op.dim == basis.size
                    for (r, c) in op.matrix(1):
                        assert sum(basis.indices[r]) == sum(basis.indices[c]) == l

    @settings(max_examples=20, deadline=None)
    @given(
        st.fractions(min_value=-4, max_value=4, max_denominator=4),
        st.fractions(min_value=-4, max_value=4, max_denominator=4),
    )
    def test_linearity(self, c1, c2):
        e1 = AlgebraElement.basis(2, 0, 1)
        e2 = AlgebraElement.hamiltonian(2)
        combo = ComplexRational(c1) * e1 + ComplexRational(c2) * e2
        lhs = quantize(combo, 2)
        rhs = ComplexRational(c1) * quantize(e1, 2) + ComplexRational(c2) * quantize(e2, 2)
        assert (lhs - rhs).is_zero

    def test_trace_identity(self):
        for m, l in [(2, 3), (3, 2), (4, 2)]:
            basis = monomial_basis(m, l)
            for a in range(m):
                for b in range(m):
                    op = quantize(AlgebraElement.basis(m, a, b), l)
                    expected = (
                        sum((Fraction(k[a]) + HALF for k in basis.indices), Fraction(0))
                        if a == b
                        else Fraction(0)
                    )
                    diagonal = [v for (r, c), v in op.matrix(1).items() if r == c]
                    assert sum(diagonal, ComplexRational()) == ComplexRational(expected)

    def test_entries_are_half_integers_for_basis_elements(self):
        op = quantize(AlgebraElement.basis(3, 1, 1), 3)
        mat = op.matrix(1)
        assert mat
        for v in mat.values():
            assert (2 * v.re).denominator == 1 and v.im == 0


def count_exact_ops(monkeypatch, fn, *args) -> int:
    """The number of ComplexRational operations, truth tests included, that
    fn(*args) makes."""
    count = 0
    ops = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
           "__bool__", "__eq__", "conjugate")
    for name in ops:
        original = getattr(ComplexRational, name)

        def counted(*args, original=original):
            nonlocal count
            count += 1
            return original(*args)

        monkeypatch.setattr(ComplexRational, name, counted)
    fn(*args)
    return count


class TestExactWorkIndependentOfM:
    @pytest.mark.parametrize(
        "work",
        [
            lambda m: (
                structure_bracket, AlgebraElement.basis(m, 0, 1), AlgebraElement.basis(m, 1, 0)
            ),
            lambda m: (quantize, AlgebraElement.basis(m, 0, 1), 2),
        ],
        ids=["structure_bracket", "quantize"],
    )
    def test_basis_element_costs_the_same_at_m2_and_m12(self, monkeypatch, work):
        counts = [count_exact_ops(monkeypatch, *work(m)) for m in (2, 12)]
        assert counts[0] > 0
        assert counts[0] == counts[1]


def formula_matrices(e, l):
    """Q(e) entry by entry from the quantization formula, as {power: {(row,
    col): value}} without zeros: on z^k, hbar c_ab (k_b + delta_ab / 2) to
    z^{k - e_b + e_a}, and the constant times the identity."""
    basis = monomial_basis(e.m, l).indices
    out = {0: {}, 1: {}}
    for col, k in enumerate(basis):
        if e.constant:
            out[0][col, col] = e.constant
        for a in range(e.m):
            for b in range(e.m):
                target = list(k)
                target[b] -= 1
                target[a] += 1
                if min(target) < 0:
                    continue
                rc = (basis.index(tuple(target)), col)
                value = e.terms.get((a, b), ZERO) * (Fraction(k[b]) + (HALF if a == b else 0))
                out[1][rc] = out[1].get(rc, ComplexRational()) + value
    return {p: {rc: v for rc, v in mat.items() if v} for p, mat in out.items()}


def dense(mat, dim):
    return [[mat.get((r, c), ComplexRational()) for c in range(dim)] for r in range(dim)]


def dense_matmul(x, y):
    n = len(x)
    return [
        [sum((x[r][j] * y[j][c] for j in range(n)), ComplexRational()) for c in range(n)]
        for r in range(n)
    ]


small_rational = st.fractions(min_value=-3, max_value=3, max_denominator=6)
complex_rational = st.one_of(
    st.just(ComplexRational()),
    st.builds(ComplexRational, small_rational, small_rational),
)


@st.composite
def elements(draw, m):
    terms = {ab: draw(complex_rational) for ab in itertools.product(range(m), repeat=2)}
    return AlgebraElement(m, terms, draw(complex_rational))


SHAPES = [(1, 3), (2, 3), (3, 2)]


def reference_matrix(op, power):
    """op.matrix(power) by the per-entry loop: every column of every term,
    two dict updates per nonzero weight."""
    terms = [(c.as_gaussian_ratio(), t, w) for p, c, t, w, _ in op.terms if p == power]
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


@st.composite
def operators(draw, m, l, depth=2):
    """A quantized element, or a sum, scalar multiple, product or commutator
    of such operators, nested up to depth."""
    q = quantize(draw(elements(m)), l)
    kind = draw(st.sampled_from(["leaf", "sum", "scale", "product", "commutator"]))
    if depth == 0 or kind == "leaf":
        return q
    other = draw(operators(m, l, depth - 1))
    if kind == "sum":
        return q + other
    if kind == "scale":
        return draw(complex_rational) * other
    if kind == "product":
        return q @ other
    return q.commutator(other)


class TestReadout:
    """QuantumOperator.matrix against the per-entry loop it replaces."""

    @pytest.mark.parametrize("m, l", SHAPES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, m, l, data):
        op = data.draw(operators(m, l))
        # nested products reach hbar^3
        for power in range(4):
            assert op.matrix(power) == reference_matrix(op, power)

    @pytest.mark.parametrize("m, l", SHAPES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_is_zero_matches_reference(self, m, l, data):
        # a Dirac residual is zero, often only once terms with different
        # targets but one net key shift cancel
        e1, e2 = data.draw(elements(m)), data.draw(elements(m))
        residual = pair_residual(e1, e2, l)
        for op in (data.draw(operators(m, l)), residual):
            assert op.is_zero == all(reference_matrix(op, power) == {} for power in range(4))
        assert residual.is_zero

    def test_commuting_products_cancel_across_targets(self):
        # N^{02'} and N^{12'} commute: their two products have equal weights
        # but targets that differ on zero-weight columns; they share one net
        # key shift, so they cancel in one integer sum
        q02 = quantize(AlgebraElement.basis(3, 0, 2), 3)
        q12 = quantize(AlgebraElement.basis(3, 1, 2), 3)
        ((_, _, t1, w1, _),) = (q02 @ q12).terms
        ((_, _, t2, w2, _),) = (q12 @ q02).terms
        assert (w1 == w2).all() and (t1 != t2).any()
        op = q02 @ q12 - q12 @ q02
        for power in range(3):
            assert op.matrix(power) == reference_matrix(op, power) == {}
        assert op.is_zero

    def test_hamiltonian_minus_eigenvalue_cancels_in_one_sum(self):
        m, l = 3, 4
        op = quantize(AlgebraElement.hamiltonian(m), l) - quantize(
            AlgebraElement(m, constant=Fraction(2 * l + m, 2)), l
        ).shift_hbar(1)
        assert len({t.tobytes() for _, _, t, _, _ in op.terms}) == 1
        for power in range(3):
            assert op.matrix(power) == reference_matrix(op, power) == {}

    def test_difference_with_itself(self):
        e = AlgebraElement(3, {(0, 0): 1, (0, 2): ComplexRational(1, -2), (2, 1): 3}, 5)
        q = quantize(e, 2)
        for power in range(3):
            assert (q - q).matrix(power) == reference_matrix(q - q, power) == {}


class TestDiagonalMerge:
    @pytest.mark.parametrize("m, l", [(1, 3), (4, 2), (2000, 0)])
    def test_hamiltonian_is_one_term(self, m, l):
        op = quantize(AlgebraElement.hamiltonian(m), l)
        assert len([term for term in op.terms if term[0] == 1]) == 1
        eigenvalue = ComplexRational(Fraction(2 * l + m, 2))
        assert op.matrix(1) == {(i, i): eigenvalue for i in range(op.dim)}

    def test_one_term_per_distinct_diagonal_coefficient(self):
        e = AlgebraElement(3, {(0, 0): 1, (1, 1): 1, (2, 2): 2, (0, 1): 3})
        op = quantize(e, 3)
        identity = monomial_basis(3, 3).identity
        diagonal = [term for term in op.terms if term[2] is identity]
        assert len(diagonal) == 2 and len(op.terms) == 3
        want = formula_matrices(e, 3)
        assert (op.matrix(0), op.matrix(1)) == (want[0], want[1])


class TestOperatorAlgebra:
    @pytest.mark.parametrize("m, l", SHAPES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_quantize_matches_formula(self, m, l, data):
        e = data.draw(elements(m))
        op = quantize(e, l)
        want = formula_matrices(e, l)
        assert op.matrix(0) == want[0]
        assert op.matrix(1) == want[1]
        assert op.matrix(2) == {}

    # dim = binom(l + m - 1, m - 1) <= 10 in every case
    @pytest.mark.parametrize("m, l", SHAPES + [(2, 9), (3, 3), (4, 1)])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_commutator_matches_dense_matmul(self, m, l, data):
        e1, e2 = data.draw(elements(m)), data.draw(elements(m))
        dim = monomial_basis(m, l).size
        assert dim <= 10
        x = {p: dense(mat, dim) for p, mat in formula_matrices(e1, l).items()}
        y = {p: dense(mat, dim) for p, mat in formula_matrices(e2, l).items()}
        comm = quantize(e1, l).commutator(quantize(e2, l))
        for power in range(3):
            want = [[ComplexRational()] * dim for _ in range(dim)]
            for p in range(power + 1):
                if p <= 1 and power - p <= 1:
                    xy = dense_matmul(x[p], y[power - p])
                    yx = dense_matmul(y[power - p], x[p])
                    want = [
                        [want[r][c] + xy[r][c] - yx[r][c] for c in range(dim)]
                        for r in range(dim)
                    ]
            assert dense(comm.matrix(power), dim) == want

    @pytest.mark.parametrize("m, l", SHAPES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_commutator_matches_difference_of_products(self, m, l, data):
        # depth 1 keeps the products' term counts small: each factor
        # reaches hbar^2, so the products reach hbar^4
        q1, q2 = data.draw(operators(m, l, depth=1)), data.draw(operators(m, l, depth=1))
        comm, difference = q1.commutator(q2), q1 @ q2 - q2 @ q1
        for power in range(5):
            assert comm.matrix(power) == difference.matrix(power)

    def test_difference_with_itself_is_zero(self):
        e = AlgebraElement(
            2,
            {(0, 0): 1, (0, 1): ComplexRational(2, -1), (1, 0): Fraction(1, 3), (1, 1): 5},
            ComplexRational(0, 4),
        )
        q = quantize(e, 3)
        assert len(q.terms) == 5 and not q.is_zero
        assert (q - q).is_zero
        assert (q @ q - q @ q).is_zero
        assert not (q @ q).is_zero

    def test_repeated_quantize_matches_formula(self):
        # the second call at the same (m, l) reads the cached basis tables
        e1 = AlgebraElement(
            2, {(0, 0): 1, (0, 1): ComplexRational(0, 2), (1, 0): Fraction(1, 3), (1, 1): 0}, 4
        )
        e2 = AlgebraElement(
            2, {(0, 0): 0, (0, 1): 0, (1, 0): ComplexRational(-1, 1), (1, 1): Fraction(5, 2)}
        )
        for e in (e1, e2, e1):
            op = quantize(e, 4)
            want = formula_matrices(e, 4)
            assert (op.matrix(0), op.matrix(1)) == (want[0], want[1])

    def test_annihilated_monomials_stay_in_range(self):
        # z^1 d_0 kills z^1: its would-be image, exponents (-1, 2), has a key
        # past the last basis key.  Squared, the operator kills degree 1.
        op = quantize(AlgebraElement.basis(2, 1, 0), 1)
        assert op.matrix(1) == {(1, 0): ComplexRational(1)}
        assert (op @ op).is_zero


class TestInt64Bound:
    """Weights are int64 while their carried bound fits, and Python ints
    beyond it; keys are sized by 2 (l+1)^m the same way."""

    def test_fifth_power_past_int64_reads_exactly(self):
        # m = 1, l = 10^6: one state, Q(N^{00'}) = (2l + 1)/2 hbar, and the
        # fifth power's weight (2l + 1)^5 is about 3.2e31
        l = 10**6
        q = quantize(AlgebraElement.basis(1, 0, 0), l)
        power = q @ q @ q @ q @ q
        assert power.bound == (2 * l + 1) ** 5 > 2**63
        want = ComplexRational(Fraction(32000080000080000040000010000001, 32))
        assert want == ComplexRational(Fraction(2 * l + 1, 2) ** 5)
        assert power.matrix(5) == {(0, 0): want}
        assert not power.is_zero
        assert (power - power).is_zero

    def test_huge_scalar_reads_exactly(self):
        e = AlgebraElement(3, {(0, 0): 1, (0, 2): ComplexRational(1, -2), (2, 1): 3}, 5)
        q = quantize(e, 4)
        scaled = 10**30 * q
        for power in range(3):
            want = {rc: 10**30 * v for rc, v in q.matrix(power).items()}
            assert scaled.matrix(power) == reference_matrix(scaled, power) == want
        assert (scaled - 10**30 * q).is_zero
        assert not (scaled - (10**30 + 1) * q).is_zero

    @pytest.mark.parametrize("l", [2**62, 2**64], ids=["2^62", "2^64"])
    def test_degree_past_int64_reads_exactly(self, l):
        # one state z^l: 2l + 1 passes int64 at l = 2^62, l itself at 2^64
        op = quantize(AlgebraElement(1, {(0, 0): 1}, 3), l)
        assert op.matrix(0) == {(0, 0): ComplexRational(3)}
        assert op.matrix(1) == {(0, 0): ComplexRational(Fraction(2 * l + 1, 2))}

    def test_keys_past_int64_match_formula(self):
        m, l = 64, 1
        basis = monomial_basis(m, l)
        assert basis.keys.tolist()[-1] == 2**63 > 2**63 - 1
        e = AlgebraElement(m, {(63, 0): 1, (0, 63): ComplexRational(0, 2), (5, 40): 3, (7, 7): 1})
        want = formula_matrices(e, l)
        op = quantize(e, l)
        assert (op.matrix(0), op.matrix(1)) == (want[0], want[1])


def pair_residual(e1, e2, l, bracket=structure_bracket):
    """The Dirac residual of one pair, quantizing e1, e2 and their bracket."""
    return dirac_residual(quantize(e1, l), quantize(e2, l), quantize(bracket(e1, e2), l))


def negated_bracket(e1, e2):
    return (-1) * structure_bracket(e1, e2)


def assert_shifts_match_keys(op, m, l):
    """Each term's net key shift is a Python int equal to keys[target[j]] -
    keys[j] on every column j of nonzero weight, with Python-int keys."""
    keys = monomial_basis(m, l).keys.tolist()
    for _, _, target, weight, shift in op.terms:
        assert type(shift) is int
        for col, (row, w) in enumerate(zip(target.tolist(), weight.tolist())):
            if w:
                assert keys[row] - keys[col] == shift


class TestNetKeyShift:
    @pytest.mark.parametrize("m, l", SHAPES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_shift_matches_keys_on_weighted_columns(self, m, l, data):
        q1, q2 = data.draw(operators(m, l, depth=1)), data.draw(operators(m, l, depth=1))
        e1, e2 = data.draw(elements(m)), data.draw(elements(m))
        for op in (data.draw(operators(m, l)), q1.commutator(q2), pair_residual(e1, e2, l)):
            assert_shifts_match_keys(op, m, l)

    def test_shifts_past_int64_are_exact(self):
        # m = 64, l = 1: the keys are 2^0 ... 2^63, so z^0 -> z^63 shifts
        # by 2^63 - 1 and its square by 2^64 - 2, which int64 would wrap
        m, l = 64, 1
        e1, e2 = AlgebraElement.basis(m, 63, 0), AlgebraElement.basis(m, 0, 63)
        q1, q2 = quantize(e1, l), quantize(e2, l)
        assert [term[4] for term in q1.terms] == [2**63 - 1]
        assert [term[4] for term in (q1 @ q1).terms] == [2**64 - 2]
        residual = pair_residual(e1, e2, l)
        for op in (q1, q2, q1 @ q1, q1 @ q2, q1.commutator(q2), residual):
            assert_shifts_match_keys(op, m, l)
        assert residual.is_zero

    def test_basis_residuals_have_one_shift_per_power(self):
        # A commutator's two products and the bracket's terms move each
        # monomial alike, though about a third of the residuals at (4, 3)
        # hold terms whose targets differ on zero-weight columns: each
        # residual is one integer sum per power of hbar.
        m, l = 4, 3
        basis = [AlgebraElement.basis(m, a, b) for a in range(m) for b in range(m)]
        quantized = [(e, quantize(e, l)) for e in basis]
        split_targets = 0
        for (e1, q1), (e2, q2) in itertools.product(quantized, repeat=2):
            residual = dirac_residual(q1, q2, quantize(structure_bracket(e1, e2), l))
            keys = {(p, shift) for p, _, _, _, shift in residual.terms}
            assert len(keys) == len({p for p, _ in keys})
            split_targets += len({t.tobytes() for _, _, t, _, _ in residual.terms}) > 1
        assert split_targets > 0


class TestDirac:
    def test_concrete_instance(self):
        # [Q(N^{00'}), Q(N^{01'})] = hbar Q(N^{01'}) on the degree-2 block
        e1 = AlgebraElement.basis(2, 0, 0)
        e2 = AlgebraElement.basis(2, 0, 1)
        comm = quantize(e1, 2).commutator(quantize(e2, 2))
        assert (comm - quantize(e2, 2).shift_hbar(1)).is_zero
        assert pair_residual(e1, e2, 2).is_zero

    def test_self_residual(self):
        e = AlgebraElement.basis(3, 1, 2)
        assert pair_residual(e, e, 3).is_zero

    @pytest.mark.parametrize("l", [0, 1, 2])
    def test_central_hamiltonian(self, l):
        h = AlgebraElement.hamiltonian(2)
        for a in range(2):
            for b in range(2):
                assert pair_residual(h, AlgebraElement.basis(2, a, b), l).is_zero

    def test_exhaustive_small(self):
        basis = [AlgebraElement.basis(2, a, b) for a in range(2) for b in range(2)]
        for e1, e2 in itertools.product(basis, repeat=2):
            for l in (0, 1, 2):
                assert pair_residual(e1, e2, l).is_zero

    def test_respects_structure_bracket_sign(self):
        # flipping the bracket sign must produce a nonzero residual
        e1 = AlgebraElement.basis(2, 0, 0)
        e2 = AlgebraElement.basis(2, 0, 1)
        q1, q2 = quantize(e1, 1), quantize(e2, 1)
        wrong = q1.commutator(q2) - (
            ComplexRational(0, 1) * quantize(structure_bracket(e1, e2), 1)
        ).shift_hbar(1)
        assert not wrong.is_zero

    def test_dimension_mismatch(self):
        # degree 1 has 2 states at m = 2 and 3 at m = 3
        q2 = quantize(AlgebraElement.basis(2, 0, 0), 1)
        q3 = quantize(AlgebraElement.basis(3, 0, 0), 1)
        with pytest.raises(DimensionMismatch):
            dirac_residual(q2, q3, q2)

    @pytest.mark.parametrize("m, l, negated", [(2, 3, 10), (3, 2, 42), (4, 3, 108)])
    def test_nonzero_count_matches_per_pair_oracle(self, monkeypatch, m, l, negated):
        # With {f, g} negated, a pair's residual cancels only where the
        # bracket is 0.
        basis = [AlgebraElement.basis(m, a, b) for a in range(m) for b in range(m)]

        def oracle(bracket):
            pairs = itertools.product(basis, repeat=2)
            return sum(not pair_residual(e1, e2, l, bracket).is_zero for e1, e2 in pairs)

        assert dirac_nonzero(m, l) == oracle(structure_bracket) == 0
        monkeypatch.setattr(genosc.quantization, "structure_bracket", negated_bracket)
        assert dirac_nonzero(m, l) == oracle(negated_bracket) == negated


class TestSpectrum:
    @pytest.mark.parametrize(
        "m,l,eig,mult",
        [
            (2, 0, Fraction(1), 1),
            (2, 2, Fraction(3), 3),
            (4, 3, Fraction(5), 20),
            (3, 1, Fraction(5, 2), 3),
        ],
    )
    def test_lines(self, m, l, eig, mult):
        line = spectrum_of_H(m, l)
        assert line.eigenvalue == eig
        assert line.multiplicity == mult

    def test_ladder_spacing_is_one_hbar(self):
        eigs = [spectrum_of_H(3, l).eigenvalue for l in range(5)]
        assert all(b - a == 1 for a, b in zip(eigs, eigs[1:]))
        assert eigs[0] == Fraction(3, 2)
