import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genosc import (
    AlgebraElement,
    ComplexRational,
    DimensionMismatch,
    DomainError,
    OscillatorParams,
    PhasePoint,
    closed_form_field,
    evaluate,
    hamiltonian_field,
    moment_map,
    poisson_bracket,
    preserves_polarization,
    sample_points,
    structure_bracket,
    wirtinger,
)
from genosc.exact import ZERO

P2_FLAT = OscillatorParams(m=2, a=0.0)
P2_CURVED = OscillatorParams(m=2, a=1.0)


def as_field(e, params):
    """The element e as a scalar field of points."""
    return lambda q: evaluate(e, moment_map(params, q))


def elements_strategy(m):
    """Elements over m with a coefficient drawn for every (a, b)."""
    rat = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    cr = st.builds(ComplexRational, rat, rat)
    terms = st.fixed_dictionaries({ab: cr for ab in itertools.product(range(m), repeat=2)})
    return st.builds(AlgebraElement, st.just(m), terms, cr)


@st.composite
def sparse_elements(draw):
    """Two elements over one m in 1..4 whose coefficients are zero about half
    the time, with any (often nonzero) constants."""
    m = draw(st.integers(1, 4))
    rat = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    cr = st.one_of(st.just(ComplexRational()), st.builds(ComplexRational, rat, rat))

    def element():
        terms = {ab: draw(cr) for ab in itertools.product(range(m), repeat=2)}
        return AlgebraElement(m, terms, draw(st.builds(ComplexRational, rat, rat)))

    return element(), element()


def dense_bracket(e1, e2):
    """i (C1 C2 - C2 C1) as (re, im) Fraction pairs, by dense matrix products
    over every index triple."""
    m = e1.m

    def product(x, y):
        out = [[[Fraction(0), Fraction(0)] for _ in range(m)] for _ in range(m)]
        for a, b, d in itertools.product(range(m), repeat=3):
            p, q = x.terms.get((a, b), ZERO), y.terms.get((b, d), ZERO)
            out[a][d][0] += p.re * q.re - p.im * q.im
            out[a][d][1] += p.re * q.im + p.im * q.re
        return out

    forward, backward = product(e1, e2), product(e2, e1)
    return [
        [
            (backward[a][d][1] - forward[a][d][1], forward[a][d][0] - backward[a][d][0])
            for d in range(m)
        ]
        for a in range(m)
    ]


class TestConstructor:
    def test_zero_coefficients_are_dropped(self):
        e = AlgebraElement(2, {(0, 1): 0, (1, 0): ComplexRational(), (1, 1): Fraction(1, 2)})
        assert e.terms == {(1, 1): ComplexRational(Fraction(1, 2))}
        assert AlgebraElement(2, {(0, 1): 0}) == AlgebraElement(2)
        assert AlgebraElement(2, constant=0) == AlgebraElement(2)

    def test_key_order_does_not_matter(self):
        forward = AlgebraElement(3, {(0, 2): 1, (1, 0): 2, (2, 1): 3})
        backward = AlgebraElement(3, {(2, 1): 3, (1, 0): 2, (0, 2): 1})
        assert forward == backward
        assert list(forward.terms) == list(backward.terms) == [(0, 2), (1, 0), (2, 1)]

    @pytest.mark.parametrize("key", [(2, 0), (0, 2), (-1, 0), (0, -1)])
    def test_index_out_of_range(self, key):
        with pytest.raises(IndexError):
            AlgebraElement(2, {key: 1})
        with pytest.raises(IndexError):
            AlgebraElement.basis(2, *key)


class TestEvaluate:
    def test_flat_basis(self):
        e = AlgebraElement.basis(2, 0, 0)
        assert evaluate(e, moment_map(P2_FLAT, PhasePoint([2, 0]))) == pytest.approx(4.0)

    def test_hamiltonian_curved(self):
        h = AlgebraElement.hamiltonian(2)
        got = evaluate(h, moment_map(P2_CURVED, PhasePoint([1, 1])))
        assert got == pytest.approx(math.sqrt(3), rel=1e-14)

    def test_constant(self):
        e = AlgebraElement(2, constant=5)
        assert evaluate(e, moment_map(P2_CURVED, PhasePoint([1, 1]))) == pytest.approx(5.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            evaluate(AlgebraElement.basis(3, 0, 0), moment_map(P2_FLAT, PhasePoint([1, 1])))


MOMENT_MAP_PARAMS = [OscillatorParams(m=m, a=a) for m in (2, 3) for a in (0.0, 1.0)]


class TestMomentMap:
    @pytest.mark.parametrize("params", MOMENT_MAP_PARAMS)
    def test_entries_are_basis_values(self, params):
        m = params.m
        for p in sample_points(params, 3, seed=51):
            N = moment_map(params, p)
            assert N.shape == (m, m)
            for a, b in itertools.product(range(m), repeat=2):
                assert N[a, b] == as_field(AlgebraElement.basis(m, a, b), params)(p)

    @pytest.mark.parametrize("params", MOMENT_MAP_PARAMS)
    def test_field_slices_match_scalar_fields(self, params):
        m = params.m
        N = lambda q: moment_map(params, q)
        for p in sample_points(params, 2, seed=53):
            X = hamiltonian_field(N, params, p)
            assert X.holo.shape == X.anti.shape == (m, m, m)
            for a, b in itertools.product(range(m), repeat=2):
                f = as_field(AlgebraElement.basis(m, a, b), params)
                ref = hamiltonian_field(f, params, p)
                assert np.max(np.abs(X.holo[:, a, b] - ref.holo)) < 1e-12
                assert np.max(np.abs(X.anti[:, a, b] - ref.anti)) < 1e-12

    @pytest.mark.parametrize("params", MOMENT_MAP_PARAMS)
    def test_bracket_entries_match_scalar_brackets(self, params):
        m = params.m
        N = lambda q: moment_map(params, q)
        fields = [
            as_field(AlgebraElement.basis(m, a, b), params)
            for a in range(m)
            for b in range(m)
        ]
        for p in sample_points(params, 2, seed=57):
            got = poisson_bracket(N, N, params, p)
            assert got.shape == (m, m, m, m)
            want = [poisson_bracket(f, g, params, p) for f in fields for g in fields]
            assert np.max(np.abs(got.ravel() - want)) < 1e-12

    def test_inadmissible_point_raises(self):
        with pytest.raises(DomainError):
            moment_map(P2_CURVED, PhasePoint([0.5, 0]))


class TestStructureBracket:
    def test_paper_instance(self):
        got = structure_bracket(AlgebraElement.basis(2, 0, 0), AlgebraElement.basis(2, 0, 1))
        i = ComplexRational(0, 1)
        assert got == i * AlgebraElement.basis(2, 0, 1)

    def test_self_bracket_is_zero(self):
        e = AlgebraElement.basis(2, 1, 0) + AlgebraElement(2, constant=3)
        assert structure_bracket(e, e) == AlgebraElement(2)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_hamiltonian_is_central(self, m):
        h = AlgebraElement.hamiltonian(m)
        for a in range(m):
            for b in range(m):
                assert structure_bracket(h, AlgebraElement.basis(m, a, b)) == AlgebraElement(m)

    def test_constants_are_central(self):
        c = AlgebraElement(2, constant=ComplexRational(Fraction(2, 3), 1))
        assert structure_bracket(c, AlgebraElement.basis(2, 0, 1)) == AlgebraElement(2)

    @pytest.mark.parametrize("m", [2, 3])
    def test_exhaustive_antisymmetry_and_jacobi(self, m):
        basis = [AlgebraElement.basis(m, a, b) for a in range(m) for b in range(m)]
        for e1, e2 in itertools.product(basis, repeat=2):
            assert structure_bracket(e1, e2) == (-1) * structure_bracket(e2, e1)
        for e1, e2, e3 in itertools.product(basis, repeat=3):
            total = (
                structure_bracket(structure_bracket(e1, e2), e3)
                + structure_bracket(structure_bracket(e2, e3), e1)
                + structure_bracket(structure_bracket(e3, e1), e2)
            )
            assert total == AlgebraElement(m)

    @settings(max_examples=25, deadline=None)
    @given(elements_strategy(4), elements_strategy(4), elements_strategy(4))
    def test_randomized_jacobi_m4(self, e1, e2, e3):
        total = (
            structure_bracket(structure_bracket(e1, e2), e3)
            + structure_bracket(structure_bracket(e2, e3), e1)
            + structure_bracket(structure_bracket(e3, e1), e2)
        )
        assert total == AlgebraElement(4)

    @settings(max_examples=30, deadline=None)
    @given(elements_strategy(3), elements_strategy(3))
    def test_bracket_is_traceless(self, e1, e2):
        out = structure_bracket(e1, e2)
        trace = sum((out.terms.get((i, i), ZERO) for i in range(3)), ZERO)
        assert not trace
        assert not out.constant

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            structure_bracket(AlgebraElement.basis(2, 0, 0), AlgebraElement.basis(3, 0, 0))

    @settings(max_examples=60, deadline=None)
    @given(sparse_elements())
    def test_matches_dense_fraction_oracle(self, pair):
        e1, e2 = pair
        got = structure_bracket(e1, e2)
        coeff = [[got.terms.get((a, d), ZERO) for d in range(e1.m)] for a in range(e1.m)]
        assert [[(c.re, c.im) for c in row] for row in coeff] == dense_bracket(e1, e2)
        assert got.constant == ComplexRational()

    def test_closed_form_on_all_basis_pairs_m3(self):
        m = 3
        i = ComplexRational(0, 1)
        for a, b, c, d in itertools.product(range(m), repeat=4):
            want = AlgebraElement(m)
            if b == c:
                want = want + i * AlgebraElement.basis(m, a, d)
            if a == d:
                want = want + (-i) * AlgebraElement.basis(m, c, b)
            got = structure_bracket(AlgebraElement.basis(m, a, b), AlgebraElement.basis(m, c, d))
            assert got == want, (a, b, c, d)


class TestPointwiseAgreement:
    @pytest.mark.parametrize("params", [P2_FLAT, P2_CURVED])
    def test_numeric_bracket_matches_exact(self, params):
        m = params.m
        basis = [AlgebraElement.basis(m, a, b) for a in range(m) for b in range(m)]
        points = sample_points(params, 5, seed=13)
        for e1, e2 in itertools.product(basis, repeat=2):
            exact = structure_bracket(e1, e2)
            for p in points:
                num = poisson_bracket(
                    as_field(e1, params), as_field(e2, params), params, p
                )
                assert abs(num - as_field(exact, params)(p)) < 1e-7


class TestClosedFormField:
    def test_off_diagonal(self):
        v = closed_form_field(PhasePoint([1, 0]))
        assert tuple(v.holo[:, 0, 1]) == (0, 1j)
        assert tuple(v.anti[:, 0, 1]) == (0, 0)

    def test_vanishing_coordinate(self):
        v = closed_form_field(PhasePoint([0, 1]))
        assert tuple(v.holo[:, 0, 0]) == (0, 0)
        assert tuple(v.anti[:, 0, 0]) == (0, 0)

    def test_complex_coordinate(self):
        v = closed_form_field(PhasePoint([1 + 1j, 0]))
        assert v.holo[:, 0, 0] == pytest.approx((1j * (1 + 1j), 0))
        assert v.anti[:, 0, 0] == pytest.approx((-1j * (1 - 1j), 0))

    def test_layout_on_point_array(self):
        # [..., c, a, b] is component c of the field of N^{ab'}: i z^a e_b
        # along d/dz, -i zbar^b e_a along d/dzbar.
        params = OscillatorParams(m=3, a=0.8)
        z = np.array(sample_points(params, 4, seed=61))
        v = closed_form_field(z)
        assert v.holo.shape == v.anti.shape == (4, 3, 3, 3)
        e = np.eye(3)
        for a, b in itertools.product(range(3), repeat=2):
            assert np.array_equal(v.holo[..., a, b], 1j * z[:, a, None] * e[b])
            assert np.array_equal(v.anti[..., a, b], -1j * np.conj(z[:, b, None]) * e[a])


class TestPolarization:
    @pytest.mark.parametrize("params", [P2_FLAT, P2_CURVED])
    def test_basis_observables_preserve(self, params):
        samples = sample_points(params, 10, seed=21)
        f = as_field(AlgebraElement.basis(2, 0, 1), params)
        assert preserves_polarization(f, params, samples) <= 1e-5

    @pytest.mark.parametrize("params", [P2_FLAT, P2_CURVED])
    def test_holomorphic_polynomial_preserves(self, params):
        samples = sample_points(params, 10, seed=21)
        residual = preserves_polarization(lambda z: z[..., 0] * z[..., 1], params, samples)
        assert residual <= 1e-5

    def test_negative_control_fails_with_residual_two(self):
        samples = sample_points(P2_FLAT, 10, seed=21)
        residual = preserves_polarization(lambda z: np.conj(z[..., 0]) ** 2, P2_FLAT, samples)
        assert not residual <= 1e-5
        assert residual == pytest.approx(2.0, rel=1e-5)

    @pytest.mark.parametrize("params", [P2_CURVED, OscillatorParams(m=3, a=0.8)])
    def test_residual_matches_per_component_oracle(self, params):
        m = params.m
        samples = sample_points(params, 3, seed=43)
        fields = [
            as_field(AlgebraElement.basis(m, 0, m - 1), params),
            lambda z: z[..., 0] * z[..., m - 1] ** 2,
            lambda z: np.conj(z[..., 0]) ** 2,
        ]
        for f in fields:
            oracle = max(
                abs(
                    wirtinger(
                        lambda q, a=a: hamiltonian_field(f, params, q).holo[..., a],
                        p,
                    )[1][b]
                )
                for p in samples
                for a in range(m)
                for b in range(m)
            )
            got = preserves_polarization(f, params, samples)
            assert got == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("params", [P2_CURVED, OscillatorParams(m=3, a=0.8)])
    def test_array_field_gets_one_residual_per_entry(self, params):
        m = params.m
        samples = sample_points(params, 3, seed=53)
        fields = [
            as_field(AlgebraElement.basis(m, m - 1, 0), params),
            lambda z: z[..., 0] ** 2 * z[..., m - 1] - 3j * z[..., 0],
            lambda z: np.conj(z[..., 0]) ** 2,
        ]
        stacked = lambda z: np.stack([f(z) for f in fields], axis=-1)
        got = preserves_polarization(stacked, params, samples)
        assert got.shape == (3,)
        for entry, f in zip(got, fields):
            assert entry == pytest.approx(preserves_polarization(f, params, samples), rel=1e-12)
        assert got[:2].max() <= 1e-5 and got[2] >= 1.0
